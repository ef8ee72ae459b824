"""A first-order transition: sparse spikes jump instead of creeping.

For a sparse Rademacher prior (a few large entries among many zeros), the
potential q -> F(lambda, q) develops two competing local maxima.  The global
one jumps from the uninformative branch q ~ 0 to an informative branch at a
critical SNR strictly below the spectral threshold 1.  This script locates
the transition, then prints both branches across it.

Run:  python3 demos/03_first_order_transition.py [out.svg]
"""

import sys

import numpy as np

from replica_lab import critical_lambda, phi_rs, rs_potential
from replica_lab.priors import sparse_rademacher_prior
from replica_lab.svg import line_chart_svg

prior = sparse_rademacher_prior(0.05)
print(f"prior = {prior.name}: atoms at 0 and +-{1/0.05**0.5:.3f}")

lam_c = critical_lambda(prior, delta=1e-3)
print(f"critical SNR = {lam_c:.6f}  (below the spectral threshold 1.0)")

print(f"\n{'lambda':>8} {'branches (q, value)'}")
for lam in (lam_c - 0.05, lam_c - 0.005, lam_c + 0.005, lam_c + 0.05):
    res = phi_rs(prior, lam)
    branches = ", ".join(f"({q:.4f}, {v:+.6f})" for q, v in res.local_optima)
    marker = "*" if res.optimizer_q > 0.1 else " "
    print(f"{lam:8.3f} {marker} {branches}")
print("\n(* = the informative branch has taken over the global maximum)")

if len(sys.argv) > 1:
    qs = np.linspace(0.0, 1.0, 400)
    series = [[rs_potential(prior, lam, float(q)) for q in qs]
              for lam in (lam_c - 0.05, lam_c, lam_c + 0.05)]
    svg = line_chart_svg(
        qs, series,
        [f"lambda={lam_c - 0.05:.3f}", f"lambda={lam_c:.3f}", f"lambda={lam_c + 0.05:.3f}"],
        "Double-well structure of the potential near the transition", "q", "F(lambda, q)",
    )
    with open(sys.argv[1], "w") as f:
        f.write(svg)
    print(f"wrote {sys.argv[1]}")
