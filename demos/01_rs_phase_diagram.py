"""Phase diagram of rank-one matrix estimation for the Rademacher spike.

Sweeps the signal-to-noise ratio and reports, per lambda: the optimal
asymptotic overlap q*, the limiting free entropy, the mutual information per
variable, and the per-entry matrix MMSE.  Below lambda = 1 the optimal
overlap is zero (estimation is impossible); above it q* grows continuously
and the MMSE drops below the trivial value 1.

Run:  python3 demos/01_rs_phase_diagram.py [out.svg]
"""

import sys

import numpy as np

from replica_lab import compute_curve, second_moment, standard_priors
from replica_lab.svg import line_chart_svg

prior = standard_priors()["rademacher"]
grid = np.arange(0.0, 4.01, 0.2)

print(f"prior = {prior.name}, E[X^2] = {second_moment(prior)}")
print(f"{'lambda':>8} {'q*':>10} {'phi_RS':>10} {'MI/N':>10} {'MMSE':>10}")
# the rs-curve command's records: q*, phi_RS, MI and MMSE per lambda
rows = [(r["lambda"], r["q_star"], r["phi_rs"], r["mi"], r["mmse"]) for r in compute_curve(prior, grid.tolist())]
for row in rows:
    print("{:8.2f} {:10.5f} {:10.5f} {:10.5f} {:10.5f}".format(*row))

lam_first_nonzero = next((lam for lam, q, *_ in rows if q > 1e-3), None)
print(f"\nthe overlap becomes nontrivial near lambda = {lam_first_nonzero:.2f}")
print("(the spectral threshold for a unit-variance prior sits at lambda = 1)")

if len(sys.argv) > 1:
    svg = line_chart_svg(
        [r[0] for r in rows],
        [[r[1] for r in rows], [r[4] for r in rows]],
        ["q*", "MMSE"],
        "Overlap and matrix MMSE vs SNR",
        "lambda",
        "value",
    )
    with open(sys.argv[1], "w") as f:
        f.write(svg)
    print(f"wrote {sys.argv[1]}")
