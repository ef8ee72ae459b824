"""The constrained free entropy as a function of the forced alignment.

Fixing a spike and restricting the partition sum to configurations whose
overlap with it falls in a narrow window [m, m + eps) yields the
Franz-Parisi potential, the free entropy of a subsystem pinned at alignment
m.  The profile is maximal at the alignments the unconstrained system
actually visits, and everywhere below its one-body upper bound

    inf_q F_hat(lambda, m, q, x*) + lambda eps^2 / 2  (+ O(1/N)),

which fp_upper_check computes and checks window by window.

Run:  python3 demos/05_franz_parisi_profile.py [out.svg]
"""

import sys

from replica_lab import derive_seed, fp_profile, fp_upper_check, sample_spike, standard_priors
from replica_lab.svg import line_chart_svg

prior = standard_priors()["rademacher"]
n, lam, eps, n_disorder, seed = 12, 2.0, 0.25, 150, 43
# fp_upper_check at this seed draws this spike and these disorder draws.
spike = sample_spike(prior, n, derive_seed(seed, 0, 2))
profile = fp_profile(prior, n, lam, eps, spike, n_disorder, derive_seed(seed, 1))

print(f"n = {n}, lambda = {lam}, eps = {eps}\n")
print(f"{'m':>7} {'Phi_eps':>10} {'stderr':>9} {'upper bound':>12}")
ms, vals, bounds, passed = [], [], [], []
for l, est in profile:
    m = l * eps
    rep = fp_upper_check(prior, n, lam, m, eps, n_disorder=n_disorder, seed=seed)
    ub = rep.params["rhs_min"] + lam * eps * eps / 2.0
    ms.append(m)
    vals.append(est.mean)
    bounds.append(ub)
    passed.append(rep.passed)
    print(f"{m:7.2f} {est.mean:10.5f} {est.stderr:9.5f} {ub:12.5f}")

verdict = "sits" if all(passed) else "does NOT sit"
print(f"\nevery profile value {verdict} below its bound (up to the 1/N allowance);")
print("the peak marks the alignments carrying essentially all posterior mass.")

if len(sys.argv) > 1:
    svg = line_chart_svg(
        ms, [vals, bounds], ["Phi_eps(m)", "one-body bound"],
        "Constrained free entropy vs forced alignment", "m", "value",
    )
    with open(sys.argv[1], "w") as f:
        f.write(svg)
    print(f"wrote {sys.argv[1]}")
