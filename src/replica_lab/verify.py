"""The named inequality/identity suite behind the `verify` CLI command.

Each check produces a VerificationReport whose slack is >= 0 iff the check
passes.  Deterministic checks carry zero standard error; Monte Carlo checks
grant themselves exactly the allowance stated in their report.  The checks
that price the scalar channel do so on the default 61-node rule.  The
deterministic tolerances of the saddle, SE and KL checks carry the prior's scale (_scale).
"""

from __future__ import annotations

import numpy as np

from .channel import asymmetry_gap
from .errors import EnumerationBudgetError, _check_count
from .finite import (
    DEFAULT_BUDGET,
    _kl_pair_draws,
    derive_seed,
    nishimori_check,
)
from .interpolation import fp_upper_check, guerra_slope_check
from .priors import Prior, second_moment
from .report import VerificationReport
from .rs import compute_curve, phi_rs, state_evolution


def _scale(p: Prior) -> float:
    """s = max(1, E[X^2]), 1 for the catalog priors: free entropies and log Z scale as s^2, q* as s."""
    return max(1.0, second_moment(p))


def tilt_asymmetry_check(p: Prior) -> VerificationReport:
    """psi_bar(r, r) >= psi_bar(r, -r) - 1e-10 for r in 0:10:0.25, in one asymmetry_gap call on the default rule."""
    r_grid, tol = np.arange(0.0, 10.0 + 1e-12, 0.25), 1e-10
    worst = float(asymmetry_gap(None, p, r_grid).min())
    return VerificationReport.from_slack(
        "tilt_asymmetry",
        {"prior": p.name, "r_max": float(r_grid[-1]), "min_gap": worst},
        worst + tol,
        allowance=tol,
    )


def saddle_equivalence_check(p: Prior) -> VerificationReport:
    """|sup_m inf_q F_bar - sup_q F| <= 1e-4 s^2 at lambda = 0.5, 1, 2, 4, on the default rule."""
    lam_grid, tol = (0.5, 1.0, 2.0, 4.0), 1e-4 * _scale(p) * _scale(p)
    gaps = [abs(row["saddle"] - row["phi_rs"]) for row in compute_curve(p, lam_grid)]
    worst = max(gaps)  # the first largest gap
    return VerificationReport.from_slack(
        "saddle_equivalence",
        {"prior": p.name, "lambda_grid": list(lam_grid),
         "max_gap": worst, "argmax_lambda": lam_grid[gaps.index(worst)]},
        tol - worst,
        allowance=tol,
    )


def kl_identity_check(
    p: Prior,
    n: int,
    lam: float,
    n_instances: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Per-instance agreement of the log likelihood ratio with log Z, within 1e-10 s^2.

    The instances are sample_instance(p, n, lam, derive_seed(seed, k)) for
    k < n_instances, drawn stacked (finite._kl_pair_draws) rather than one by one.
    """
    tol = 1e-10 * _scale(p) * _scale(p)
    _check_count("n_instances", n_instances)
    llr, log_z = _kl_pair_draws(p, n, lam, n_instances, seed, budget)
    worst = float(np.abs(llr - log_z).max())
    return VerificationReport.from_slack(
        "kl_identity",
        {"prior": p.name, "n": n, "lambda": lam,
         "n_instances": n_instances, "seed": seed, "max_abs_diff": worst},
        tol - worst,
        allowance=tol,
    )


def se_fixed_point_check(p: Prior, lam: float) -> VerificationReport:
    """SE from the informative side converges to q* within 1e-5 s (slack -inf if it does not converge), on the default rule."""
    tol = 1e-5 * _scale(p)
    m2 = second_moment(p)
    trace = state_evolution(p, lam, q0=0.9 * m2, tol=1e-10, max_iter=2000)
    q_star = phi_rs(p, lam).optimizer_q
    diff = abs(trace.fixed_point - q_star)
    return VerificationReport.from_slack(
        "se_fixed_point",
        {"prior": p.name, "lambda": lam, "fixed_point": trace.fixed_point,
         "q_star": q_star, "converged": trace.converged},
        tol - diff if trace.converged else float("-inf"),
        allowance=tol,
    )


def run_suite(
    p: Prior,
    n: int = 10,
    n_disorder: int = 400,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """The full battery at one (prior, n >= 2, n_disorder >= 2, seed) setting."""
    _check_count("n_disorder", n_disorder, 2)  # one draw has no standard errors
    _check_count("n", n, 2)  # the exact estimators' rule, before any check is priced
    m2 = second_moment(p)
    reports = [
        tilt_asymmetry_check(p),
        saddle_equivalence_check(p),
        se_fixed_point_check(p, 2.0),
        se_fixed_point_check(p, 4.0),
    ]
    try:
        reports.append(kl_identity_check(p, n, 2.0, min(100, n_disorder), derive_seed(seed, 101), budget=budget))
        for lam in (0.5, 1.0, 2.0):
            reports.append(nishimori_check(p, n, lam, n_disorder, derive_seed(seed, 102), budget))
        # the last q is q*(2) as the lambda = 2 SE check priced it
        for i, q in enumerate((0.25 * m2, 0.5 * m2, reports[2].params["q_star"])):
            reports.append(
                guerra_slope_check(p, n, 2.0, float(q),
                                   n_disorder=n_disorder, seed=derive_seed(seed, 103 + i),
                                   budget=budget)
            )
        for i, m in enumerate((-0.5 * m2, 0.0, 0.5 * m2)):
            reports.append(
                fp_upper_check(p, n, 2.0, float(m), 0.25,
                               n_disorder=n_disorder, seed=derive_seed(seed, 106 + i),
                               budget=budget)
            )
    except EnumerationBudgetError as e:
        reports.append(
            VerificationReport.from_slack(
                "enumeration_budget",
                {"prior": p.name, "n": n, "required": e.required, "budget": e.budget},
                float("-inf"),
            )
        )
    return reports
