"""The named inequality/identity suite behind the `verify` CLI command.

Each check produces a VerificationReport whose slack is >= 0 iff the check
passes.  Deterministic checks carry zero standard error; Monte Carlo checks
grant themselves exactly the allowance stated in their report.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelEvaluator, asymmetry_gap
from .errors import EnumerationBudgetError, InvalidArgumentError
from .finite import (
    DEFAULT_BUDGET,
    _check_disorder,
    derive_seed,
    kl_log_likelihood_ratios,
    nishimori_check,
    sample_instance,
)
from .interpolation import fp_upper_check, guerra_slope_check
from .priors import Prior, second_moment
from .report import VerificationReport
from .rs import phi_rs, saddle, state_evolution


def tilt_asymmetry_check(p: Prior, ev: ChannelEvaluator | None = None) -> VerificationReport:
    """psi_bar(r, r) >= psi_bar(r, -r) - 1e-10 for r in 0:10:0.25, the grid in one asymmetry_gap call."""
    r_grid, tol = np.arange(0.0, 10.0 + 1e-12, 0.25), 1e-10
    worst = float(asymmetry_gap(ev, p, r_grid).min())
    return VerificationReport.from_slack(
        "tilt_asymmetry",
        {"prior": p.name, "r_max": float(r_grid[-1]), "min_gap": worst},
        worst + tol,
        allowance=tol,
    )


def saddle_equivalence_check(p: Prior, ev: ChannelEvaluator | None = None) -> VerificationReport:
    """|sup_m inf_q F_bar - sup_q F| <= 1e-4 at lambda = 0.5, 1, 2, 4."""
    lam_grid, tol = (0.5, 1.0, 2.0, 4.0), 1e-4
    worst = 0.0
    worst_lam = float(lam_grid[0])
    for lam in lam_grid:
        gap = abs(saddle(p, float(lam), ev).value - phi_rs(p, float(lam), ev).value)
        if gap > worst:
            worst, worst_lam = gap, float(lam)
    return VerificationReport.from_slack(
        "saddle_equivalence",
        {"prior": p.name, "lambda_grid": [float(x) for x in lam_grid],
         "max_gap": worst, "argmax_lambda": worst_lam},
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
    """Per-instance agreement of the log likelihood ratio with log Z, within 1e-10."""
    tol = 1e-10
    _check_disorder(n_instances, "n_instances")
    instances = [sample_instance(p, n, lam, derive_seed(seed, k)) for k in range(n_instances)]
    llr, log_z = kl_log_likelihood_ratios(instances, p, budget)
    worst = float(np.abs(llr - log_z).max())
    return VerificationReport.from_slack(
        "kl_identity",
        {"prior": p.name, "n": n, "lambda": lam,
         "n_instances": n_instances, "seed": seed, "max_abs_diff": worst},
        tol - worst,
        allowance=tol,
    )


def se_fixed_point_check(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> VerificationReport:
    """SE from the informative side converges to q* within 1e-5 (slack -inf if it does not converge)."""
    tol = 1e-5
    m2 = second_moment(p)
    trace = state_evolution(p, lam, q0=0.9 * m2, tol=1e-10, max_iter=2000, ev=ev)
    q_star = phi_rs(p, lam, ev).optimizer_q
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
    ev: ChannelEvaluator | None = None,
) -> list:
    """The full battery at one (prior, n, n_disorder >= 2, seed) setting: one draw has no standard errors."""
    _check_disorder(n_disorder)
    if n_disorder < 2:
        raise InvalidArgumentError(f"n_disorder must be >= 2 for the suite's standard errors, got {n_disorder}")
    m2 = second_moment(p)
    reports = [
        tilt_asymmetry_check(p, ev=ev),
        saddle_equivalence_check(p, ev=ev),
        se_fixed_point_check(p, 2.0, ev=ev),
        se_fixed_point_check(p, 4.0, ev=ev),
    ]
    try:
        reports.append(kl_identity_check(p, n, 2.0, min(100, n_disorder), derive_seed(seed, 101), budget=budget))
        for lam in (0.5, 1.0, 2.0):
            reports.append(nishimori_check(p, n, lam, n_disorder, derive_seed(seed, 102), budget))
        q_star2 = phi_rs(p, 2.0, ev).optimizer_q
        for i, q in enumerate((0.25 * m2, 0.5 * m2, q_star2)):
            reports.append(
                guerra_slope_check(p, n, 2.0, float(q),
                                   n_disorder=n_disorder, seed=derive_seed(seed, 103 + i),
                                   budget=budget)
            )
        for i, m in enumerate((-0.5 * m2, 0.0, 0.5 * m2)):
            reports.append(
                fp_upper_check(p, n, 2.0, float(m), 0.25,
                               n_disorder=n_disorder, seed=derive_seed(seed, 106 + i),
                               budget=budget, ev=ev)
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
