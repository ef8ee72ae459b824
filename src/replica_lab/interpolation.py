"""Interpolating Hamiltonians between the matrix model and a scalar channel.

The interpolation couples the spiked-matrix interaction at strength t to a
decoupled one-body Gaussian side channel at strength 1 - t:

    -H_t(x) = sum_{i<j} [ sqrt(t lam/N) W_ij x_i x_j
                          + (t lam/N) x_i x*_i x_j x*_j
                          - (t lam/2N) x_i^2 x_j^2 ]
            + sum_i    [ sqrt((1-t) r) z_i x_i
                          + (1-t) s x_i x*_i
                          - ((1-t) r / 2) x_i^2 ],

with r = lam q and s = lam m.  The matched case s = r drives the free-entropy
lower bound (the t-derivative is bounded below by -lam q^2/4 up to O(1/N)),
checked here by finite differences of the exactly enumerated path free
entropy phi(t), with disorder shared across the t grid so slope estimates
are paired (guerra_slope_check).  The general case drives the upper bound
on the overlap-restricted free entropy, checked by comparing the exactly
enumerated Franz-Parisi potential with inf_q F_hat at the same spike
(fp_upper_check).

phi(t) is an exact-enumeration estimator like the others of the finite
layer, and lives there: finite._phi_t_draws is one Gibbs pass over the
table at the SNRs t lam with the side term added, so phi(1) is the plain
free-entropy estimator bit for bit on shared seeds.  A window restricts the
pass to fp_potential's configurations at a fixed spike, the only spike a
Franz-Parisi window has, and phi(1) is then fp_potential.  At t = 0
without a window the sites decouple, and phi(0) is the one-site closed form
(1/N) sum_i log sum_v w_v exp(sqrt(r) z_i v + s x*_i v - r v^2/2), the
scalar channel that phi_RS is built from, on the same draws; with a
resampled spike and s = r its expectation is psi(r) at every N.  This
module keeps the public path and the two checks built on it; the tests
hold -H_t as the finite layer prices it to a direct per-configuration
evaluation of the definition above, and the closed form to the enumerated
t = 0 column.
"""

from __future__ import annotations

import numpy as np

from .channel import _check_scale
from .errors import InvalidArgumentError
from .finite import (
    DEFAULT_BUDGET,
    McEstimate,
    _mc_estimate,
    _mean_stderr,
    _phi_t_draws,
    derive_seed,
    fp_potential,
    sample_spike,
)
from .priors import Prior
from .report import VerificationReport
from .rs import _inner_min


def phi_of_t(
    p: Prior,
    n: int,
    lam: float,
    q: float,
    m: float,
    t: float,
    n_disorder: int,
    seed: int,
    restricted=None,
    spike=None,
) -> McEstimate:
    """Path free entropy phi(t), optionally overlap-restricted or fixed-spike.

    restricted is an optional (m_window, eps) pair selecting configurations
    with R_{1,*} in [m_window, m_window + eps); spike fixes the planted
    vector instead of resampling it per disorder draw.  Both are checked as
    in fp_potential: finite m_window, finite eps > 0, a spike of n atoms of
    the prior, and a window only with a spike.  An unreachable window yields
    the -inf sentinel, and the enumeration runs under DEFAULT_BUDGET.  At
    t = 1 a window gives fp_potential's pass over the same rows, bit for bit.
    """
    vals = _phi_t_draws(p, n, lam, q, m, [t], n_disorder, seed, restricted=restricted, spike=spike)[:, 0]
    return _mc_estimate(vals, seed)


DEFAULT_T_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def guerra_slope_check(
    p: Prior,
    n: int,
    lam: float,
    q: float,
    t_grid=DEFAULT_T_GRID,
    n_disorder: int = 400,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Finite-difference check of the lower-bound slope phi'(t) >= -lam q^2/4 - C/N.

    Runs the matched interpolation (s = r = lam q) with the spike resampled
    per draw, computes paired slope estimates on adjacent t-grid points, and
    passes if every slope clears the bound within C/N plus 3 standard errors,
    C being the calibration allowance lam K^4.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 2 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise InvalidArgumentError("t_grid must be strictly increasing with >= 2 points")
    c_val = lam * p.bound**4
    phis = _phi_t_draws(p, n, lam, q, q, t_grid, n_disorder, seed, budget=budget)
    dt = np.diff(np.asarray(t_grid))
    slopes = np.diff(phis, axis=1) / dt
    slope_mean, slope_se = _mean_stderr(slopes)
    bound = lam * q * q / 4.0 + c_val / n
    margins = slope_mean + bound + 3.0 * slope_se
    worst = int(np.argmin(margins))
    return VerificationReport.from_slack(
        "guerra_slope",
        {
            "prior": p.name,
            "n": n,
            "lambda": lam,
            "q": q,
            "t_grid": list(t_grid),
            "n_disorder": n_disorder,
            "seed": seed,
            "min_slope": float(slope_mean[worst]),
            "worst_segment": worst,
        },
        margins[worst],
        slope_se[worst],
        bound + 3.0 * slope_se[worst],
    )


def fp_upper_check(
    p: Prior,
    n: int,
    lam: float,
    m: float,
    eps: float,
    n_disorder: int = 400,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Interpolation upper bound on the Franz-Parisi potential.

    Draws one spike from the prior, estimates Phi_eps(m, x*) over the matrix
    disorder, and checks it against inf_q F_hat(lam, m, q, x*) + lam eps^2/2
    plus the calibration allowance C/N + 3 stderr (C = lam K^4).  The inf
    over q in [0, K^2 + 1] is the saddle's exact inner minimization, averaged
    over the spike's empirical law and priced on the default quadrature
    rule.  An unreachable window produces a skipped (vacuously passing)
    report.  lambda and m must pass channel._check_scale at extent
    max(K^2 + 1, |m|), besides fp_potential's checks.
    """
    K = p.bound
    _check_scale(p, lam, max(K * K + 1.0, abs(m)))
    spike = sample_spike(p, n, derive_seed(seed, 0, 2))
    lhs = fp_potential(p, n, lam, m, eps, spike, n_disorder, derive_seed(seed, 1), budget)
    params = {
        "prior": p.name,
        "n": n,
        "lambda": lam,
        "m": m,
        "eps": eps,
        "n_disorder": n_disorder,
        "seed": seed,
    }
    if lhs.empty_window:
        params["skipped"] = "empty overlap window"
        return VerificationReport.from_slack("fp_upper", params, float("inf"))

    _, q_min, rhs_min = _inner_min(p, lam, np.array([float(m)]), K**2 + 1.0, None, spike)[:, 0]
    q_min, rhs_min = float(q_min), float(rhs_min)
    allowance = lam * eps * eps / 2.0 + lam * K**4 / n + 3.0 * lhs.stderr
    slack = rhs_min + allowance - lhs.mean
    params.update({"q_min": q_min, "rhs_min": rhs_min, "lhs_mean": lhs.mean})
    return VerificationReport.from_slack("fp_upper", params, slack, lhs.stderr, allowance)
