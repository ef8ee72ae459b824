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
lower bound (the t-derivative is bounded below by -lam q^2/4 up to O(1/N));
the general case drives the upper bound on the overlap-restricted free
entropy.  Both are verified here by finite differences of the exactly
enumerated path free entropy phi(t), with disorder shared across the t grid
so slope estimates are paired.

The matrix part of -H_t is the original Hamiltonian at effective SNR
t*lambda: the finite-size energy kernel's parts, computed for a block of
draws at once (one draw at a time when a restricted window follows a
resampled spike, since every draw then has its own rows) and recombined at
each t one draw at a time.  At t = 1 the side coefficients are exact zeros,
so phi(1) reproduces the plain free-entropy estimator bit for bit on shared
seeds.  h_t evaluates the definition directly, as the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelEvaluator
from .errors import DomainError, InvalidArgumentError
from .finite import (
    DEFAULT_BUDGET,
    _MASK64,
    SpikedInstance,
    _check_disorder,
    _draw_parts,
    _energy_parts,
    _fixed_spike_draws,
    _logsumexp,
    _mc_estimate,
    _neg_energy,
    _overlap_window,
    _sampled_draws,
    _triu,
    McEstimate,
    derive_seed,
    enumeration_table,
    fp_potential,
    sample_instance,
    sample_spike,
)
from .priors import Prior, support_bound
from .report import VerificationReport
from .rs import _check_lambda, _inner_min


@dataclass(frozen=True, eq=False)
class AugmentedInstance:
    """A base instance plus the side-channel observations of the t-path.

    side_obs records y_i = sqrt((1-t) r) x*_i + z_i; the Hamiltonian uses the
    noise z_i directly.  At t = 1 every side coefficient vanishes, at t = 0
    every matrix coefficient does.
    """

    base: SpikedInstance
    t: float
    r: float
    s: float
    side_noise: np.ndarray = field(repr=False)
    side_obs: np.ndarray = field(repr=False)


def _check_t(t: float):
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")


def augment(inst: SpikedInstance, t: float, r: float, s: float, seed: int) -> AugmentedInstance:
    """Draw the side noise and assemble the augmented observation set."""
    _check_t(t)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    z = np.random.default_rng(int(seed) & _MASK64).standard_normal(inst.n)
    obs = math.sqrt((1.0 - t) * r) * inst.spike + z
    z.setflags(write=False)
    obs.setflags(write=False)
    return AugmentedInstance(base=inst, t=float(t), r=float(r), s=float(s), side_noise=z, side_obs=obs)


def h_t(aug: AugmentedInstance, x) -> float:
    """-H_t(x) for one configuration, evaluated directly from the definition."""
    _check_t(aug.t)
    inst = aug.base
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise InvalidArgumentError(f"x must have length {inst.n}, got shape {x.shape}")
    n = inst.n
    i, j = _triu(n)
    pp = x[i] * x[j]
    spike_pp = inst.spike[i] * inst.spike[j]
    t, lam, r, s = aug.t, inst.lam, aug.r, aug.s
    mat = (
        math.sqrt(t * lam / n) * (inst.noise @ pp)
        + t * lam / n * (spike_pp @ pp)
        - t * lam / (2.0 * n) * (pp @ pp)
    )
    side = (
        math.sqrt((1.0 - t) * r) * (aug.side_noise @ x)
        + (1.0 - t) * s * (x @ inst.spike)
        - (1.0 - t) * r / 2.0 * (x @ x)
    )
    return float(mat + side)


def _phi_t_draws(
    p: Prior,
    n: int,
    lam: float,
    q: float,
    m: float,
    t_values,
    n_disorder: int,
    seed: int,
    restricted=None,
    spike=None,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Per-draw path free entropies, shape (n_disorder, len(t_values)).

    Spike handling has two variants: resampled per draw when spike is None
    (the expectation over x* of the lower-bound argument), held fixed
    otherwise (the fixed-spike potential of the upper-bound argument).
    Disorder (W, z) is drawn once per replica and shared across every t.
    """
    _check_lambda(lam)
    if not (math.isfinite(q) and q >= 0):
        raise DomainError(f"q must be finite and >= 0, got {q}")
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m}")
    _check_disorder(n_disorder)
    t_values = [float(t) for t in t_values]
    for t in t_values:
        _check_t(t)
    r = lam * q
    s = lam * m
    table = enumeration_table(p, n, budget)
    if spike is not None:
        spike = np.asarray(spike, dtype=np.float64)

    def selected(rows):
        return table.X[rows], table.logw[rows], table.pairsq[rows], table.sumsq[rows]

    def blocks():
        """(k0, spikes, kernel parts, selected rows) per block of draws."""
        if spike is None and restricted is not None:
            # The window follows each draw's spike: one draw per kernel call.
            for k in range(n_disorder):
                inst = sample_instance(p, n, lam, derive_seed(seed, k))
                rows = selected(_overlap_window(table.X, inst.spike, *restricted))
                spikes = inst.spike[None, :]
                yield k, spikes, _energy_parts(rows[0], spikes, inst.noise[None, :]), rows
            return
        if spike is None:
            rows, draw = selected(slice(None)), _sampled_draws(p, n, lam, seed)
        else:
            window = slice(None) if restricted is None else _overlap_window(table.X, spike, *restricted)
            rows, draw = selected(window), _fixed_spike_draws(spike, seed)
        for k0, spikes, parts in _draw_parts(rows[0], n_disorder, draw):
            yield k0, spikes, parts, rows

    out = np.empty((n_disorder, len(t_values)))
    for k0, spikes, (q_w, s_parts), (x, logw, pairsq, sumsq) in blocks():
        for d, spike_k in enumerate(spikes):
            k = k0 + d
            if x.shape[0] == 0:
                out[k, :] = -np.inf
                continue
            z = np.random.default_rng(derive_seed(seed, k, 1) & _MASK64).standard_normal(n)
            parts = (q_w[d], s_parts[d])
            xz = x @ z
            xsp = x @ spike_k
            for c, t in enumerate(t_values):
                side = (
                    math.sqrt((1.0 - t) * r) * xz
                    + (1.0 - t) * s * xsp
                    - (1.0 - t) * r / 2.0 * sumsq
                )
                out[k, c] = _logsumexp(logw + _neg_energy(parts, pairsq, t * lam, n) + side) / n
    return out


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
    budget: int = DEFAULT_BUDGET,
) -> McEstimate:
    """Path free entropy phi(t), optionally overlap-restricted or fixed-spike.

    restricted is an optional (m_window, eps) pair selecting configurations
    with R_{1,*} in [m_window, m_window + eps); spike fixes the planted
    vector instead of resampling it per disorder draw.  An unreachable
    window yields the -inf sentinel.
    """
    vals = _phi_t_draws(
        p, n, lam, q, m, [t], n_disorder, seed, restricted=restricted, spike=spike, budget=budget
    )[:, 0]
    if not np.isfinite(vals).all():
        return McEstimate(float("-inf"), 0.0, n_disorder, int(seed), empty_window=True)
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
    c_val = lam * support_bound(p) ** 4
    phis = _phi_t_draws(p, n, lam, q, q, t_grid, n_disorder, seed, budget=budget)
    dt = np.diff(np.asarray(t_grid))
    slopes = np.diff(phis, axis=1) / dt
    slope_mean = slopes.mean(axis=0)
    if n_disorder > 1:
        slope_se = slopes.std(axis=0, ddof=1) / math.sqrt(n_disorder)
    else:
        slope_se = np.zeros_like(slope_mean)
    bound = lam * q * q / 4.0 + c_val / n
    margins = slope_mean + bound + 3.0 * slope_se
    worst = int(np.argmin(margins))
    return VerificationReport(
        check="guerra_slope",
        params={
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
        slack=float(margins[worst]),
        stderr=float(slope_se[worst]),
        allowance=float(bound + 3.0 * slope_se[worst]),
        passed=bool(margins[worst] >= 0.0),
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
    ev: ChannelEvaluator | None = None,
) -> VerificationReport:
    """Interpolation upper bound on the Franz-Parisi potential.

    Draws one spike from the prior, estimates Phi_eps(m, x*) over the matrix
    disorder, and checks it against inf_q F_hat(lam, m, q, x*) + lam eps^2/2
    plus the calibration allowance C/N + 3 stderr (C = lam K^4).  The inf
    over q in [0, K^2 + 1] is the saddle's exact inner minimization, averaged
    over the spike's empirical law.  An unreachable window produces a skipped
    (vacuously passing) report.
    """
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
        return VerificationReport(
            check="fp_upper", params=params, slack=float("inf"),
            stderr=0.0, allowance=0.0, passed=True,
        )

    K = support_bound(p)
    values, counts = np.unique(spike, return_counts=True)
    q_min, rhs_min, _ = _inner_min(p, lam, np.array([float(m)]), K**2 + 1.0, ev, (values, counts / n))
    q_min, rhs_min = float(q_min[0]), float(rhs_min[0])
    allowance = lam * eps * eps / 2.0 + lam * K**4 / n + 3.0 * lhs.stderr
    slack = rhs_min + allowance - lhs.mean
    params.update({"q_min": q_min, "rhs_min": rhs_min, "lhs_mean": lhs.mean})
    return VerificationReport(
        check="fp_upper",
        params=params,
        slack=float(slack),
        stderr=lhs.stderr,
        allowance=float(allowance),
        passed=bool(slack >= 0.0),
    )
