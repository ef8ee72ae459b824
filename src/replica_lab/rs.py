"""Replica-symmetric potential, Franz-Parisi saddle, and derived curves.

Two variational formulas are computed and compared here:

    phi_rs(lambda)  = sup_{q >= 0} [ psi(lambda q) - lambda q^2 / 4 ],
    saddle(lambda)  = sup_m inf_{q >= 0} [ psi_bar(lambda q, lambda m)
                                           - lambda m^2 / 2 + lambda q^2 / 4 ],

together with the stationarity fixed point q = 2 psi'(lambda q) (state
evolution), the limiting mutual information lambda/4 E[X^2]^2 - phi_rs, the
per-entry matrix MMSE E[X^2]^2 - q*^2, and the location of the smallest SNR
with a nontrivial optimizer.

Optimizers are located by a coarse grid scan (the safeguard against
multimodality, which genuinely occurs for sparse priors) followed by
golden-section refinement inside the winning bracket.  The saddle search
additionally runs against a cubic-spline surrogate of psi_hat so that the
dense m-grid stays cheap for many-atom priors; every reported optimizer and
value is re-evaluated and re-refined with exact quadrature afterwards, so the
surrogate only ever influences bracket selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .channel import (
    ChannelEvaluator,
    _resolve,
    psi_array,
    psi_bar_array,
    psi_hat_array,
    psi_prime,
)
from .errors import DomainError, InvalidArgumentError, NumericalError
from .priors import Prior, second_moment, support_bound

GRID_RESOLUTION = 1e-3
REFINE_XTOL = 1e-8
TIE_TOL = 1e-10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PotentialResult:
    """An optimized potential value with its optimizer(s) and scan diagnostics.

    For phi_rs, local_optima holds (q, value) for every local maximum of the
    grid scan after refinement and optimizer_m is None.  For the saddle,
    local_optima holds (m, value) for the outer maximization and optimizer_q
    is the inner minimizer at the reported m.
    """

    value: float
    optimizer_q: float
    optimizer_m: float | None = None
    local_optima: list = field(default_factory=list)
    grid_resolution: float = GRID_RESOLUTION


@dataclass(frozen=True)
class SETrace:
    """State-evolution iterates q_{t+1} = 2 psi'(lambda q_t)."""

    iterates: list
    converged: bool
    fixed_point: float


def golden_section_min(f, a: float, b: float, xtol: float = REFINE_XTOL):
    """Golden-section minimizer on [a, b]; returns (x, f(x)).

    Assumes unimodality inside the bracket; callers provide brackets from a
    grid scan so a wrong assumption costs accuracy only, never a crash.
    """
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = max(1, int(math.ceil(math.log(xtol / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def golden_section_max(f, a: float, b: float, xtol: float = REFINE_XTOL):
    x, y = golden_section_min(lambda t: -f(t), a, b, xtol)
    return x, -y


def _local_max_indices(vals: np.ndarray) -> list:
    """Indices of local maxima, collapsing flat runs to their left end."""
    n = len(vals)
    idx = []
    for i in range(n):
        left_ok = i == 0 or vals[i] >= vals[i - 1]
        right_ok = i == n - 1 or vals[i] >= vals[i + 1]
        if left_ok and right_ok:
            if idx and idx[-1] == i - 1 and vals[i] == vals[i - 1]:
                continue  # same plateau, keep the left end
            idx.append(i)
    return idx


def _check_lambda(lam: float):
    if not (math.isfinite(lam) and lam >= 0):
        raise DomainError(f"lambda must be finite and >= 0, got {lam}")


# ----------------------------------------------------------------------
# RS potential and its supremum
# ----------------------------------------------------------------------

def rs_potential(p: Prior, lam: float, q: float, ev: ChannelEvaluator | None = None) -> float:
    """F(lambda, q) = psi(lambda q) - lambda q^2 / 4."""
    _check_lambda(lam)
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    return float(psi_array(ev, p, lam * q)) - lam * q * q / 4.0


def _rs_values(p: Prior, lam: float, q_grid: np.ndarray, ev) -> np.ndarray:
    """F(lambda, q) on a grid, chunked to bound quadrature memory."""
    out = np.empty_like(q_grid)
    cost = max(1, p.values.size**2 * _resolve(ev).node_count)
    chunk = max(16, int(4_000_000 / cost))
    for i in range(0, len(q_grid), chunk):
        qs = q_grid[i : i + chunk]
        out[i : i + chunk] = psi_array(ev, p, lam * qs) - lam * qs * qs / 4.0
    return out


def phi_rs(
    p: Prior,
    lam: float,
    ev: ChannelEvaluator | None = None,
    grid_res: float = GRID_RESOLUTION,
    refine_xtol: float = REFINE_XTOL,
) -> PotentialResult:
    """phi_RS(lambda) = sup_{q in [0, E[X^2]]} F(lambda, q).

    Grid scan at grid_res, golden refinement of every local maximum's
    bracket, all local optima recorded.  Value ties within 1e-10 resolve
    toward larger q (the informative branch at a first-order transition).
    """
    _check_lambda(lam)
    m2 = second_moment(p)
    if lam == 0.0 or m2 == 0.0:
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)], grid_res)
    npts = max(2, int(round(m2 / grid_res)) + 1)
    q_grid = np.linspace(0.0, m2, npts)

    # Many-atom priors scan against the spline surrogate (bracket selection
    # only; refinement below is exact quadrature either way).
    evr = _resolve(ev)
    if p.values.size**2 * evr.node_count > 8000:
        sur = _surrogate_for(evr, p, lam * m2, lam * m2 * support_bound(p) + 1e-9)
        r = lam * q_grid
        vals = (
            sur.psi_hat(
                np.repeat(r, p.values.size), np.outer(r, p.values).ravel()
            ).reshape(npts, p.values.size)
            @ p.weights
            - lam * q_grid**2 / 4.0
        )
    else:
        vals = _rs_values(p, lam, q_grid, ev)

    spread = vals.max() - vals.min()
    if spread <= 1e-13 * max(1.0, abs(vals.max())):
        # Flat potential: every q is optimal, report q = 0.
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)], grid_res)

    def f(q):
        return rs_potential(p, lam, q, ev)

    optima = []
    for i in _local_max_indices(vals):
        a = q_grid[max(i - 1, 0)]
        b = q_grid[min(i + 1, npts - 1)]
        q_c, v_c = golden_section_max(f, a, b, refine_xtol)
        # The bracket interior can undershoot the grid point itself.
        v_grid = f(float(q_grid[i]))
        if v_grid > v_c:
            q_c, v_c = float(q_grid[i]), v_grid
        optima.append((float(q_c), float(v_c)))

    best_val = max(v for _, v in optima)
    candidates = [(q, v) for q, v in optima if v >= best_val - TIE_TOL]
    q_star, value = max(candidates, key=lambda t: t[0])
    return PotentialResult(value, q_star, None, sorted(optima), grid_res)


# ----------------------------------------------------------------------
# Franz-Parisi potential in the (m, q) plane and the saddle formula
# ----------------------------------------------------------------------

def f_bar(p: Prior, lam: float, m: float, q: float, ev: ChannelEvaluator | None = None) -> float:
    """F_bar(lambda, m, q) = psi_bar(lambda q, lambda m) - lambda m^2/2 + lambda q^2/4."""
    _check_lambda(lam)
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    return (
        float(psi_bar_array(ev, p, lam * q, lam * m))
        - lam * m * m / 2.0
        + lam * q * q / 4.0
    )


def f_hat(p: Prior, lam: float, m: float, q: float, spike, ev: ChannelEvaluator | None = None) -> float:
    """Fixed-spike potential (1/n) sum_i psi_hat(lambda q, lambda m x*_i) - lambda m^2/2 + lambda q^2/4."""
    _check_lambda(lam)
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    spike = np.asarray(spike, dtype=np.float64)
    vals, counts = np.unique(spike, return_counts=True)
    site_avg = float(
        psi_hat_array(_resolve(ev), p, np.full_like(vals, lam * q), lam * m * vals)
        @ (counts / spike.size)
    )
    return site_avg - lam * m * m / 2.0 + lam * q * q / 4.0


class _PsiHatSurrogate:
    """Cubic-spline table of psi_hat over [0, r_max] x [-s_max, s_max].

    Used only to steer the saddle search; reported numbers are recomputed
    with exact quadrature.  The 0.05 grid step keeps the interpolation error
    a couple of orders below the 1e-4 equivalence tolerance it must protect.
    """

    STEP = 0.05

    def __init__(self, ev: ChannelEvaluator, p: Prior, r_max: float, s_max: float):
        self.r_max = r_max
        self.s_max = s_max
        nr = max(int(math.ceil(r_max / self.STEP)) + 1, 8)
        ns = 2 * max(int(math.ceil(s_max / self.STEP)), 4) + 1
        r_grid = np.linspace(0.0, r_max, nr)
        s_grid = np.linspace(-s_max, s_max, ns)
        vals = np.empty((nr, ns))
        cost = max(1, p.values.size * ev.node_count * ns)
        chunk = max(1, int(6_000_000 / cost))
        for i in range(0, nr, chunk):
            rr = r_grid[i : i + chunk]
            vals[i : i + chunk] = psi_hat_array(ev, p, rr[:, None], s_grid[None, :])
        self._spline = RectBivariateSpline(r_grid, s_grid, vals, kx=3, ky=3, s=0)

    def psi_hat(self, r, s):
        return self._spline.ev(r, s)

    def f_bar(self, p: Prior, lam: float, m, q):
        m = np.asarray(m, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        m_b, q_b = np.broadcast_arrays(m, q)
        r = (lam * q_b)[..., None] * np.ones_like(p.values)
        s = (lam * m_b)[..., None] * p.values
        vals = self._spline.ev(r.ravel(), s.ravel()).reshape(r.shape)
        return vals @ p.weights - lam * m_b**2 / 2.0 + lam * q_b**2 / 4.0

    def f_bar_table(self, p: Prior, lam: float, m_vec: np.ndarray, q_vec: np.ndarray):
        """F_bar on the full m x q product grid, shape (len(m_vec), len(q_vec)).

        The query set is a product, so the spline's fast grid evaluation
        applies after deduplicating the lam * m * atom tilt values.
        """
        r = lam * q_vec
        s_flat = lam * np.outer(m_vec, p.values).ravel()
        s_uniq, inv = np.unique(s_flat, return_inverse=True)
        table = self._spline(r, s_uniq, grid=True)  # (Q, S)
        vals = table[:, inv].reshape(q_vec.size, m_vec.size, p.values.size) @ p.weights
        return vals.T - (lam * m_vec**2 / 2.0)[:, None] + (lam * q_vec**2 / 4.0)[None, :]


_SURROGATES: dict = {}


def _surrogate_for(ev: ChannelEvaluator, p: Prior, r_max: float, s_max: float) -> _PsiHatSurrogate:
    key = (p.atoms, ev.node_count)
    cur = _SURROGATES.get(key)
    if cur is None or cur.r_max < r_max or cur.s_max < s_max:
        r_build = max(r_max, 13.0)
        s_build = max(s_max, 13.0)
        if cur is not None:
            r_build = max(r_build, 1.3 * r_max)
            s_build = max(s_build, 1.3 * s_max)
        cur = _PsiHatSurrogate(ev, p, r_build, s_build)
        _SURROGATES[key] = cur
    return cur


def f_bar_inner_min(
    p: Prior,
    lam: float,
    m: float,
    ev: ChannelEvaluator | None = None,
    q_max: float | None = None,
    coarse: int = 65,
    refine_xtol: float = REFINE_XTOL,
):
    """Exact inner minimization q -> F_bar(lambda, m, q) on [0, q_max].

    Returns (q_bar, value).  Grid scan plus golden refinement in the winning
    bracket; the minimizer is uniformly bounded in m (differentiate in q),
    which motivates the default
    search ceiling q_max = E[X^2] + 1.
    """
    _check_lambda(lam)
    if q_max is None:
        q_max = second_moment(p) + 1.0
    q_grid = np.linspace(0.0, q_max, coarse)
    vals = (
        psi_bar_array(ev, p, lam * q_grid, np.full_like(q_grid, lam * m))
        - lam * m * m / 2.0
        + lam * q_grid**2 / 4.0
    )
    i = int(np.argmin(vals))
    a = q_grid[max(i - 1, 0)]
    b = q_grid[min(i + 1, coarse - 1)]
    q_c, v_c = golden_section_min(lambda q: f_bar(p, lam, m, q, ev), float(a), float(b), refine_xtol)
    if vals[i] < v_c:
        q_c, v_c = float(q_grid[i]), float(vals[i])
    return q_c, v_c


def saddle(
    p: Prior,
    lam: float,
    ev: ChannelEvaluator | None = None,
    grid_res: float = GRID_RESOLUTION,
    refine_xtol: float = REFINE_XTOL,
) -> PotentialResult:
    """sup_{m in [-E[X^2], E[X^2]]} inf_{q in [0, E[X^2]+1]} F_bar(lambda, m, q).

    Outer grid at grid_res with golden refinement; inner grid plus golden
    refinement.  The dense outer scan runs on the spline surrogate; every
    candidate maximum is then re-minimized and re-refined with exact
    quadrature.  For sign-symmetric priors the +-m* tie resolves to the
    nonnegative maximizer.
    """
    _check_lambda(lam)
    evr = _resolve(ev)
    m2 = second_moment(p)
    if lam == 0.0 or m2 == 0.0:
        return PotentialResult(0.0, 0.0, 0.0, [(0.0, 0.0)], grid_res)
    q_max = m2 + 1.0
    K = support_bound(p)

    sur = _surrogate_for(evr, p, lam * q_max, lam * m2 * K + 1e-9)
    n_m = 2 * max(1, int(round(m2 / grid_res))) + 1
    m_grid = np.linspace(-m2, m2, n_m)

    # Coarse inner scan on the surrogate product grid.  The raw per-m grid
    # minimum carries an O(h^2) bias that oscillates with m as the inner
    # minimizer crosses grid cells -- enough to drown a flat outer maximum --
    # so a three-point parabolic vertex removes it before outer bracketing.
    n_qc = 129
    q_coarse = np.linspace(0.0, q_max, n_qc)
    fb = sur.f_bar_table(p, lam, m_grid, q_coarse)
    jmin = np.argmin(fb, axis=1)
    rows = np.arange(n_m)
    f1 = fb[rows, jmin]
    f0 = fb[rows, np.maximum(jmin - 1, 0)]
    f2 = fb[rows, np.minimum(jmin + 1, n_qc - 1)]
    denom = f0 + f2 - 2.0 * f1
    interior = (jmin > 0) & (jmin < n_qc - 1) & (denom > 0)
    g_vals = f1 - np.where(interior, (f2 - f0) ** 2 / np.where(denom > 0, 8.0 * denom, 1.0), 0.0)

    def inner_min_on_spline(m: float, j: int) -> float:
        lo = float(q_coarse[max(j - 3, 0)])
        hi = float(q_coarse[min(j + 3, n_qc - 1)])
        qx, _ = golden_section_min(
            lambda q: float(sur.f_bar(p, lam, m, q)), lo, hi, xtol=1e-6
        )
        return qx

    # Outer candidates: local maxima of the debiased profile.  Each is
    # polished by golden search against the surrogate (inner minimizer
    # re-located per m), then its value is recomputed with exact quadrature;
    # the surrogate therefore only picks points, never prices them.
    cand_idx = _local_max_indices(g_vals)
    optima = []
    for i in cand_idx:
        a = m_grid[max(i - 2, 0)]
        b = m_grid[min(i + 2, n_m - 1)]
        j = int(jmin[i])

        def g_sur(m):
            return float(sur.f_bar(p, lam, m, inner_min_on_spline(m, j)))

        m_c, _ = golden_section_max(g_sur, float(a), float(b), xtol=1e-7)
        _, v_c = f_bar_inner_min(p, lam, m_c, ev, q_max, refine_xtol=refine_xtol)
        optima.append((float(m_c), float(v_c)))

    best_val = max(v for _, v in optima)
    candidates = [(m, v) for m, v in optima if v >= best_val - max(TIE_TOL, 1e-9)]
    m_star, value = max(candidates, key=lambda t: t[0])
    q_bar, value = f_bar_inner_min(p, lam, m_star, ev, q_max, refine_xtol=refine_xtol)
    return PotentialResult(float(value), float(q_bar), float(m_star), sorted(optima), grid_res)


# ----------------------------------------------------------------------
# State evolution, information curves, transition location
# ----------------------------------------------------------------------

def state_evolution(
    p: Prior,
    lam: float,
    q0: float,
    tol: float = 1e-8,
    max_iter: int = 1000,
    ev: ChannelEvaluator | None = None,
) -> SETrace:
    """Iterate q <- 2 psi'(lambda q) from q0 until |delta q| <= tol."""
    _check_lambda(lam)
    m2 = second_moment(p)
    if not 0.0 <= q0 <= m2:
        raise InvalidArgumentError(f"q0 must lie in [0, {m2}], got {q0}")
    if tol <= 0:
        raise InvalidArgumentError("tol must be > 0")
    iterates = [float(q0)]
    q = float(q0)
    converged = False
    for _ in range(max_iter):
        q_next = 2.0 * psi_prime(ev, p, lam * q)
        if not (-1e-9 <= q_next <= m2 + 1e-6):
            raise NumericalError(
                f"state evolution left [0, {m2}]: q = {q_next} (psi_prime bug?)"
            )
        q_next = min(max(q_next, 0.0), m2)
        iterates.append(float(q_next))
        if abs(q_next - q) <= tol:
            converged = True
            q = q_next
            break
        q = q_next
    return SETrace(iterates, converged, float(q))


def mutual_information(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> float:
    """Limit of I(Y; x*)/N: lambda/4 E[X^2]^2 - phi_RS(lambda)."""
    _check_lambda(lam)
    m2 = second_moment(p)
    return lam / 4.0 * m2 * m2 - phi_rs(p, lam, ev).value


def mmse_curve(p: Prior, lam_grid, ev: ChannelEvaluator | None = None) -> list:
    """Per-entry matrix MMSE E[X^2]^2 - q*(lambda)^2 along a lambda grid."""
    m2 = second_moment(p)
    out = []
    for lam in lam_grid:
        _check_lambda(lam)
        q_star = phi_rs(p, lam, ev).optimizer_q
        out.append((float(lam), m2 * m2 - q_star * q_star))
    return out


def critical_lambda(
    p: Prior,
    delta: float = 1e-3,
    tol: float = 0.01,
    ev: ChannelEvaluator | None = None,
    lam_cap: float = 64.0,
) -> float:
    """Smallest lambda with q*(lambda) > delta, by doubling plus bisection."""
    if not 0.0 < delta <= 0.1:
        raise InvalidArgumentError(f"delta must lie in (0, 0.1], got {delta}")
    if tol <= 0:
        raise InvalidArgumentError("tol must be > 0")

    def q_star(lam):
        return phi_rs(p, lam, ev).optimizer_q

    lo, hi = 0.0, 1.0
    while q_star(hi) <= delta:
        lo = hi
        hi *= 2.0
        if hi > lam_cap:
            raise NumericalError(
                f"no transition: q* stayed <= {delta} up to lambda = {lam_cap}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q_star(mid) > delta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Curve records (CSV/JSON schema shared with the CLI)
# ----------------------------------------------------------------------

CURVE_FIELDS = ("lambda", "q_star", "phi_rs", "saddle", "mi", "mmse")


def compute_curve(p: Prior, lam_values, ev: ChannelEvaluator | None = None) -> list:
    """One record per lambda with the full set of RS quantities.

    Returns dicts keyed by CURVE_FIELDS, ready for CSV/JSON serialization.
    """
    m2 = second_moment(p)
    rows = []
    for lam in lam_values:
        _check_lambda(lam)
        rs = phi_rs(p, lam, ev)
        sad = saddle(p, lam, ev)
        rows.append(
            {
                "lambda": float(lam),
                "q_star": rs.optimizer_q,
                "phi_rs": rs.value,
                "saddle": sad.value,
                "mi": lam / 4.0 * m2 * m2 - rs.value,
                "mmse": m2 * m2 - rs.optimizer_q**2,
            }
        )
    return rows
