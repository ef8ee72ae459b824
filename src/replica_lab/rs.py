"""Replica-symmetric potential, Franz-Parisi saddle, and derived curves.

Two variational formulas are computed and compared here:

    phi_rs(lambda)  = sup_{q >= 0} [ psi(lambda q) - lambda q^2 / 4 ],
    saddle(lambda)  = sup_m inf_{q >= 0} [ psi_bar(lambda q, lambda m)
                                           - lambda m^2 / 2 + lambda q^2 / 4 ],

together with the stationarity fixed point q = 2 psi'(lambda q) (state
evolution), the limiting mutual information lambda/4 E[X^2]^2 - phi_rs, the
per-entry matrix MMSE E[X^2]^2 - q*^2, and the location of the smallest SNR
with a nontrivial optimizer.

phi_rs locates its optimizer on a grid of exact values at GRID_RESOLUTION (the
safeguard against multimodality, which genuinely occurs for sparse priors)
followed by golden-section refinement inside each grid local maximum's
bracket.  The local maxima of F are the stable fixed points of state
evolution, at most a few and far apart, so the grid is not priced in full: a
strided pass finds the coarse local maxima, and only the fine windows around
them and at both ends are evaluated (tests/test_rs.py holds the result to the
full scan's bits).  The fine grid and the golden refinement stay because they
define the result, and the benchmark's guerra_slope|2 item pins
phi_rs(p, 2).optimizer_q to the last bit.

The saddle works on derivatives instead.  psi_hat_grad gives F_bar with its
exact partial derivatives in m and q (those of the quadrature rule itself).
The inner inf over q takes every sign change of d_q F_bar on a coarse q row,
polishes it as a root, and keeps the least exact value.  By the envelope
theorem the outer profile inf_q F_bar has slope d_m F_bar at the inner
minimizer, so the outer sup takes the sign changes of that slope on a coarse
m grid and polishes them the same way; every candidate is priced exactly.  A
simple root pins m* to near machine precision, and nothing is cached between
calls, so a result depends only on its arguments.  The same inner
minimization, averaged over a spike's empirical law instead of the prior,
gives inf_q F_hat for the fixed-spike bound in interpolation.fp_upper_check.

When the prior is sign-symmetric (its (v, w) atoms are those of (-v, w)),
psi_hat(r, s) is even in s, so F_bar is even in m and its planted average
needs only |x*|.  _planted_law then folds the law of x* (the prior's or a
spike's) to |x*|, and saddle solves only m >= 0 and mirrors each candidate.
phi_rs and psi do not fold, although the same symmetry would halve their
tilts: the benchmark's guerra_slope|2 item pins phi_rs(p, 2).optimizer_q to
the last bit, and a fold moves its last bits.  psi_prime and state evolution
do not fold because it would not pay: an SE iteration prices two or three
points and costs 85-110 us for the two- and three-atom catalog priors, mostly
per-call overhead, and folding inside psi_prime (the folded law re-derived per
call, as _planted_law does) made it 1-19 us slower; only uniform:21 gained
(510 -> 360 us).  Measured at 61 nodes on a 2-CPU Xeon, numpy 2.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelEvaluator,
    _resolve,
    psi_array,
    psi_hat_array,  # noqa: F401  (tracing code reads it as rs.psi_hat_array)
    psi_hat_grad,
    psi_prime,
)
from .errors import DomainError, InvalidArgumentError, NumericalError
from .priors import Prior, second_moment

GRID_RESOLUTION = 1e-3
REFINE_XTOL = 1e-8
TIE_TOL = 1e-10
_STRIDE = 16  # phi_rs's coarse pass takes every _STRIDE-th grid point
_LAM_CAP = 64.0  # critical_lambda's search ceiling

# The saddle's coarse grids; the offset of their probe points next to a
# symmetry point, relative to the grid's extent; the root polish's tolerances
# (_ROOT_FTOL per unit of lambda, the scale of both derivatives).
_M_POINTS = 17
_Q_POINTS = 9
_PROBE = 1e-4
_ROOT_XTOL = 1e-13
_ROOT_FTOL = 1e-14
_ROOT_MAX_ITER = 100

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PotentialResult:
    """An optimized potential value with its optimizer(s) and scan diagnostics.

    For phi_rs, local_optima holds (q, value) for every local maximum of the
    grid scan after refinement and optimizer_m is None.  For the saddle,
    local_optima holds (m, value) for every candidate of the outer
    maximization, optimizer_q is the inner minimizer at the reported m, and
    grid_resolution is the step of the coarse m grid.
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


def _golden_max(f, a: float, b: float):
    """Golden-section maximizer on [a, b] to REFINE_XTOL; returns (x, f(x)).

    Assumes unimodality inside the bracket; phi_rs provides brackets from a
    grid scan so a wrong assumption costs accuracy only, never a crash.
    """
    h = b - a
    if h <= REFINE_XTOL:
        x = 0.5 * (a + b)
        return x, f(x)
    n = max(1, int(math.ceil(math.log(REFINE_XTOL / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def _local_max_indices(vals: np.ndarray) -> list:
    """Indices of local maxima, collapsing flat runs to their left end.

    A NaN is never a local maximum, and neither is a point next to one.
    """
    left_ok = np.r_[True, vals[1:] >= vals[:-1]]
    right_ok = np.r_[vals[:-1] >= vals[1:], True]
    idx = []
    for i in np.flatnonzero(left_ok & right_ok).tolist():
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


def _rs_values(p: Prior, lam: float, q_scan: np.ndarray, ev) -> np.ndarray:
    """F(lambda, q) on a grid, chunked to bound quadrature memory."""
    out = np.empty_like(q_scan)
    cost = max(1, p.values.size**2 * _resolve(ev).node_count)
    chunk = max(16, int(4_000_000 / cost))
    for i in range(0, len(q_scan), chunk):
        qs = q_scan[i : i + chunk]
        out[i : i + chunk] = psi_array(ev, p, lam * qs) - lam * qs * qs / 4.0
    return out


def phi_rs(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> PotentialResult:
    """phi_RS(lambda) = sup_{q in [0, E[X^2]]} F(lambda, q).

    The optimizer is defined on the grid of GRID_RESOLUTION steps: golden
    refinement of every grid local maximum's bracket [q_{i-1}, q_{i+1}], all
    local optima recorded.  Value ties within 1e-10 resolve toward larger q
    (the informative branch at a first-order transition).

    The grid is priced in two passes.  A coarse pass evaluates every
    _STRIDE-th point, both ends included.  Fine windows then fill the grid
    from coarse neighbour to coarse neighbour around each coarse local
    maximum, and over the first and last coarse intervals: at small lambda a
    sparse prior can hold a local maximum next to q = 0 behind a dip narrower
    than the stride (sparse:0.02 at lambda = 1 has one worth 4e-17 behind a
    dip of 8e-10).  A grid point counts as a local maximum only when both its
    neighbours were evaluated or it is a grid end.  Away from the ends this
    finds the full scan's local maxima when the rises and dips between them
    are wider than a stride, as for the few, far-apart stable fixed points
    q = 2 psi'(lambda q).
    """
    _check_lambda(lam)
    m2 = second_moment(p)
    if lam == 0.0 or m2 == 0.0:
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)])
    npts = max(2, int(round(m2 / GRID_RESOLUTION)) + 1)
    q_scan = np.linspace(0.0, m2, npts)
    coarse = np.unique(np.r_[0:npts:_STRIDE, npts - 1])
    vals = np.full(npts, np.nan)  # NaN: not evaluated
    vals[coarse] = _rs_values(p, lam, q_scan[coarse], ev)
    # The fine windows run from coarse neighbour to coarse neighbour around
    # every coarse local maximum and around both ends.
    last = coarse.size - 1
    fine = np.zeros(npts, dtype=bool)
    for j in [0, last] + _local_max_indices(vals[coarse]):
        fine[coarse[max(j - 1, 0)] : coarse[min(j + 1, last)] + 1] = True
    fine[coarse] = False
    vals[fine] = _rs_values(p, lam, q_scan[fine], ev)

    v_max, v_min = np.nanmax(vals), np.nanmin(vals)
    if v_max - v_min <= 1e-13 * max(1.0, abs(v_max)):
        # Flat potential: every q is optimal, report q = 0.
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)])

    def f(q):
        return rs_potential(p, lam, q, ev)

    optima = []
    for i in _local_max_indices(vals):
        a = q_scan[max(i - 1, 0)]
        b = q_scan[min(i + 1, npts - 1)]
        q_c, v_c = _golden_max(f, a, b)
        # The bracket interior can undershoot the grid point itself.
        v_grid = f(float(q_scan[i]))
        if v_grid > v_c:
            q_c, v_c = float(q_scan[i]), v_grid
        optima.append((float(q_c), float(v_c)))

    best_val = max(v for _, v in optima)
    candidates = [(q, v) for q, v in optima if v >= best_val - TIE_TOL]
    q_star, value = max(candidates, key=lambda t: t[0])
    return PotentialResult(value, q_star, None, sorted(optima))


# ----------------------------------------------------------------------
# Franz-Parisi potential in the (m, q) plane and the saddle formula
# ----------------------------------------------------------------------

def f_bar(p: Prior, lam: float, m: float, q: float, ev: ChannelEvaluator | None = None) -> float:
    """F_bar(lambda, m, q) = psi_bar(lambda q, lambda m) - lambda m^2/2 + lambda q^2/4."""
    _check_lambda(lam)
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    return float(_f_bar_grad(p, lam, m, q, ev, _planted_law(p))[0])


def f_hat(p: Prior, lam: float, m: float, q: float, spike, ev: ChannelEvaluator | None = None) -> float:
    """Fixed-spike potential (1/n) sum_i psi_hat(lambda q, lambda m x*_i) - lambda m^2/2 + lambda q^2/4.

    This is F_bar with x* drawn from the spike's empirical law.
    """
    _check_lambda(lam)
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    spike = np.asarray(spike, dtype=np.float64)
    values, counts = np.unique(spike, return_counts=True)
    return float(_f_bar_grad(p, lam, m, q, ev, _planted_law(p, (values, counts / spike.size)))[0])


def _sign_symmetric(p: Prior) -> bool:
    """Whether the multiset of p's (v, w) atoms equals the multiset of (-v, w)."""
    return sorted(p.atoms) == sorted((-v, w) for v, w in p.atoms)


def _planted_law(p: Prior, law=None):
    """The law (values, weights) of x* that F_bar averages over, folded to |x*| when p is sign-symmetric.

    law is the prior's by default; a spike's empirical law gives F_hat
    instead.  For a sign-symmetric p, psi_hat(r, s) and its d_r are even in s
    and d_s is odd, so the value, d_q and the x* d_s(r, lambda m x*) term of
    d_m depend on x* only through |x*|: merging the weights of x* and -x* is
    exact, and the kernel prices about half as many tilts.
    """
    values, weights = (p.values, p.weights) if law is None else law
    if not _sign_symmetric(p):
        return values, weights
    folded, inverse = np.unique(np.abs(values), return_inverse=True)
    return folded, np.bincount(inverse, weights)


def _f_bar_grad(p: Prior, lam: float, m, q, ev, law):
    """F_bar with its exact partial derivatives, (value, d_m, d_q), over broadcast m and q.

    law is the planted law (values, weights).  Callers pass it through
    _planted_law, which folds it to |x*| for a sign-symmetric prior; folded
    or not, the result is the same up to rounding.
    """
    values, weights = law
    m, q = np.broadcast_arrays(np.asarray(m, dtype=np.float64), np.asarray(q, dtype=np.float64))
    val, d_r, d_s = psi_hat_grad(ev, p, lam * q[..., None], (lam * m)[..., None] * values)
    value = val @ weights - lam * m * m / 2.0 + lam * q * q / 4.0
    d_m = lam * (d_s @ (weights * values)) - lam * m
    d_q = lam * (d_r @ weights) + lam * q / 2.0
    return value, d_m, d_q


def _bracketed_roots(f, a, b, fa, fb, ftol: float) -> np.ndarray:
    """Roots of f in the brackets [a_k, b_k], all brackets at once.

    f(k, x) evaluates the function of brackets k at points x; fa and fb are
    its values at the ends, of opposite signs.  Regula falsi with the
    Anderson-Bjorck scaling of the value kept at a stale end; a secant point
    that lands on an end is replaced by the midpoint.  A bracket stops once
    it is narrower than _ROOT_XTOL or its newest point has |f| <= ftol, where
    the sign of f is rounding noise.
    """
    a, b, fa, fb = (np.array(x, dtype=np.float64) for x in (a, b, fa, fb))
    for _ in range(_ROOT_MAX_ITER):
        live = np.flatnonzero((np.abs(b - a) > _ROOT_XTOL) & (np.abs(fb) > ftol))
        if live.size == 0:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        c = bl - fbl * (bl - al) / (fbl - fal)
        c = np.where((c == al) | (c == bl) | ~np.isfinite(c), 0.5 * (al + bl), c)
        fc = f(live, c)
        stale = fc * fbl > 0.0  # the root stays between a and c
        shrink = 1.0 - fc / fbl
        a[live] = np.where(stale, al, bl)
        fa[live] = np.where(stale, np.where(shrink > 0.0, shrink, 0.5) * fal, fbl)
        b[live], fb[live] = c, fc
    return b


def _local_maxima(grid: np.ndarray, slope: np.ndarray, f, ftol: float):
    """Local maximizers of functions sampled on a grid, from their derivative.

    slope holds the derivative of each row's function on the grid; f(k, x)
    evaluates the derivative of the rows of brackets k at points x.  The
    candidates are the grid points where |slope| <= ftol (stationary, as a
    symmetry point is), the first point where the function falls from it and
    the last where it rises to it, and the plus-to-minus sign changes between
    grid points, polished by _bracketed_roots.  Stationary points closer
    together than one grid step can hide each other.  Returns (rows, points).
    """
    sign = np.where(np.abs(slope) <= ftol, 0.0, np.sign(slope))
    rows, cols = np.nonzero((sign[:, :-1] > 0) & (sign[:, 1:] < 0))
    roots = _bracketed_roots(
        lambda k, x: f(rows[k], x),
        grid[cols], grid[cols + 1], slope[rows, cols], slope[rows, cols + 1], ftol,
    )
    flat = sign == 0
    flat[:, 0] |= sign[:, 0] < 0
    flat[:, -1] |= sign[:, -1] > 0
    rows_flat, cols_flat = np.nonzero(flat)
    return np.concatenate([rows, rows_flat]), np.concatenate([roots, grid[cols_flat]])


def _inner_min(p: Prior, lam: float, m: np.ndarray, q_max: float, ev, law=None):
    """Global minimum of q -> F_bar(lambda, m, q) on [0, q_max] for each m.

    Returns (q_bar, value, d_m F_bar at q_bar), each of m's shape; law is
    the planted law as _planted_law takes it (the prior's by default), folded
    here once per call.  The local minima found by _local_maxima on a coarse
    q row are priced exactly and each m keeps the least.  The row has a point
    just off q = 0, where d_q F_bar vanishes at m = 0 by symmetry, so that
    the sign beside it decides.
    """
    law = _planted_law(p, law)
    q_row = np.union1d(np.linspace(0.0, q_max, _Q_POINTS), [_PROBE * q_max])
    _, _, d_q = _f_bar_grad(p, lam, m[:, None], q_row, ev, law)
    owner, q_cand = _local_maxima(
        q_row, -d_q, lambda k, q: -_f_bar_grad(p, lam, m[k], q, ev, law)[2], _ROOT_FTOL * lam
    )
    value, d_m, _ = _f_bar_grad(p, lam, m[owner], q_cand, ev, law)
    order = np.lexsort((value, owner))
    best = order[np.searchsorted(owner[order], np.arange(m.size))]
    return q_cand[best], value[best], d_m[best]


def f_bar_inner_min(
    p: Prior, lam: float, m: float, ev: ChannelEvaluator | None = None, q_max: float | None = None
):
    """Exact inner minimization q -> F_bar(lambda, m, q) on [0, q_max].

    Returns (q_bar, value).  Every local minimum found on a coarse q row is
    polished as a root of d_q F_bar and priced exactly; the least value wins.
    The minimizer is uniformly bounded in m (differentiate in q), which
    motivates the default search ceiling q_max = E[X^2] + 1.
    """
    _check_lambda(lam)
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m}")
    if q_max is None:
        q_max = second_moment(p) + 1.0
    q_bar, value, _ = _inner_min(p, lam, np.array([float(m)]), q_max, ev)
    return float(q_bar[0]), float(value[0])


def saddle(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> PotentialResult:
    """sup_{m in [-E[X^2], E[X^2]]} inf_{q in [0, E[X^2]+1]} F_bar(lambda, m, q).

    By the envelope theorem the outer profile g(m) = inf_q F_bar has slope
    g'(m) = d_m F_bar(m, q_bar(m)), with q_bar from an exact inner
    minimization.  The local maxima of g come from _local_maxima on a coarse
    m grid, which has points just off m = 0, where g' vanishes for
    sign-symmetric priors; each is priced exactly and recorded, and value
    ties within 1e-9 (the +-m* of a sign-symmetric prior) resolve to the
    largest m.  grid_resolution reports the coarse grid's step.

    For a sign-symmetric prior g is even in m (see _planted_law), so only the
    half grid m >= 0, with the same step and the probe at +_PROBE E[X^2], is
    solved, and every candidate m > 0 is mirrored to -m with the same inner
    minimizer and value; local_optima and the tie rule see both signs.
    """
    _check_lambda(lam)
    m2 = second_moment(p)
    step = 2.0 * m2 / (_M_POINTS - 1)
    if lam == 0.0 or m2 == 0.0:
        return PotentialResult(0.0, 0.0, 0.0, [(0.0, 0.0)], step)
    q_max = m2 + 1.0
    symmetric = _sign_symmetric(p)
    if symmetric:
        m_grid = m2 * np.union1d(np.linspace(0.0, 1.0, _M_POINTS // 2 + 1), [_PROBE])
    else:
        m_grid = m2 * np.union1d(np.linspace(-1.0, 1.0, _M_POINTS), [-_PROBE, _PROBE])

    inner = {}  # m -> (q_bar, value): every candidate is a point already solved

    def slope_at(m):
        q_bar, value, d_m = _inner_min(p, lam, m, q_max, ev)
        inner.update(zip(m.tolist(), zip(q_bar.tolist(), value.tolist())))
        return d_m

    slope = slope_at(m_grid)
    _, m_cand = _local_maxima(m_grid, slope[None, :], lambda k, m: slope_at(m), _ROOT_FTOL * lam)
    q_cand, v_cand = np.array([inner[m] for m in m_cand.tolist()]).T
    if symmetric:
        mirror = m_cand > 0.0
        m_cand = np.r_[m_cand, -m_cand[mirror]]
        q_cand, v_cand = np.r_[q_cand, q_cand[mirror]], np.r_[v_cand, v_cand[mirror]]
    optima = [(float(m), float(v)) for m, v in zip(m_cand, v_cand)]

    tied = np.flatnonzero(v_cand >= v_cand.max() - max(TIE_TOL, 1e-9))
    k = tied[np.argmax(m_cand[tied])]
    return PotentialResult(float(v_cand[k]), float(q_cand[k]), float(m_cand[k]), sorted(optima), step)


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
    """Iterate q <- 2 psi'(lambda q) from q0 until |delta q| <= tol, at most max_iter times."""
    _check_lambda(lam)
    m2 = second_moment(p)
    if not 0.0 <= q0 <= m2:
        raise InvalidArgumentError(f"q0 must lie in [0, {m2}], got {q0}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    if not max_iter >= 1:
        raise InvalidArgumentError(f"max_iter must be >= 1, got {max_iter}")
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
) -> float:
    """Smallest lambda with q*(lambda) > delta, by doubling plus bisection up to _LAM_CAP."""
    if not 0.0 < delta <= 0.1:
        raise InvalidArgumentError(f"delta must lie in (0, 0.1], got {delta}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")

    def q_star(lam):
        return phi_rs(p, lam, ev).optimizer_q

    lo, hi = 0.0, 1.0
    while q_star(hi) <= delta:
        lo = hi
        hi *= 2.0
        if hi > _LAM_CAP:
            raise NumericalError(
                f"no transition: q* stayed <= {delta} up to lambda = {_LAM_CAP}"
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
