"""Replica-symmetric potential, Franz-Parisi saddle, and derived curves.

Two variational formulas are computed and compared here:

    phi_rs(lambda)  = sup_{q >= 0} [ psi(lambda q) - lambda q^2 / 4 ],
    saddle(lambda)  = sup_m inf_{q >= 0} [ psi_bar(lambda q, lambda m)
                                           - lambda m^2 / 2 + lambda q^2 / 4 ],

together with the stationarity fixed point q = 2 psi'(lambda q) (state
evolution), the limiting mutual information lambda/4 E[X^2]^2 - phi_rs, the
per-entry matrix MMSE E[X^2]^2 - q*^2, and the location of the smallest SNR
with a nontrivial optimizer.

phi_rs is one function.  It locates its optimizer on a grid of GRID_POINTS
exact values over [0, E[X^2]] (the safeguard against multimodality, which
genuinely occurs for sparse priors), then refines each grid local maximum by
golden-section search inside its bracket and applies the tie rule.  The
local maxima of F are the stable fixed points of state evolution, at most a
few and far apart, so the grid is not priced in full: a strided pass finds
the coarse local maxima, and only the fine windows around them and at both
ends are priced (tests/test_rs.py holds the result to the full scan's bits).
The fine grid and the golden refinement stay because they define the result,
and the benchmark's guerra_slope|2 item pins phi_rs(p, 2).optimizer_q to the
last bit.  critical_lambda does not search over phi_rs: it solves for the SNR
where q = delta is a fixed point of state evolution and, at a jump, for the
SNR where two branches' values tie, and one phi_rs call says which of the two
roots q* crosses delta at.  F itself has one evaluator, _potential, at one q
or an array of them: rs_potential, phi_rs and _jump all price F there, and a
point's bits do not depend on how many points share its call.

The refinement prices several golden-section steps per kernel call, since a
call's cost is mostly fixed.  From a bracket's state the next step's point
is known, and each later point turns on one comparison, so the next k steps
can need at most 2**k - 1 points (_golden_tree), some of them equal in
float value.  One call prices each distinct one once, and the ordinary
steps then run against those values, each new point taken by its float
value, which _golden_step computes with the sequential search's own
arithmetic.  Because a point's bits do not depend on its batch, every
comparison and the result are the one-point-per-call search's bit for bit
(tests/test_rs.py keeps that search as the reference); the unused candidates
cost only kernel time.  The bracket's grid point is not priced again: its
value from the scan stands in for it.  k comes from the channel's cost
model (_golden_depth): a call costs about channel._KERNEL_FIXED + points *
A^2 G exponent values for A atoms at G nodes, so k steps cost
(R + 2**k - 1) / k per step with R = _KERNEL_FIXED / (A^2 G).  At 61 nodes
that gives 4 for two atoms, 3 for three, 2 for uniform:8 and 1 for
uniform:21, the fastest k of 1-5 for each when the refinement alone was
timed.

The saddle works on derivatives instead.  psi_hat_grad gives F_bar with its
exact partial derivatives in m and q (those of the quadrature rule itself).
The inner inf over q takes every sign change of d_q F_bar on a coarse q row,
polishes it as a root, and keeps the least value, each from the kernel call
that found it.  By the envelope theorem the outer profile inf_q F_bar has
slope d_m F_bar at the inner minimizer, so the outer sup takes the sign
changes of that slope on a coarse m grid.  Each is polished as one joint
root of (d_m F_bar, d_q F_bar) by Newton, not by a root search on the slope
whose every step is a whole inner minimization: one inner minimization
prices the root and checks that its q is the inner minimizer.  Where
Newton first leaves the bracket it restarts from the bracket's midpoint;
after that it bisects the bracket, one inner minimization per step, and
restarts from the midpoint's inner minimizer.  Only where the check fails
does regula falsi on the slope take the bracket over.
A simple root pins m* to near machine precision, and nothing is cached
between calls, so a result depends only on its arguments.  The same inner
minimization, averaged over a spike's empirical law instead of the prior,
gives inf_q F_hat for the fixed-spike bound in interpolation.fp_upper_check.

When the prior is sign-symmetric (its (v, w) atoms are those of (-v, w),
which priors._sign_symmetric decides for this layer and the finite one
alike), psi_hat(r, s) is even in s, so F_bar is even in m and its planted
average needs only |x*|.  _planted_law then folds the law of x* (the
prior's or a spike's) to |x*|, and saddle solves only m >= 0 and mirrors
each candidate.  phi_rs and psi use the same symmetry without a fold:
channel.psi_bar_array builds the rows of the tilts -r x* from the exps of
r x* (the mirrored route), which keeps every bit, since the benchmark's
guerra_slope|2 item pins phi_rs(p, 2).optimizer_q to the last bit and a
fold of the planted law moves its last bits.  State evolution's psi'
kernel still prices every planted atom, because a fold would not pay.  Its
psi' is the quadrature rule's own derivative (channel.psi_prime, the chain
rule of psi_hat_grad at the tilts r x*), from one kernel built once per run
whose per-prior constants and work block are hoisted out of the steps: a
step costs 8-9 us for the two- and three-atom catalog priors and about
70 us for uniform:21 (61 nodes, a 2-CPU AMD EPYC, numpy 2.4.6).  A fold
through _planted_law ran no faster on the three-atom priors (phase_diagram's
144 runs took 31 ms either way) and its np.unique raised the peak RSS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import priors
from .channel import (
    _KERNEL_FIXED,
    ChannelEvaluator,
    _check_scale,
    _psi_prime_kernel,
    _resolve,
    psi_bar_array,
    psi_hat_array,  # noqa: F401  (tracing code reads it as rs.psi_hat_array)
    psi_hat_grad,
)
from .errors import (
    InvalidArgumentError,
    NumericalError,
    _check_count,
    _check_finite,
    _check_nonnegative,
    _check_positive,
)
from .priors import Prior, second_moment

GRID_POINTS = 1001
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
# The saddle's joint polish: the Jacobian's forward-difference step and the
# largest gap between a joint root's q and the inner minimizer there, both
# relative to the inner search ceiling.
_JAC_STEP = 1e-7
_GUARD_QTOL = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PotentialResult:
    """An optimized potential value with its optimizer(s) and scan diagnostics.

    For phi_rs, local_optima holds (q, value) for every local maximum of the
    grid scan after refinement, optimizer_m is None, and grid_resolution is
    the q grid's step.  For the saddle,
    local_optima holds (m, value) for every candidate of the outer
    maximization, optimizer_q is the inner minimizer at the reported m, and
    grid_resolution is the step of the coarse m grid.
    """

    value: float
    optimizer_q: float
    optimizer_m: float | None = None
    local_optima: list = field(default_factory=list)
    grid_resolution: float = 0.0


@dataclass(frozen=True)
class SETrace:
    """State-evolution iterates q_{t+1} = 2 psi'(lambda q_t)."""

    iterates: list
    converged: bool
    fixed_point: float


def _golden_step(a: float, h: float, c: float, d: float, left: bool):
    """One golden-section step from the bracket [a, a + h] with interior points c < d.

    left keeps [a, d] (f(c) > f(d)), otherwise [c, a + h] is kept.  Returns
    the new (a, h, c, d) and the one new point, which needs pricing.
    """
    h *= _INVPHI
    if left:
        x = a + _INVPHI2 * h
        return a, h, x, c, x
    x = c + _INVPHI * h
    return c, h, d, x, x


def _golden_tree(a: float, h: float, c: float, d: float, left: bool, depth: int) -> list:
    """The 2**depth - 1 points that the next depth golden steps from (a, h, c, d) can price.

    The first step's direction is known (left); each later step's turns on
    the point priced just before it, so level j holds 2**j candidates.
    """
    if depth == 0:
        return []
    *state, x = _golden_step(a, h, c, d, left)
    return [x, *_golden_tree(*state, True, depth - 1), *_golden_tree(*state, False, depth - 1)]


def _golden_max(f, a: float, b: float, depth: int):
    """Golden-section maximizer on [a, b] to REFINE_XTOL: (x, f(x)).

    f prices a 1-d array of points.  The result is the sequential search's
    bit for bit (tests/test_rs.py keeps that search as the reference): the
    first call prices the two interior points, and each later call prices
    _golden_tree's distinct candidates for the next depth steps (the last
    call only up to the search's step count), which are then taken one by
    one with the sequential comparisons, each point looked up by its float
    value.  This holds because a point's value does not depend on the other
    points in its call.  Assumes unimodality inside the bracket; phi_rs
    provides brackets from a grid scan so a wrong assumption costs accuracy
    only, never a crash.
    """
    h = b - a
    if h <= REFINE_XTOL:
        x = 0.5 * (a + b)
        return x, float(f(np.array([x]))[0])
    n = max(1, int(math.ceil(math.log(REFINE_XTOL / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(np.array([c, d])).tolist()
    for done in range(0, n, depth):
        steps = min(depth, n - done)
        tree = list(dict.fromkeys(_golden_tree(a, h, c, d, yc > yd, steps)))
        values = dict(zip(tree, f(np.array(tree)).tolist()))
        for _ in range(steps):
            left = yc > yd
            a, h, c, d, x = _golden_step(a, h, c, d, left)
            yc, yd = (values[x], yc) if left else (yd, values[x])
    return (c, yc) if yc > yd else (d, yd)


def _golden_depth(p: Prior, ev) -> int:
    """How many golden steps _golden_max prices per kernel call: the k >= 1
    with the least cost per step, (R + 2**k - 1) / k (the smaller k on a
    tie), from the channel's cost model.  A point costs A tilts of A atoms
    at G nodes, so R = _KERNEL_FIXED / (A^2 G).  R counts every tilt: of the
    catalog priors' golden calls at 61 nodes only uniform:8's (3 points) and
    uniform:21's (1 point) take the mirrored route, which prices about half
    of them; R doubled for that half (2.1 -> 4.2 and 0.3 -> 0.6) gives the
    same depths, 2 and 1."""
    ratio = _KERNEL_FIXED / (p.values.size**2 * _resolve(ev).node_count)
    depth = 1
    while (ratio + 2 ** (depth + 1) - 1) / (depth + 1) < (ratio + 2**depth - 1) / depth:
        depth += 1
    return depth


def _local_max_indices(vals: np.ndarray) -> list:
    """Indices of local maxima, collapsing flat runs to their left end.

    A NaN is never a local maximum, and neither is a point next to one.
    """
    left_ok = np.r_[True, vals[1:] >= vals[:-1]]
    right_ok = np.r_[vals[:-1] >= vals[1:], True]
    idx = np.flatnonzero(left_ok & right_ok)
    # a candidate right after an equal candidate lies on its plateau
    plateau = (np.diff(idx) == 1) & (vals[idx[1:]] == vals[idx[:-1]])
    return np.delete(idx, np.flatnonzero(plateau) + 1).tolist()


# ----------------------------------------------------------------------
# RS potential and its supremum
# ----------------------------------------------------------------------

def rs_potential(p: Prior, lam: float, q: float) -> float:
    """F(lambda, q) = psi(lambda q) - lambda q^2 / 4 on the default rule; lambda and q pass _check_scale."""
    _check_nonnegative("q", q)
    _check_scale(p, lam, q)
    return float(_potential(p, lam, q, None))


def _potential(p: Prior, lam: float, q, ev):
    """F(lambda, q) at one q or an array of them, without rs_potential's checks."""
    r = lam * q
    return psi_bar_array(ev, p, r, r) - lam * q * q / 4.0


def phi_rs(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> PotentialResult:
    """phi_RS(lambda) = sup_{q in [0, E[X^2]]} F(lambda, q).

    The optimizer is defined on the grid of GRID_POINTS points, step
    E[X^2] / (GRID_POINTS - 1), so a prior's scale sets the step and not the
    cost; grid_resolution reports the step to 12 significant digits, so that
    an E[X^2] of 1 up to rounding reports 1e-3.  lambda must pass
    _check_scale at extent E[X^2] + 1.  At lambda = 0 or E[X^2] = 0 every q
    is optimal and the value is exactly psi(0) = 0, as saddle's, with
    optimizer 0.0 and nothing priced.

    Otherwise a coarse pass prices every _STRIDE-th grid point, both ends
    included.  Fine windows then fill the grid from coarse neighbour to
    coarse neighbour around each coarse local maximum, and over the first
    and last coarse intervals: at small lambda a sparse prior can hold a
    local maximum next to q = 0 behind a dip narrower than the stride
    (sparse:0.02 at lambda = 1 has one worth 4e-17 behind a dip of 8e-10).
    A grid point counts as a local maximum only when both its neighbours
    were priced or it is a grid end.  Away from the ends this finds the full
    scan's local maxima when the rises and dips between them are wider than
    a stride, as for the few, far-apart stable fixed points
    q = 2 psi'(lambda q).  A potential flat to 1e-13 leaves q = 0 alone, its
    bracket [0, 0].

    Each grid local maximum i is refined by golden search in its bracket
    [q_{i-1}, q_{i+1}], clipped to the grid, _golden_depth steps per kernel
    call after the first; the grid point's scanned value is kept where it
    beats the bracket's interior, so each refined q lies in its bracket.
    All local optima are recorded, and value ties within TIE_TOL resolve
    toward larger q (the informative branch at a first-order transition).
    """
    m2 = second_moment(p)
    _check_scale(p, lam, m2 + 1.0)
    npts = GRID_POINTS
    step = float(f"{m2 / (npts - 1):.12g}")
    if lam == 0.0 or m2 == 0.0:
        return PotentialResult(0.0, 0.0, None, [(0.0, 0.0)], step)

    def f(q):
        return _potential(p, lam, q, ev)

    q_scan = np.linspace(0.0, m2, npts)
    vals = np.full(npts, np.nan)  # NaN: not priced
    coarse = np.r_[0 : npts - 1 : _STRIDE, npts - 1]
    vals[coarse] = f(q_scan[coarse])
    top = coarse.size - 1
    fine = np.zeros(npts, dtype=bool)
    for j in [0, top] + _local_max_indices(vals[coarse]):
        fine[coarse[max(j - 1, 0)] : coarse[min(j + 1, top)] + 1] = True
    fine[coarse] = False
    vals[fine] = f(q_scan[fine])
    v_max, v_min = np.nanmax(vals), np.nanmin(vals)
    if v_max - v_min <= 1e-13 * max(1.0, abs(v_max)):
        q_scan, vals = q_scan[:1], vals[:1]  # a flat potential: q = 0 alone, its bracket [0, 0]

    depth = _golden_depth(p, ev)
    last = q_scan.size - 1
    optima = []
    for i in _local_max_indices(vals):
        q_c, v_c = _golden_max(f, q_scan[max(i - 1, 0)], q_scan[min(i + 1, last)], depth)
        # The bracket interior can undershoot the grid point itself.
        if vals[i] > v_c:
            q_c, v_c = q_scan[i], vals[i]
        optima.append((float(q_c), float(v_c)))

    best_val = max(v for _, v in optima)
    candidates = [(q, v) for q, v in optima if v >= best_val - TIE_TOL]
    q_star, value = max(candidates, key=lambda t: t[0])
    return PotentialResult(value, q_star, None, sorted(optima), step)


# ----------------------------------------------------------------------
# Franz-Parisi potential in the (m, q) plane and the saddle formula
# ----------------------------------------------------------------------

def f_bar(p: Prior, lam: float, m: float, q: float) -> float:
    """F_bar(lambda, m, q) = psi_bar(lambda q, lambda m) - lambda m^2/2 + lambda q^2/4, on the default rule.

    lambda, m and q must pass _check_scale at extent max(q, |m|).
    """
    _check_finite("m", m)
    _check_nonnegative("q", q)
    _check_scale(p, lam, max(q, abs(m)))
    return float(_f_bar_grad(p, lam, m, q, None, _planted_law(p))[0])


def f_hat(p: Prior, lam: float, m: float, q: float, spike) -> float:
    """Fixed-spike potential (1/n) sum_i psi_hat(lambda q, lambda m x*_i) - lambda m^2/2 + lambda q^2/4.

    This is F_bar with x* drawn from the spike's empirical law, on the
    default rule.  The spike is a nonempty list of finite values, and
    lambda, m, q and the spike pass _check_scale at extent max(q, |m|) with
    tilt max |x*_i|.
    """
    _check_finite("m", m)
    _check_nonnegative("q", q)
    spike = np.asarray(spike, dtype=np.float64)
    if spike.ndim != 1 or spike.size == 0 or not np.isfinite(spike).all():
        raise InvalidArgumentError(
            f"spike must be a nonempty 1-d list of finite values, got shape {spike.shape}"
        )
    _check_scale(p, lam, max(q, abs(m)), float(np.abs(spike).max()))
    return float(_f_bar_grad(p, lam, m, q, None, _planted_law(p, spike))[0])


def _planted_law(p: Prior, spike=None):
    """The law (values, weights) of x* that F_bar averages over, folded to |x*| when p is sign-symmetric.

    The law is the prior's by default; a spike's empirical law (its distinct
    values and their frequencies) gives F_hat instead.  For a sign-symmetric
    p, psi_hat(r, s) and its d_r are even in s and d_s is odd, so the value,
    d_q and the x* d_s(r, lambda m x*) term of d_m depend on x* only through
    |x*|: merging the weights of x* and -x* is exact, and the kernel prices
    about half as many tilts.
    """
    values, weights = (p.values, p.weights) if spike is None else np.unique(spike, return_counts=True)
    if spike is not None:
        weights = weights / spike.size  # the counts' frequencies
    if not priors._sign_symmetric(p):
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
    m, q = np.asarray(m, dtype=np.float64), np.asarray(q, dtype=np.float64)
    # the kernel broadcasts r against s; the terms below broadcast to its shape
    val, d_r, d_s = psi_hat_grad(ev, p, lam * q[..., None], (lam * m)[..., None] * values)
    value = val @ weights - lam * m * m / 2.0 + lam * q * q / 4.0
    d_m = lam * (d_s @ (weights * values)) - lam * m
    d_q = lam * (d_r @ weights) + lam * q / 2.0
    return value, d_m, d_q


def _bracketed_roots(f, a, b, fa, yb, ftol: float):
    """Roots of f in the brackets [a_k, b_k], all brackets at once, by regula falsi.

    f(k, x) evaluates brackets k at points x as a stacked array whose row 0
    is the function and whose other rows are carried along; yb holds that
    stack at the ends b, fa the function at the ends a, of opposite sign.
    Each step's secant point c becomes the new b, and a becomes whichever
    old end keeps the root between a and c, with the Anderson-Bjorck scaling
    of the value kept at a stale end; a secant point that is not strictly
    inside the bracket (on an end, past one by rounding, or not finite) is
    replaced by the midpoint, so f is priced only inside it.  A bracket
    stops once it is no wider than _ROOT_XTOL or its newest |f| <= ftol
    (below it, f's sign is rounding noise).  Returns the roots and f's stack
    at them, both from the evaluations already made.  _inner_min polishes
    its roots of d_q F_bar with it, and _joint_polish a bracket whose joint
    root the guard refuses.
    """
    a, b, fa, yb = (np.array(x, dtype=np.float64) for x in (a, b, fa, yb))
    for _ in range(_ROOT_MAX_ITER):
        live = np.flatnonzero((np.abs(b - a) > _ROOT_XTOL) & (np.abs(yb[0]) > ftol))
        if live.size == 0:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], yb[0, live]
        c = bl - fbl * (bl - al) / (fbl - fal)
        c = np.where((np.minimum(al, bl) < c) & (c < np.maximum(al, bl)), c, 0.5 * (al + bl))
        yc = f(live, c)
        fc = yc[0]
        # the root stays between a and c; signs, since fc * fbl can overflow
        stale = np.sign(fc) == np.sign(fbl)
        shrink = 1.0 - fc / fbl
        a[live] = np.where(stale, al, bl)
        fa[live] = np.where(stale, np.where(shrink > 0.0, shrink, 0.5) * fal, fbl)
        b[live], yb[:, live] = c, yc
    return b, yb


def _local_maxima(grid: np.ndarray, ys: np.ndarray, polish, ftol: float):
    """Local maximizers of functions sampled on a grid, from their derivative.

    ys is a stack over the grid, (rows, points) per entry: ys[0] holds the
    derivative of each row's function and the other entries values carried
    to the candidates.  The candidates are the grid points where
    |ys[0]| <= ftol (stationary, as a symmetry point is), the first point
    where the function falls from it and the last where it rises to it, and
    the plus-to-minus sign changes between grid points.  polish(rows, a, b,
    ya, yb) turns the sign changes [a_k, b_k] of the given rows, with ys at
    their ends, into (roots, ys at the roots).  Stationary points closer
    together than one grid step can hide each other.  Returns (rows, points,
    ys at the points).
    """
    slope = ys[0]
    sign = np.where(np.abs(slope) <= ftol, 0.0, np.sign(slope))
    rows, cols = np.nonzero((sign[:, :-1] > 0) & (sign[:, 1:] < 0))
    roots, y_roots = polish(rows, grid[cols], grid[cols + 1], ys[:, rows, cols], ys[:, rows, cols + 1])
    flat = sign == 0
    flat[:, 0] |= sign[:, 0] < 0
    flat[:, -1] |= sign[:, -1] > 0
    rows_flat, cols_flat = np.nonzero(flat)
    return (
        np.concatenate([rows, rows_flat]),
        np.concatenate([roots, grid[cols_flat]]),
        np.concatenate([y_roots, ys[:, rows_flat, cols_flat]], axis=1),
    )


def _inner_min(p: Prior, lam: float, m: np.ndarray, q_max: float, ev, spike=None):
    """Global minimum of q -> F_bar(lambda, m, q) on [0, q_max] for each m.

    Returns the stack (d_m F_bar at q_bar, q_bar, value), each row of m's
    shape: with the prior's law, the outer profile g(m) = inf_q F_bar as
    (g'(m), q_bar(m), g(m)).  With a spike, F_bar averages over the spike's
    empirical law instead; _planted_law builds and folds the law once per
    call.  _local_maxima finds the local minima on a coarse q row and
    polishes them as roots of d_q F_bar; each m keeps the least value.
    Every kernel call gives F_bar with both partial derivatives, so a
    candidate's value and d_m come from the call that found it and none is
    priced again.  The row has a point just off q = 0, where d_q F_bar
    vanishes at m = 0 by symmetry, so that the sign beside it decides.
    """
    law = _planted_law(p, spike)
    q_row = np.sort(np.r_[np.linspace(0.0, q_max, _Q_POINTS), _PROBE * q_max])

    def grads(k, q):
        value, d_m, d_q = _f_bar_grad(p, lam, m[k], q, ev, law)
        return np.stack([-d_q, value, d_m])

    def polish(rows, a, b, ya, yb):
        return _bracketed_roots(lambda k, q: grads(rows[k], q), a, b, ya[0], yb, ftol)

    ftol = _ROOT_FTOL * lam
    ys = grads(np.arange(m.size)[:, None], q_row)
    owner, q_cand, (_, value, d_m) = _local_maxima(q_row, ys, polish, ftol)
    order = np.lexsort((value, owner))
    best = order[np.searchsorted(owner[order], np.arange(m.size))]
    return np.stack([d_m[best], q_cand[best], value[best]])


def _joint_polish(p: Prior, lam: float, q_max: float, ev, a, b, ya, yb):
    """Roots of g'(m) in the brackets [a_k, b_k], each as a joint root of (d_m F_bar, d_q F_bar).

    ya and yb stack (g', q_bar, value) at the ends a < b, g'(a) > 0 > g'(b).
    Newton on the pair starts from the secant point, with q interpolated
    between q_bar(a) and q_bar(b); one kernel call on (m, q), (m + h, q) and
    (m, q + h) gives the gradient and a forward-difference Jacobian.  The
    first step that leaves a bracket, or q's range [0, q_max], restarts
    Newton from the bracket's midpoint, with q midway between q_bar(a) and
    q_bar(b).  Each later one costs one _inner_min at the bracket's midpoint
    c, which keeps the half where g' changes sign (bisection), and Newton
    restarts from (c, q_bar(c)); the bracket ends at c when |g'(c)| <= ftol,
    and at its g' < 0 end once it is no wider than _ROOT_XTOL.  Just above a
    transition q_bar jumps inside the bracket: rademacher at lambda = 1.1
    takes 49 kernel calls and 4 inner minimizations, against 94 and 7 when
    secant steps on g' crept up from the probe end instead.  A joint
    root is priced by one _inner_min at m*; if its q is not the global inner
    minimizer there, that bracket falls back to _bracketed_roots on g'.
    Returns (roots, the stack (g', q_bar, value) at them), as
    _local_maxima's polish.
    """
    law = _planted_law(p)
    ftol = _ROOT_FTOL * lam
    h = _JAC_STEP * q_max

    a, b, fa, yb = (np.array(x, dtype=np.float64) for x in (a, b, ya[0], yb))
    m = b - yb[0] * (b - a) / (yb[0] - fa)
    q = ya[1] + (m - a) / (b - a) * (yb[1] - ya[1])
    todo = np.ones(m.size, dtype=bool)  # still iterating
    fresh = np.ones(m.size, dtype=bool)  # no safeguard yet
    joint = np.zeros(m.size, dtype=bool)  # (m, q) is a joint root
    for _ in range(_ROOT_MAX_ITER):
        live = np.flatnonzero(todo)
        if live.size == 0:
            break
        m_l, q_l = m[live, None], q[live, None]
        m_s, q_s = m_l + [0.0, h, 0.0], q_l + [0.0, 0.0, h]
        _, d_m, d_q = _f_bar_grad(p, lam, m_s, q_s, ev, law)
        g_m, g_q = d_m[:, 0], d_q[:, 0]
        with np.errstate(all="ignore"):  # a singular Jacobian gives a step that fails the test below
            h_m, h_q = m_s[:, 1] - m_l[:, 0], q_s[:, 2] - q_l[:, 0]
            j_mm, j_mq = (d_m[:, 1] - g_m) / h_m, (d_m[:, 2] - g_m) / h_q
            j_qm, j_qq = (d_q[:, 1] - g_q) / h_m, (d_q[:, 2] - g_q) / h_q
            det = j_mm * j_qq - j_mq * j_qm
            step_m = (j_mq * g_q - j_qq * g_m) / det
            step_q = (j_qm * g_m - j_mm * g_q) / det
        root = (np.abs(g_m) <= ftol) & (np.abs(g_q) <= ftol)
        m_new, q_new = m[live] + step_m, q[live] + step_q
        inside = (a[live] < m_new) & (m_new < b[live]) & (q_new >= 0.0) & (q_new <= q_max)
        take = ~root & inside
        m[live[take]], q[live[take]] = m_new[take], q_new[take]
        root |= take & (np.abs(step_m) <= _ROOT_XTOL) & (np.abs(step_q) <= _ROOT_XTOL)
        joint[live[root]] = True
        todo[live[root]] = False
        safeguard = live[~root & ~inside]
        # a bracket's first safeguard (its ends still the given ones) restarts
        # Newton from the midpoint without an inner minimization: from a
        # secant start next to an end where g' is tiny, as at the probe just
        # above a transition, Newton leaves the bracket, and from the
        # midpoint it mostly converges
        first, safeguard = safeguard[fresh[safeguard]], safeguard[~fresh[safeguard]]
        fresh[first] = False
        m[first], q[first] = 0.5 * (a[first] + b[first]), 0.5 * (ya[1, first] + yb[1, first])
        if safeguard.size:
            c = 0.5 * (a[safeguard] + b[safeguard])
            y = _inner_min(p, lam, c, q_max, ev)
            rise = y[0] > ftol
            a[safeguard[rise]], fa[safeguard[rise]] = c[rise], y[0, rise]
            b[safeguard[~rise]], yb[:, safeguard[~rise]] = c[~rise], y[:, ~rise]
            m[safeguard], q[safeguard] = c, y[1]
            # below ftol, g''s sign is rounding noise and c is the root
            done = (np.abs(y[0]) <= ftol) | (b[safeguard] - a[safeguard] <= _ROOT_XTOL)
            todo[safeguard[done]] = False

    # a bracket that ended by bisection keeps (b, yb) as they are
    priced = np.flatnonzero(joint)
    if priced.size:
        y = _inner_min(p, lam, m[priced], q_max, ev)
        # the joint q must be the global inner minimizer at m*
        same = np.abs(y[1] - q[priced]) <= _GUARD_QTOL * q_max
        b[priced[same]], yb[:, priced[same]] = m[priced[same]], y[:, same]
        todo[priced[~same]] = True
    nested = np.flatnonzero(todo)
    if nested.size:
        ends = a[nested], b[nested], fa[nested], yb[:, nested]
        b[nested], yb[:, nested] = _bracketed_roots(
            lambda _, m: _inner_min(p, lam, m, q_max, ev), *ends, ftol
        )
    return b, yb


def f_bar_inner_min(p: Prior, lam: float, m: float):
    """Exact inner minimization q -> F_bar(lambda, m, q) on [0, E[X^2] + 1], on the default rule.

    Returns (q_bar, value).  Every local minimum found on a coarse q row is
    polished as a root of d_q F_bar, its value taken from the kernel call
    that found it; the least value wins.
    The minimizer is uniformly bounded in m (differentiate in q), which
    motivates the search ceiling q_max = E[X^2] + 1, the saddle's.  lambda
    and m must pass _check_scale at extent max(q_max, |m|).
    """
    _check_finite("m", m)
    q_max = second_moment(p) + 1.0
    _check_scale(p, lam, max(q_max, abs(m)))
    _, q_bar, value = _inner_min(p, lam, np.array([float(m)]), q_max, None)[:, 0]
    return float(q_bar), float(value)


def saddle(p: Prior, lam: float, ev: ChannelEvaluator | None = None) -> PotentialResult:
    """sup_{m in [-E[X^2], E[X^2]]} inf_{q in [0, E[X^2]+1]} F_bar(lambda, m, q).

    By the envelope theorem the outer profile g(m) = inf_q F_bar has slope
    g'(m) = d_m F_bar(m, q_bar(m)), with q_bar from an exact inner
    minimization.  The local maxima of g come from _local_maxima on a coarse
    m grid, which has points just off m = 0, where g' vanishes for
    sign-symmetric priors.  _joint_polish polishes each sign change of g' as
    a joint root of (d_m F_bar, d_q F_bar) and prices it with one inner
    minimization; every candidate is recorded, and value ties within 1e-9
    (the +-m* of a sign-symmetric prior) resolve to the largest m.
    grid_resolution reports the coarse grid's step.

    For a sign-symmetric prior g is even in m (see _planted_law), so only the
    half grid m >= 0, with the same step and the probe at +_PROBE E[X^2], is
    solved, and every candidate m > 0 is mirrored to -m with the same inner
    minimizer and value; local_optima and the tie rule see both signs.
    lambda must pass _check_scale at extent E[X^2] + 1.
    """
    m2 = second_moment(p)
    _check_scale(p, lam, m2 + 1.0)
    step = 2.0 * m2 / (_M_POINTS - 1)
    if lam == 0.0 or m2 == 0.0:
        return PotentialResult(0.0, 0.0, 0.0, [(0.0, 0.0)], step)
    q_max = m2 + 1.0
    symmetric = priors._sign_symmetric(p)
    if symmetric:
        m_grid = m2 * np.sort(np.r_[np.linspace(0.0, 1.0, _M_POINTS // 2 + 1), _PROBE])
    else:
        m_grid = m2 * np.sort(np.r_[np.linspace(-1.0, 1.0, _M_POINTS), -_PROBE, _PROBE])

    ys = _inner_min(p, lam, m_grid, q_max, ev)[:, None]
    _, m_cand, (_, q_cand, v_cand) = _local_maxima(
        m_grid, ys, lambda rows, *ends: _joint_polish(p, lam, q_max, ev, *ends), _ROOT_FTOL * lam
    )
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
    """Iterate q <- 2 psi'(lambda q) from q0 until |delta q| <= tol max(1, E[X^2]), up to max_iter times.

    psi' is psi_prime's, the quadrature rule's own derivative, from one
    kernel built for the run.  tol is relative to the scale of q, so a prior
    with a large E[X^2] converges as one of unit scale does (E[X^2] = 1 reads
    tol as absolute).  lambda must pass _check_scale at extent E[X^2] + 1 and
    max_iter must be an integer >= 1.  An iterate that leaves [0, E[X^2]] by
    rounding (psi' is within about 1e-15 max(1, E[X^2]) (1 + r^-1/2) of the
    chain rule, so 2 psi'(lambda E[X^2]) may exceed E[X^2] in its last bits)
    is clipped back; the range guard allows 1e-9 max(1, E[X^2]) below and
    1e-6 max(1, E[X^2]) above, and farther out is a NumericalError.

    The exponents are bounded once, at entry: q0 and every clipped iterate
    lie in [0, E[X^2]], so each step's r K^2 = lambda q K^2 is at most
    lambda E[X^2] K^2 <= lambda (E[X^2] + 1)(K^2 + E[X^2] + 1) up to rounding,
    which _check_scale holds to EXPONENT_MAX, 180 times below the float max.
    """
    m2 = second_moment(p)
    scale = max(1.0, m2)
    _check_scale(p, lam, m2 + 1.0)
    if not 0.0 <= q0 <= m2:
        raise InvalidArgumentError(f"q0 must lie in [0, {m2}], got {q0}")
    _check_positive("tol", tol)
    _check_count("max_iter", max_iter)
    psi_prime_at = _psi_prime_kernel(_resolve(ev), p)
    iterates = [float(q0)]
    q = float(q0)
    converged = False
    for _ in range(max_iter):
        q_next = 2.0 * psi_prime_at(lam * q)
        if not (-1e-9 * scale <= q_next <= m2 + 1e-6 * scale):
            raise NumericalError(
                f"state evolution left [0, {m2}]: q = {q_next} (psi' bug?)"
            )
        q_next = min(max(q_next, 0.0), m2)
        iterates.append(float(q_next))
        if abs(q_next - q) <= tol * scale:
            converged = True
            q = q_next
            break
        q = q_next
    return SETrace(iterates, converged, float(q))


def critical_lambda(p: Prior, delta: float = 1e-3, tol: float = 0.01) -> float:
    """The smallest lambda with q*(lambda) > delta on the default rule, as a root.

    q* is phi_rs's optimizer, and every stationary point of F is a fixed
    point q = 2 psi'(lambda q), with psi' the rule's own derivative (state
    evolution's kernel).  psi' is increasing, so q = delta is a fixed point at
    exactly one lambda_delta, the root of 2 psi'(lambda delta) = delta: found
    by doubling from lambda = 1 up to _LAM_CAP (beyond it, a NumericalError)
    and polished by regula falsi.  No branch of fixed points crosses delta at
    any other lambda, so q* passes delta either continuously, on the branch
    through delta at lambda_delta, or by a jump between a branch below delta
    and one above it, at the lambda_IT where their values tie (to within
    TIE_TOL, where phi_rs takes the larger q).  One
    phi_rs(p, lambda_delta) call decides which: if its optimizer lies within
    one grid step of delta, the result is lambda_delta; otherwise _jump
    finds lambda_IT, below lambda_delta when the upper branch wins there and
    above it when the lower one does.  Where (E X)^2 = 2 psi'(0) >= delta,
    every fixed point lies above delta at every lambda > 0, and the result is
    0.0, the infimum.

    tol must be finite and > 0, but it no longer sets the result's
    resolution: the roots are polished to about 1e-13, so phi_rs's
    optimizer switches sides of delta between lambda_c (1 - 1e-6) and
    lambda_c (1 + 1e-6).
    """
    if not 0.0 < delta <= 0.1:
        raise InvalidArgumentError(f"delta must lie in (0, 0.1], got {delta}")
    _check_positive("tol", tol)
    m2 = second_moment(p)
    psi_prime_at = _psi_prime_kernel(_resolve(None), p)

    def gap(lam, q):
        """2 psi'(lambda q) - q: the state-evolution step from q, zero at a fixed point."""
        return 2.0 * psi_prime_at(lam * q) - q

    lo, g_lo = 0.0, gap(0.0, delta)
    if g_lo >= 0.0:
        return 0.0
    hi = 1.0
    while True:
        _check_scale(p, hi, m2 + 1.0)
        g_hi = gap(hi, delta)
        if g_hi >= 0.0:
            break
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
        if hi > _LAM_CAP:
            raise NumericalError(
                f"no transition: q = {delta} is no fixed point up to lambda = {_LAM_CAP}"
            )
    lam_d = _scalar_root(lambda lam: gap(lam, delta), lo, hi, g_lo, g_hi)
    res = phi_rs(p, lam_d)
    step = res.grid_resolution
    if abs(res.optimizer_q - delta) <= step:
        return lam_d
    up = res.optimizer_q < delta
    # the best local maximum across delta from q*, the branch through delta
    # counted there; delta itself if there is none
    across = [(v, q) for q, v in res.local_optima if (q >= delta - step if up else q <= delta + step)]
    q_across = max(across)[1] if across else delta
    q_high, q_low = (q_across, res.optimizer_q) if up else (res.optimizer_q, q_across)
    return _jump(p, lambda lam, q: _fixed_point_from(gap, lam, q, m2), lam_d, q_high, q_low,
                 delta, _LAM_CAP if up else 0.0)


def _scalar_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """The root of a scalar f in [a, b] by _bracketed_roots: f(a), f(b) of opposite signs, or f(b) = 0."""
    roots, _ = _bracketed_roots(lambda _, x: np.array([[f(float(x[0]))]]), [a], [b], [fa], [[fb]], 0.0)
    return float(roots[0])


def _fixed_point_from(gap, lam: float, q: float, m2: float) -> float:
    """The fixed point that state evolution at lambda reaches from q, in [0, E[X^2]].

    gap(lambda, q) is the step 2 psi'(lambda q) - q.  The step never
    carries q past the nearest fixed point in its direction, since psi' is
    increasing; steps of twice the last length then bracket a root, which
    _scalar_root polishes.  At q = 0 and q = E[X^2] the step points inward
    up to rounding, so an end where it does not is itself the fixed point.
    """
    g = gap(lam, q)
    if g == 0.0:
        return q
    a, g_a, step = q, g, g
    while True:
        b = min(max(a + step, 0.0), m2)
        g_b = gap(lam, b)
        if g_b == 0.0 or (g_b > 0.0) != (g > 0.0):
            return _scalar_root(lambda x: gap(lam, x), a, b, g_a, g_b)
        if b in (0.0, m2):
            return b
        a, g_a, step = b, g_b, 2.0 * step


def _jump(p: Prior, branch, lam: float, q_high: float, q_low: float, delta: float, far: float) -> float:
    """lambda_IT between lam and far: where the branch through q_high (> delta)
    overtakes the one through q_low (< delta) in value, by phi_rs's tie rule.

    Both start at lam, the near end, and the root lies toward far.  At each
    trial lambda, branch(lambda, q) re-finds each branch as the fixed point
    that state evolution reaches from its q at the near end, and _potential
    prices F there.  By the envelope identity, d F(lambda, q(lambda)) /
    d lambda = q psi'(lambda q) - q^2 / 4 = q^2 / 4 along a branch, so the
    value gap D = F(q_high) - F(q_low) + TIE_TOL has the exact slope
    (q_high^2 - q_low^2) / 4; D >= 0 is where phi_rs, which resolves values
    within TIE_TOL toward the larger q, takes the upper branch.  Newton
    steps go from the near end, whose side of D = 0 is lam's.  A trial on
    the far side, or one where the branch on the near end's winning side is
    gone (it fell through delta), becomes the far end, and the next trial
    is then the secant point through both ends, or their midpoint when the
    far end has no value or a step leaves the bracket.  The search stops
    once a step is no longer than _ROOT_XTOL.
    """
    down = far < lam  # the upper branch wins at the near end
    m2 = second_moment(p)
    f_high, f_low = _potential(p, lam, np.array([q_high, q_low]), None)
    d, d_far, newton = f_high - f_low + TIE_TOL, None, True
    for _ in range(_ROOT_MAX_ITER):
        if newton:
            x = lam - 4.0 * d / (q_high * q_high - q_low * q_low)
        elif d_far is not None:
            x = lam - d * (lam - far) / (d - d_far)
        else:
            x = far
        if not min(lam, far) < x < max(lam, far):
            x = 0.5 * (lam + far)
        if abs(x - lam) <= _ROOT_XTOL:
            return float(x)
        _check_scale(p, x, m2 + 1.0)
        qh, ql = branch(x, q_high), branch(x, q_low)
        if (qh <= delta) if down else (ql >= delta):
            far, d_far, newton = x, None, False
            continue
        f_high, f_low = _potential(p, x, np.array([qh, ql]), None)
        d_x = f_high - f_low + TIE_TOL
        if (d_x >= 0.0) == down:
            lam, q_high, q_low, d, newton = x, qh, ql, d_x, True
        else:
            far, d_far, newton = x, d_x, False
    raise NumericalError(f"lambda_IT not found between {lam} and {far}")


# ----------------------------------------------------------------------
# Curve records (CSV/JSON schema shared with the CLI)
# ----------------------------------------------------------------------

CURVE_FIELDS = ("lambda", "q_star", "phi_rs", "saddle", "mi", "mmse")


def compute_curve(p: Prior, lam_values, ev: ChannelEvaluator | None = None) -> list:
    """One record per lambda with the full set of RS quantities.

    Returns dicts keyed by CURVE_FIELDS, ready for CSV/JSON serialization.
    mi is the limit of I(Y; x*)/N, lambda/4 E[X^2]^2 - phi_RS, and mmse the
    per-entry matrix MMSE E[X^2]^2 - q*^2.
    """
    m2 = second_moment(p)
    rows = []
    for lam in lam_values:
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
