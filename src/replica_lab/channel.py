"""Scalar Gaussian channel free entropies by Gauss-Hermite quadrature.

The building blocks of the replica-symmetric analysis are expectations of

    log int exp(sqrt(r) z x + s x - (r/2) x^2) dP(x),        z ~ N(0,1),

over the channel noise z (and, for some variants, over a planted value x*
drawn from the prior).  With finite-atom priors the inner integral is a
finite sum, so the only integration is over z, done here with normalized
Gauss-Hermite nodes for the standard normal weight.  Three variants appear:

    psi_hat(r, s)  fixed tilt s,
    psi_bar(r, s) = E_{x*} psi_hat(r, s x*),
    psi(r)        = psi_bar(r, r)   (the Bayes-matched channel).

All integrands are bounded and analytic for bounded priors, so the
quadrature converges spectrally, but not uniformly in (r, s).  The tested
envelope (tests/test_channel.py, TestDoublingStability) is the change from
61 to 121 nodes in psi_bar: at most 3e-9 for r <= 1.5 and |s| <= 1.5, and at
most 2e-6 on the planted diagonal (s = r, -r, 2r) up to r = 50.  Off the
diagonal at large r, two-point priors break even a 1e-9 bound, as the
strict xfail test_doubling_on_full_box records.  That tested envelope is the
guard on the rule's accuracy; no evaluation checks itself at run time.

psi_bar of a sign-symmetric prior (each atom (v, w) has its mirror (-v, w),
Prior.mirror) on a mirrored rule (nodes[::-1] == -nodes bit for bit, which
make_evaluator's symmetrization gives) prices about half its tilts, with
every bit kept.  The exponent sqrt(r) z x + t x - (r/2) x^2 + log w(x) at
(-t, x, z) equals the one at (t, -x, -z) bit for bit, since every sign flip
is exact and a mirror atom has the same log-weight.  So the tilt -s x*
needs no exponents of its own: psi_hat_array(..., planted=True), which
psi_bar_array calls, prices the tilts s x* with x* >= 0, and for each
x* > 0 sums the same exps over the mirror atoms in the storage order that
the kernel sums -s x*'s own atoms in, then takes the log and adds the
per-node maximum at the reversed nodes.  Those rows go to the one (points,
atoms, nodes) table that the per-tilt route fills, and the node contraction
and the weighted sum over x* read it unchanged, so every psi_bar value is
the per-tilt route's bit for bit.  The route is taken when the exponent
values it saves, points x (atoms // 2) x atoms x nodes, exceed
_MIRROR_FIXED, the route's own fixed cost per call, set from where the two
routes' timings cross (see its comment).  At 61 nodes that is every call
for uniform:21, calls of 3 points or more for uniform:8, 23 or more for
three atoms and 34 or more for two.  psi_hat, psi_hat_grad and psi' price
every tilt.

The rule is built in numpy by Golub-Welsch: the nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix of He_n (off-diagonal sqrt(k)).  Up to
150 nodes it follows scipy.special.roots_hermitenorm step for step (one Newton
step on He_n, the weight formula 1 / (He_{n-1} He_n'), symmetrization), so its
nodes and normalized weights are scipy's bit for bit.  Above 150 nodes, where
scipy switches to an asymptotic method and the He_n recurrence overflows from
225 nodes, the weights are the squared first components of the eigenvectors;
tests/test_channel.py checks them against scipy at sample counts up to
MAX_NODE_COUNT (nodes within 1e-13, weights within 1e-14).  make_evaluator
accepts 2 to MAX_NODE_COUNT nodes, which bounds the dense Jacobi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InvalidArgumentError, _check_count, _check_finite, _check_nonnegative
from . import priors
from .priors import Prior

DEFAULT_NODE_COUNT = 61
MAX_NODE_COUNT = 2000

# The bound on the largest exponent or potential term, so that sums and
# differences of a few of them stay below the float maximum (1.8e308)
EXPONENT_MAX = 1e306

# Largest count whose weights come from He_n (scipy's split point).
_NEWTON_MAX_NODES = 150

# psi_hat_grad returns d_r's r -> 0 limit at and below this r.
_R_LIMIT = 1e-11


@dataclass(frozen=True, eq=False)
class ChannelEvaluator:
    """Gauss-Hermite nodes and weights normalized for z ~ N(0,1); node_count is the number of nodes."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @cached_property
    def mirrored(self) -> bool:
        """Whether the nodes are exact mirror images, nodes[::-1] == -nodes (make_evaluator's are)."""
        return bool(np.array_equal(self.nodes[::-1], -self.nodes))

    def __repr__(self):
        return f"ChannelEvaluator(node_count={self.node_count})"


def _hermite_e(n: int, x: np.ndarray) -> np.ndarray:
    """He_n(x) by the recurrence in scipy.special.eval_hermitenorm's order (k = n down to 2)."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n, 1, -1):
        prev, cur = cur, x * cur - k * prev
    return x * cur - prev


def _gauss_hermite(n: int):
    """Nodes and weights (summing to one) of the n-point rule for z ~ N(0,1)."""
    jacobi = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    if n > _NEWTON_MAX_NODES:
        x, vectors = np.linalg.eigh(jacobi, UPLO="U")
        w = vectors[0] ** 2
    else:
        x = np.linalg.eigvalsh(jacobi, UPLO="U")
        dy = n * _hermite_e(n - 1, x)
        x -= _hermite_e(n, x) / dy
        # He_{n-1} and He_n' span many decades: scale each by the geometric
        # middle of its range before taking the product
        fm = _hermite_e(n - 1, x)
        log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
        fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    # scipy's normalization to sqrt(2 pi) first, so that the result is its bits
    w *= np.sqrt(2.0 * np.pi) / w.sum()
    return x, w / w.sum()


@lru_cache(maxsize=16)
def make_evaluator(node_count: int = DEFAULT_NODE_COUNT) -> ChannelEvaluator:
    """Quadrature rule exact for polynomials in z up to degree 2*node_count - 1."""
    _check_count("node_count", node_count, 2)
    if node_count > MAX_NODE_COUNT:
        raise InvalidArgumentError(f"node_count must be <= {MAX_NODE_COUNT}, got {node_count}")
    nodes, weights = _gauss_hermite(int(node_count))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return ChannelEvaluator(nodes=nodes, weights=weights)


def _resolve(ev: ChannelEvaluator | None) -> ChannelEvaluator:
    return ev if ev is not None else make_evaluator(DEFAULT_NODE_COUNT)


# Exponent values held per block of psi_hat_array: 2**16 doubles (512 KB),
# about 512 points of a two-atom prior at 61 nodes.
_BLOCK_VALUES = 2**16

# The kernel's fixed cost per call in exponent values (tilts x atoms x nodes):
# a call on T tilts of an A-atom prior at G nodes costs about as much as
# _KERNEL_FIXED + T A G values (a 2-CPU AMD EPYC, numpy 2.4).
_KERNEL_FIXED = 2**13

# The mirrored route's own fixed cost per call in the exponent values it
# saves, points x (atoms // 2) x atoms x nodes: the index arrays, the
# broadcast inputs, the scatter into the table and, above two atoms, the
# mirrored sum's extra ufunc calls.  Timed in-process against the per-tilt
# route at 61 nodes (2-CPU Intel Xeon, numpy 2.4.6; medians of 15
# interleaved rounds), the routes cross at about 1.2e3 saved values for
# rademacher (10 points), 2e3-3.9e3 for uniform:8 (1-2 points) and
# 5.5e3-6.8e3 for sparse:0.25 (30-37 points); uniform:21 saves 1.3e4 at one
# point and is faster from there.  2**12 lies between the two-atom and the
# three-atom crossings: it leaves rademacher's calls of 10-33 points on the
# per-tilt route (up to 15% slower there) and puts three-atom calls of
# 23-33 points on the mirrored one (about 4% slower there).
_MIRROR_FIXED = 2**12


def _node_tables(ev: ChannelEvaluator, p: Prior, r, s, moments: bool = False, mirror=None):
    """(r, log-sums, moments): the blocked kernel behind psi_hat.

    For the broadcast points of r and s (r comes back broadcast), the
    (points, nodes) table of log sum_x w(x) exp(sqrt(r) z x + s x - (r/2) x^2)
    and, with moments, the (2, points, nodes) posterior moments <x> and <x^2>
    at each node.  The points are walked in blocks of about
    2**16 / (atoms * nodes), each holding one (points, nodes) exponent plane
    per atom, so the working set stays near 512 KB; only the output tables
    grow with the input.  The log-sum over atoms subtracts the per-z maximum
    exponent before exponentiating, so large r and s are safe.  The atom
    planes are summed in storage order (atom 0, then 1, ...), which is how
    numpy reduces the leading axis of a contiguous block of more than one
    (point, node) value (make_evaluator's two-node minimum sees to that), so
    results do not depend on the block size.  A small call (a golden step's
    few points) runs the same arithmetic as a large one, paying its fixed
    cost once: r and s are broadcast only when their shapes differ, the atom
    constants are built before the block loop.

    mirror = (table, rows, flips, order) is psi_hat_array's mirrored route
    (see the module docstring), for a sign-symmetric prior on a mirrored
    rule: point k's log-sums go to row rows[k] of table, and for each of the
    leading flips.size points, from the same exps, those of its mirrored tilt
    -s to row flips[k]; order indexes the atoms' mirrors (Prior.mirror's
    order, a reversing slice or an index array).  The log-sums come back as
    table.
    """
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if r.shape != s.shape:
        # copied out to the common shape, at a third of np.broadcast_arrays' cost
        r_b, s_b = np.empty((2,) + np.broadcast(r, s).shape)
        r_b[...], s_b[...] = r, s
        r, s = r_b, s_b
    r_col = r.reshape(-1, 1)
    s_col = s.reshape(-1, 1)
    z = ev.nodes  # (G,)
    v = p.values[:, None, None]  # (A, 1, 1)
    v_sq = v**2
    lw = p.log_weights[:, None, None]
    n_atoms, n_nodes, n_points = v.shape[0], z.size, r_col.shape[0]
    rows = max(1, _BLOCK_VALUES // (n_atoms * n_nodes))
    if mirror is None:
        inner = np.empty((n_points, n_nodes))
    else:
        inner, own, flip, order = mirror
    tables = np.empty((2, n_points, n_nodes)) if moments else None
    powers = np.array([p.values, p.values**2]) if moments else None  # rows [v; v^2]
    buf = np.empty(n_atoms * min(rows, n_points) * n_nodes)
    for i in range(0, n_points, rows):
        rr = r_col[i : i + rows]
        ss = s_col[i : i + rows]
        # exponent[atom, point, node]: a contiguous prefix of buf even for a
        # short last block, so every block runs numpy's contiguous loops
        e = buf[: n_atoms * rr.shape[0] * n_nodes].reshape(n_atoms, rr.shape[0], n_nodes)
        np.multiply(np.sqrt(rr) * z, v, out=e)
        e += ss * v
        e -= (0.5 * rr) * v_sq
        e += lw
        m = np.maximum.reduce(e, axis=0)
        e -= m
        np.exp(e, out=e)
        total = e.sum(axis=0)
        if moments:
            # the dot that np.tensordot(powers, e, 1) makes, without its overhead
            moment = np.dot(powers, e.reshape(n_atoms, -1)).reshape(2, rr.shape[0], n_nodes)
            np.divide(moment, total, out=tables[:, i : i + rows])
        if mirror is None:
            block = np.log(total, out=inner[i : i + rows])
            block += m
            continue
        np.log(total, out=total)
        total += m
        inner[own[i : i + rows]] = total
        # the mirrored tilt's exps at node g are the mirror atoms' at the
        # reversed node, summed in its own atom order (into total, whose rows
        # are written); only the tilts x* > 0, the leading flip.size rows,
        # have a mirror
        n_flip = min(rr.shape[0], flip.size - i)
        if n_flip <= 0:
            continue
        flipped = total[:n_flip]
        if n_atoms > 2:  # for two atoms the one sum, the same either way
            np.add.reduce(e[order, :n_flip], axis=0, out=flipped)
            np.log(flipped, out=flipped)
            flipped += m[:n_flip]
        inner[flip[i : i + n_flip]] = flipped[:, ::-1]
    return r, inner, tables


def psi_hat_array(ev: ChannelEvaluator | None, p: Prior, r, s, *, planted: bool = False) -> np.ndarray:
    """Vectorized psi_hat over broadcastable nonnegative r and real s (see _node_tables).

    With planted, the tilts are s x* at every atom x* of p: the values
    psi_hat(r, s x*) come back on a trailing atom axis.  A sign-symmetric
    prior on a mirrored rule then takes the mirrored route (see the module
    docstring): the tilts s x* with x* >= 0 are priced, and each x* > 0
    gives the row of -s x* too.  Either route fills the same (points x
    atoms, nodes) table and contracts it the same way.
    """
    ev = _resolve(ev)
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    mirror = None
    if planted:
        shape = (r.shape if r.shape == s.shape else np.broadcast(r, s).shape) + (p.values.size,)
        saved = math.prod(shape) * (shape[-1] // 2) * ev.node_count  # the exponents of the tilts x* < 0
        if saved > _MIRROR_FIXED and priors._sign_symmetric(p) and ev.mirrored:
            order, tilts, flips = p.mirror
            first = np.arange(0, math.prod(shape), shape[-1])  # each point's first table row
            table = np.empty((first.size * shape[-1], ev.node_count))
            mirror = table, (tilts[:, None] + first).ravel(), (flips[:, None] + first).ravel(), order
            # tilt-major points: row k of the kernel is tilt k // points
            r = r.reshape((1,) * (len(shape) - r.ndim) + r.shape)
            s = p.values[tilts].reshape((-1,) + (1,) * (len(shape) - 1)) * s
        else:
            # (points, atoms) tables of equal shape, which the kernel need not broadcast
            r = r[..., None].repeat(shape[-1], axis=-1) if r.shape == s.shape else r[..., None]
            s = s[..., None] * p.values
    r, inner, _ = _node_tables(ev, p, r, s, mirror=mirror)
    mirror = first = None  # the row indices are freed before the contraction
    return inner.reshape((shape if planted else r.shape) + (ev.node_count,)) @ ev.weights


def psi_hat_grad(ev: ChannelEvaluator | None, p: Prior, r, s):
    """(psi_hat, d/dr, d/ds) over broadcastable r >= 0 and s, the value bit for bit psi_hat_array's.

    The derivatives are the quadrature rule's own, by the chain rule through
    each node's log-sum, with <.>_g the posterior moments at node z_g:

        d_s = sum_g w_g <x>_g,    d_r = sum_g w_g (z_g <x>_g / (2 sqrt(r)) - <x^2>_g / 2).

    At r = 0 every node has the same posterior and sum_g w_g z_g^2 = 1, so d_r
    takes its limit Var(x)/2 - <x^2>/2 = -<x>^2/2.  The first sum cancels as
    r -> 0+ (its error grows like 1/sqrt(r)), so below _R_LIMIT the limit form
    is returned, which is off by O(r) (tests/test_channel.py bounds it by 3 r).
    The Stein forms hold for the Gaussian integral, not for the rule, whose
    derivative they miss.
    """
    ev = _resolve(ev)
    r_b, inner, (mean, sq) = _node_tables(ev, p, r, s, moments=True)
    full = r_b.shape + (ev.nodes.size,)
    d_s = mean.reshape(full) @ ev.weights
    # the first sum is divided only where it is kept, so r = 0 divides by nothing
    d_r = (mean * ev.nodes).reshape(full) @ ev.weights / (2.0 * np.sqrt(np.maximum(r_b, _R_LIMIT)))
    d_r = np.where(r_b > _R_LIMIT, d_r - 0.5 * (sq.reshape(full) @ ev.weights), -0.5 * d_s**2)
    return inner.reshape(full) @ ev.weights, d_r, d_s


def _check_exponents(p: Prior, r: float, tilt: float) -> None:
    """DomainError unless r K^2 and |tilt| K stay within EXPONENT_MAX.

    tilt bounds the |s| that multiplies an atom x in the exponent, so the two
    products bound every exponent term (r x^2 / 2, s x and sqrt(r) z x).
    """
    k = p.bound
    if not (r * k * k <= EXPONENT_MAX and abs(tilt) * k <= EXPONENT_MAX):
        raise DomainError(
            f"the channel exponents reach r K^2 = {r * k * k:.3g} or |s| K = {abs(tilt) * k:.3g}, "
            f"above {EXPONENT_MAX:g} (K = {k})"
        )


def _check_scale(p: Prior, lam: float, extent: float, tilt: float = 0.0):
    """DomainError unless lambda * extent * (K * max(K, tilt) + extent) <= EXPONENT_MAX.

    The solvers' rule, where _check_exponents is the channel entries': it
    bounds the exponents that a call at SNR lambda reaches.  lambda must
    first be finite and >= 0.  extent bounds the q and |m| a call reaches
    (E[X^2] + 1 for the solvers), K is the support bound and tilt bounds a
    spike's |x*| beyond K.  With r = lambda q and s = lambda m x*, the
    product bounds every channel exponent term (r x^2, s x, sqrt(r) z x) and
    potential term (lambda q^2, lambda m^2).
    """
    _check_nonnegative("lambda", lam)
    k = p.bound
    scale = lam * extent * (k * max(k, tilt) + extent)
    if not scale <= EXPONENT_MAX:
        raise DomainError(
            f"the channel exponents reach {scale:.3g}, above {EXPONENT_MAX:g} "
            f"(lambda = {lam}, q or |m| up to {extent}, K = {k})"
        )


def psi_hat(ev: ChannelEvaluator | None, p: Prior, r: float, s: float) -> float:
    """psi_hat(r, s) = E_z log int exp(sqrt(r) z x + s x - (r/2) x^2) dP(x).

    r K^2 and |s| K pass _check_exponents.
    """
    r, s = _check_nonnegative("r", r), _check_finite("s", s)
    _check_exponents(p, r, s)
    return float(psi_hat_array(ev, p, r, s))


def psi_bar_array(ev: ChannelEvaluator | None, p: Prior, r, s) -> np.ndarray:
    """Vectorized psi_bar(r, s) = sum_{x*} w(x*) psi_hat(r, s * x*), from psi_hat_array's planted tilts."""
    vals = psi_hat_array(ev, p, r, s, planted=True)
    # an elementwise sum over the atoms: a gemv's bits would depend on the batch
    vals *= p.weights
    return vals.sum(axis=-1)


def psi_bar(ev: ChannelEvaluator | None, p: Prior, r: float, s: float) -> float:
    """psi_bar(r, s) = E_{x*} psi_hat(r, s x*) with x* drawn from the prior.

    r K^2 and the tilts' |s| K^2 pass _check_exponents.
    """
    r, s = _check_nonnegative("r", r), _check_finite("s", s)
    _check_exponents(p, r, s * p.bound)
    return float(psi_bar_array(ev, p, r, s))


def psi(ev: ChannelEvaluator | None, p: Prior, r: float) -> float:
    """psi(r) = E_{x*, z} log int exp(sqrt(r) z x + r x x* - (r/2) x^2) dP(x).

    Equals psi_bar(r, r): the planted tilt is s = r x* averaged over x*.
    r K^2 passes _check_exponents.
    """
    r = _check_nonnegative("r", r)
    _check_exponents(p, r, r * p.bound)
    return float(psi_bar_array(ev, p, r, r))


def _psi_prime_kernel(ev: ChannelEvaluator, p: Prior):
    """r -> psi'(r), the rule's own derivative (see psi_prime), for one prior and rule.

    The per-prior constants are built once: v z_g, x* x - x^2/2 and log w
    over the (planted, atom, node) block, the w* w_g product and the block
    itself, so that each call is about ten numpy calls on that one block.
    Unchecked: r >= 0 and r K^2 <= EXPONENT_MAX, which both callers ensure.
    """
    v, z = p.values, ev.nodes
    vz = v[:, None] * z  # (atoms, nodes)
    lw = p.log_weights[:, None]
    c = (v[:, None] * v - 0.5 * v**2)[:, :, None]  # (planted, atoms, 1)
    ww = p.weights[:, None] * ev.weights  # (planted, nodes)
    e = np.empty((v.size, v.size, z.size))

    def psi_prime_at(r: float) -> float:
        sr = math.sqrt(r)
        np.add(r * c, sr * vz + lw, out=e)
        np.subtract(e, e.max(axis=1, keepdims=True), out=e)
        np.exp(e, out=e)
        total = e.sum(axis=1)
        if r > _R_LIMIT:
            np.multiply(e, (0.5 / sr) * vz + c, out=e)
            return float(np.vdot(ww, e.sum(axis=1) / total))
        d_s = (e * v[:, None]).sum(axis=1) / total @ ev.weights
        return float(p.weights @ (v * d_s - 0.5 * d_s**2))

    return psi_prime_at


def psi_prime(ev: ChannelEvaluator | None, p: Prior, r: float) -> float:
    """d psi / dr of the quadrature rule itself, by the chain rule of psi_hat_grad.

    With <.>_g the posterior at node z_g and tilt s = r x*,

        psi'(r) = sum_{x*} w(x*) sum_g w_g < z_g x / (2 sqrt(r)) + x* x - x^2/2 >_g,

    which is sum_{x*} w(x*) (d_r + x* d_s) of psi_hat_grad at (r, r x*).  At
    and below _R_LIMIT it takes psi_hat_grad's limit form d_r = -d_s^2/2, so
    psi'(0) = (E X)^2 / 2.  tests/test_channel.py holds it within
    2e-15 max(1, E[X^2]) (1 + r^-1/2) of that chain rule, from r = 0 to 50.
    r K^2 passes _check_exponents.
    """
    r = _check_nonnegative("r", r)
    _check_exponents(p, r, r * p.bound)
    return _psi_prime_kernel(_resolve(ev), p)(r)


def asymmetry_gap(ev: ChannelEvaluator | None, p: Prior, r):
    """psi_bar(r, r) - psi_bar(r, -r); nonnegative for every prior and r >= 0.

    r is a float, which gives a float, or an array, which gives the array of
    its gaps, all priced in one kernel call over (r, r) and (r, -r).  A
    point's gap does not depend on the other points of its call.  Every r is
    finite and >= 0 (the least and the largest are checked), and the
    largest r's r K^2 passes _check_exponents.
    """
    r = np.asarray(r, dtype=np.float64)
    _check_nonnegative("r", r.min(initial=0.0))
    r_max = _check_nonnegative("r", r.max(initial=0.0))
    _check_exponents(p, r_max, r_max * p.bound)
    plus, minus = psi_bar_array(ev, p, np.stack([r, r]), np.stack([r, -r]))
    return plus - minus if r.ndim else float(plus - minus)
