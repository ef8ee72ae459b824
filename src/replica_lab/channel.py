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
strict xfail test_doubling_on_full_box records.

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

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .priors import Prior

DEFAULT_NODE_COUNT = 61
MAX_NODE_COUNT = 2000

# Largest count whose weights come from He_n (scipy's split point).
_NEWTON_MAX_NODES = 150

# psi_hat_grad returns d_r's r -> 0 limit at and below this r.
_R_LIMIT = 1e-11

# One-shot convergence bookkeeping: prior keys already checked against the
# doubled-node evaluator in this process.
_DOUBLING_CHECKED: set = set()
_DOUBLING_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ChannelEvaluator:
    """Gauss-Hermite nodes and weights normalized for z ~ N(0,1)."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    node_count: int = 0

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
    if not isinstance(node_count, (int, np.integer)) or not 2 <= node_count <= MAX_NODE_COUNT:
        raise InvalidArgumentError(
            f"node_count must be an integer in [2, {MAX_NODE_COUNT}], got {node_count!r}"
        )
    nodes, weights = _gauss_hermite(int(node_count))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return ChannelEvaluator(nodes=nodes, weights=weights, node_count=int(node_count))


def default_evaluator() -> ChannelEvaluator:
    return make_evaluator(DEFAULT_NODE_COUNT)


def _resolve(ev: ChannelEvaluator | None) -> ChannelEvaluator:
    return ev if ev is not None else default_evaluator()


# Exponent values held per block of psi_hat_array: 2**16 doubles (512 KB),
# about 512 points of a two-atom prior at 61 nodes.
_BLOCK_VALUES = 2**16


def _atom_sum(e: np.ndarray) -> np.ndarray:
    """e.sum(axis=0) in the order numpy's add.reduce sums a contiguous axis.

    numpy adds fewer than 8 terms one after another, up to 128 terms in 8
    interleaved partial sums combined pairwise, and more by halving at a
    multiple of 8.  Following that order over the leading (atom) axis keeps
    the result bit-identical to reducing a trailing atom axis.
    """
    n = e.shape[0]
    if n < 8:
        acc = e[0].copy()
        for x in e[1:]:
            acc += x
        return acc
    if n <= 128:
        lanes = e[:8].copy()
        for i in range(8, n - n % 8, 8):
            lanes += e[i : i + 8]
        acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for x in e[n - n % 8 :]:
            acc += x
        return acc
    half = n // 2
    half -= half % 8
    return _atom_sum(e[:half]) + _atom_sum(e[half:])


def _node_tables(ev: ChannelEvaluator, p: Prior, r, s, moments: bool = False):
    """(shape, log-sums, moments): the blocked kernel behind psi_hat.

    For the broadcast points of r and s, the (points, nodes) table of
    log sum_x w(x) exp(sqrt(r) z x + s x - (r/2) x^2) and, with moments, the
    (2, points, nodes) posterior moments <x> and <x^2> at each node.  The
    points are walked in blocks of about 2**16 / (atoms * nodes), each holding
    one (points, nodes) exponent plane per atom, so the working set stays near
    512 KB; only the output tables grow with the input.  The log-sum over
    atoms subtracts the per-z maximum exponent before exponentiating, so large
    r and s are safe.  The arithmetic, including the order of the atom sum, is
    that of a direct broadcast over (points, nodes, atoms), so results do not
    depend on the block size.
    """
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    r_b, s_b = np.broadcast_arrays(r, s)
    shape = r_b.shape
    r_col = r_b.reshape(-1, 1)
    s_col = s_b.reshape(-1, 1)
    z = ev.nodes  # (G,)
    v = p.values[:, None, None]  # (A, 1, 1)
    v_sq = v**2
    lw = p.log_weights[:, None, None]
    n_atoms, n_nodes, n_points = v.shape[0], z.size, r_col.shape[0]
    rows = max(1, _BLOCK_VALUES // (n_atoms * n_nodes))
    inner = np.empty((n_points, n_nodes))
    tables = np.empty((2, n_points, n_nodes)) if moments else None
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
        total = _atom_sum(e)
        if moments:
            np.divide(np.tensordot([p.values, p.values**2], e, 1), total, out=tables[:, i : i + rows])
        block = np.log(total, out=inner[i : i + rows])
        block += m
    return shape, inner, tables


def psi_hat_array(ev: ChannelEvaluator, p: Prior, r, s) -> np.ndarray:
    """Vectorized psi_hat over broadcastable nonnegative r and real s (see _node_tables)."""
    ev = _resolve(ev)
    shape, inner, _ = _node_tables(ev, p, r, s)
    return inner.reshape(shape + (ev.nodes.size,)) @ ev.weights


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
    shape, inner, (mean, sq) = _node_tables(ev, p, r, s, moments=True)
    full = shape + (ev.nodes.size,)
    d_s = mean.reshape(full) @ ev.weights
    r_b = np.broadcast_to(np.asarray(r, dtype=np.float64), shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_r = (mean * ev.nodes).reshape(full) @ ev.weights / (2.0 * np.sqrt(r_b))
    d_r = np.where(r_b > _R_LIMIT, d_r - 0.5 * (sq.reshape(full) @ ev.weights), -0.5 * d_s**2)
    return inner.reshape(full) @ ev.weights, d_r, d_s


def _check_r(r) -> None:
    if np.any(np.asarray(r) < 0):
        raise DomainError(f"r must be >= 0, got {r}")


def _maybe_doubling_check(ev: ChannelEvaluator, p: Prior, r: float, s: float):
    """Once per process and prior, compare against the doubled-node rule.

    Runs only for the default evaluator; a drift above 1e-8 signals that the
    quadrature has stopped resolving the integrand and is worth a warning.
    """
    if ev.node_count != DEFAULT_NODE_COUNT:
        return
    key = p.atoms
    if key in _DOUBLING_CHECKED:
        return
    _DOUBLING_CHECKED.add(key)
    ev2 = make_evaluator(2 * DEFAULT_NODE_COUNT - 1)
    a = float(psi_hat_array(ev, p, r, s))
    b = float(psi_hat_array(ev2, p, r, s))
    if abs(a - b) > _DOUBLING_TOL:
        warnings.warn(
            f"doubling quadrature nodes moved psi_hat by {abs(a - b):.3e} "
            f"at (r={r}, s={s}) for prior {p.name!r}",
            RuntimeWarning,
            stacklevel=3,
        )


def psi_hat(ev: ChannelEvaluator | None, p: Prior, r: float, s: float) -> float:
    """psi_hat(r, s) = E_z log int exp(sqrt(r) z x + s x - (r/2) x^2) dP(x)."""
    _check_r(r)
    ev = _resolve(ev)
    _maybe_doubling_check(ev, p, float(r), float(s))
    return float(psi_hat_array(ev, p, float(r), float(s)))


def psi_bar_array(ev: ChannelEvaluator | None, p: Prior, r, s) -> np.ndarray:
    """Vectorized psi_bar(r, s) = sum_{x*} w(x*) psi_hat(r, s * x*)."""
    ev = _resolve(ev)
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    r_b, s_b = np.broadcast_arrays(r, s)
    vals = psi_hat_array(ev, p, r_b[..., None], s_b[..., None] * p.values)
    return vals @ p.weights


def psi_bar(ev: ChannelEvaluator | None, p: Prior, r: float, s: float) -> float:
    """psi_bar(r, s) = E_{x*} psi_hat(r, s x*) with x* drawn from the prior."""
    _check_r(r)
    ev = _resolve(ev)
    _maybe_doubling_check(ev, p, float(r), float(s))
    return float(psi_bar_array(ev, p, float(r), float(s)))


def psi_array(ev: ChannelEvaluator | None, p: Prior, r) -> np.ndarray:
    """Vectorized psi(r) = psi_bar(r, r)."""
    r = np.asarray(r, dtype=np.float64)
    return psi_bar_array(ev, p, r, r)


def psi(ev: ChannelEvaluator | None, p: Prior, r: float) -> float:
    """psi(r) = E_{x*, z} log int exp(sqrt(r) z x + r x x* - (r/2) x^2) dP(x).

    Equals psi_bar(r, r): the planted tilt is s = r x* averaged over x*.
    """
    _check_r(r)
    ev = _resolve(ev)
    _maybe_doubling_check(ev, p, float(r), float(r))
    return float(psi_array(ev, p, float(r)))


def psi_prime(ev: ChannelEvaluator | None, p: Prior, r: float) -> float:
    """d psi / dr by finite differences with step h = max(1e-6, 1e-6 r).

    Central away from the boundary; second-order one-sided on [0, h) where a
    central stencil would need r < 0.  Accuracy ~1e-9, ample for the fixed
    point iteration q <- 2 psi'(lambda q).
    """
    _check_r(r)
    ev = _resolve(ev)
    r = float(r)
    h = max(1e-6, 1e-6 * r)
    if r >= h:
        vals = psi_array(ev, p, np.array([r - h, r + h]))
        return float((vals[1] - vals[0]) / (2.0 * h))
    vals = psi_array(ev, p, np.array([r, r + h, r + 2.0 * h]))
    return float((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h))


def asymmetry_gap(ev: ChannelEvaluator | None, p: Prior, r: float) -> float:
    """psi_bar(r, r) - psi_bar(r, -r); nonnegative for every prior and r >= 0."""
    _check_r(r)
    ev = _resolve(ev)
    r = float(r)
    vals = psi_bar_array(ev, p, np.array([r, r]), np.array([r, -r]))
    return float(vals[0] - vals[1])
