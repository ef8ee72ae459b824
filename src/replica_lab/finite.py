"""Finite-N spiked Wigner instances: exact enumeration and disorder averages.

An instance is one draw of the rank-one model

    Y_ij = sqrt(lambda/N) x*_i x*_j + W_ij,   1 <= i < j <= N,

with the diagonal omitted.  For finite-atom priors and small N the partition
function of the posterior is a finite sum over atom_count^N configurations,
so free entropies, overlap laws, per-site posterior means, overlap-restricted
(Franz-Parisi) partition sums and the free entropy along the Guerra
interpolation path (_phi_t_draws) are all computed exactly per instance
(the path's unrestricted t = 0 end in closed form, as its sites decouple);
outer expectations over the disorder (W, and where applicable x* and the
side noise) are plain Monte Carlo over instances with counter-derived seeds.
A single-site Metropolis sampler covers sizes beyond the enumeration budget.

Every exact estimator is built from the same pieces: _configurations
enumerates the configurations and keeps one per sign orbit (below), for the
table and the likelihood ratio alike; _setup checks the inputs, one fixed
spike of length n among them, and fetches the table for every one of them,
the likelihood-ratio pair (kl_log_likelihood_ratio) included; _draws
fetches the disorder draws once as (spikes, noises), and _observations
forms their Y, for one instance or for stacked draws; _overlaps gives
R_{1,*} of the rows; the Gibbs pass _gibbs (_log_weights, then _fold) gives
per-(draw, SNR) log Z or Gibbs means of odd row statistics; _mc_estimate averages per-draw values, with
the -inf sentinel of an empty window.  _log_weights is the package's one
definition of -H; the path (_phi_t_draws) is one Gibbs pass at its SNRs
t lam with the side term of -H_t added, but for an unrestricted t = 0,
where -H_0 is a sum of one-site terms and each draw's log Z a sum of
one-site log-sum-exps (_one_site_log_z); the tests hold all three to
per-configuration evaluations of the definitions.  The Franz-Parisi
potential has one definition too (_window_estimate): one Gibbs pass over a
window's configurations, run by fp_potential for one window and by
fp_profile for each reachable one, on draws fetched once.

Seed discipline: every disorder replica k uses derive_seed(master, k, ...),
so replica k's instance does not depend on the other replicas.  The
replicas' streams are derived in one batch (_streams, a port of numpy's
SeedSequence to uint32 arrays, one row per replica), and each equals
default_rng(derive_seed(master, k, ...)) bit for bit; the tests hold it to
numpy's own SeedSequence, replica by replica.  The pass
walks the priced rows in row blocks and the replicas in draw blocks, both
sized from the priced rows, n and n_disorder alone (_blocks), so runs are
reproducible bit-for-bit, and estimators over the same rows and replicas
make the same kernel calls.  The bits of a replica's energies, though, can
move with n_disorder: sparse:0.25 at N = 8 (seed 5) gives replicas 0-2 with
2, 2 and 2 of their 3,281 energies that differ between 3 and 40 replicas,
by at most 7.1e-15, and their log Z by at most 4.4e-16 (3 against 40 or
400 replicas).

Per-block combine: the pass builds a row block's pair features once and
takes the kernel's (Q_W, S) for each draw block of it with one GEMM.  It
turns that block into log weights at each of its consumer's SNRs with one
shared elementwise combine (_log_weights), so a replica's log weights depend
only on its kernel value and its SNR, never on which replicas or SNRs share
the block.  It folds them into a per-(replica, SNR) online log-sum-exp
(_fold, read by _log_of), the layer's one, which log_partition_exact and
the likelihood ratio use too: a running maximum and the sum of exps
relative to it, rescaled when the maximum grows, with the mirrors counted
in the block that holds their representatives.  So no array spans the
replicas times the rows, and _BLOCK_VALUES bounds the working memory.  What
can move with the composition of a block is only what a BLAS product forms
over several replicas at once: the kernel's parts, the path's odd side
term, the overlaps, the Gibbs means, and the likelihood ratio's cross-sum
GEMM (_log_likelihood_ratios), in their last bits.  free_entropy_mc and
phi_of_t(t = 1) stay equal bit for bit: both are the same pass, and at
t = 1, where the side coefficients are exact zeros, the path forms no side
field, so its mirrors count as free_entropy_mc's do.

Sign fold: -H sees a configuration only through its pair products x_i x_j,
so with a sign-symmetric prior x and -x have the same energy and prior mass.
_configurations, the rule's one place, then keeps only the representatives,
whose first nonzero atom is positive: those with a distinct mirror, then the
all-zero row when 0 is an atom.  The table stores them, and the likelihood
ratio its first half's.  The configurations in order are the
representatives, then the negated rows [:mirrors] (0 stays +0.0):
_overlaps' columns, the one place that forms a mirror.  Even per-row terms
(log prior mass, pairsq, sumsq, the energy and the path's even side term)
are computed on the representatives, and the log-sum-exp counts rows
[:mirrors] a second time; odd terms (x.z and x.x* on the path, and R_{1,*})
enter as +odd on the representatives and -odd on the mirrors, and their
Gibbs means over all configurations are exact zeros (nishimori_check).  A
mirror's pair products, prior mass and square sums equal its
representative's bit for bit, so its value is the one the kernel computes
for its representative.  An asymmetric prior has no mirrors and runs the
same code with nothing to repeat.  The path prices the representatives for
a resampled and for a fixed spike alike, and drops the rows outside a
window with a mask; only the Franz-Parisi windows (_window_estimate) select
rows among all configurations, and price a mirror row reps + k as its
representative k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import priors
from .channel import EXPONENT_MAX, _check_scale
from .errors import DomainError, EnumerationBudgetError, InvalidArgumentError
from .errors import _check_count, _check_finite, _check_integer, _check_nonnegative, _check_positive
from .priors import Prior
from .report import VerificationReport

DEFAULT_BUDGET = 2**20

# Values held per block of the Gibbs pass: 2**16 doubles (512 KB).  It sizes
# the row and draw blocks of the energy kernel (_blocks), so that every array
# the pass forms stays within it, and the likelihood ratio's draw blocks and
# chunks of its (x_L, x_R) grid.
_BLOCK_VALUES = 2**16

def _seed_word(seed) -> int:
    """The layer's one seed rule: an integer seed (Python or numpy, negative included) mod 2**64,
    the word every stream starts from; InvalidArgumentError for any other seed, a float among them."""
    _check_integer("seed", seed)
    return int(seed) % 2**64


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic per-replica 64-bit seed from a master seed and counter indices (_seed_word each);
    the estimators derive it and its default_rng stream in one batch per replica set (_streams)."""
    words = [_seed_word(s) for s in (master, *indices)]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


# numpy's SeedSequence (numpy/random/bit_generator.pyx), ported to uint32
# arrays with one row per seed: the hash constants, mix's multipliers and
# the pool of 4 words.  uint32 array arithmetic wraps mod 2**32 as the C code's.
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=8)
def _hash_words(start: int, mult: int, count: int, gaps: tuple = ()) -> np.ndarray:
    """(2, count) uint32: the (xor, multiplier) words of count successive
    hashmix calls from hash constant start; each position in gaps holds zeros
    and takes no step."""
    words, h = np.zeros((2, count), dtype=np.uint32), start
    for k in sorted(set(range(count)) - set(gaps)):
        words[:, k] = h, (h := h * mult & _MASK32)
    words.setflags(write=False)
    return words


def _hashmix(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    x = values ^ words[0]
    x *= words[1]
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L)
    r -= y * np.uint32(_MIX_R)
    r ^= r >> 16
    return r


def _pool(entropy: np.ndarray) -> np.ndarray:
    """(D, 4) SeedSequence pools (mix_entropy) of the rows of a (D, L) uint32 entropy array.

    Round 0 hashes the first 4 words (zeros past L); round 1 + s, s < 4,
    mixes slot s into the other three, and s >= 4 entropy word s into all 4.
    """
    size = entropy.shape[1]
    words = _hash_words(_INIT_A, _MULT_A, 4 * (5 + max(0, size - 4)), gaps=(4, 9, 14, 19))
    pool = np.zeros((entropy.shape[0], 4), dtype=np.uint32)
    pool[:, : min(size, 4)] = entropy[:, :4]
    pool = _hashmix(pool, words[:, :4])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[:, s, None], words[:, 4 * s + 4 : 4 * s + 8]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for s in range(4, size):
        pool = _mix(pool, _hashmix(entropy[:, s, None], words[:, 4 * s + 4 : 4 * s + 8]))
    return pool


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """(D, n_words) uint32: SeedSequence.generate_state of each pool, low word first."""
    return _hashmix(pool[:, np.arange(n_words) % 4], _hash_words(_INIT_B, _MULT_B, n_words))


def _derived_seeds(master, count: int, *suffix) -> np.ndarray:
    """(count, 2) uint32: the low and high words of derive_seed(master, k, *suffix) for k < count.

    Each seed word enters the entropy as numpy's uint32 words of it, low
    word first ([0] for 0), and k as one word.
    """
    if count > 2**32:
        raise InvalidArgumentError(f"at most 2**32 replicas share a master seed, got {count}")
    head, tail = ([w >> b & _MASK32 for w in map(_seed_word, vs) for b in range(0, max(32, w.bit_length()), 32)]
                  for vs in ((master,), suffix))
    entropy = np.empty((count, len(head) + 1 + len(tail)), dtype=np.uint32)
    entropy[:] = head + [0] + tail
    entropy[:, len(head)] = np.arange(count)
    return _generate(_pool(entropy), 2)


@lru_cache(maxsize=1)
def _fixed_seed_sequence():
    """An ISeedSequence that hands PCG64 the 4 uint64 state words it is built
    with.  Built at first use: importing numpy.random costs about 12 ms, and
    importing replica_lab does not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedSeedSequence


def _streams(master, count: int, *suffix):
    """Yield np.random.default_rng(derive_seed(master, k, *suffix)) for k < count, bit for bit.

    The seeds come from one batch (_derived_seeds), and so do their
    SeedSequence states for PCG64: a seed's one or two words fill the pool
    with zeros either way.  Only the (count, 4) state words are held, and
    each generator is built when it is reached.
    """
    words = _generate(_pool(_derived_seeds(master, count, *suffix)), 8)
    state = words[:, 1::2].astype(np.uint64, order="C")
    state <<= 32
    state |= words[:, ::2]
    fixed = _fixed_seed_sequence()
    for row in state:
        yield np.random.Generator(np.random.PCG64(fixed(row)))


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpikedInstance:
    """One realization: the spike x*, the upper-triangular noise W and lambda,
    with Y = sqrt(lambda/N) x* x*^T + W on the upper triangle derived from them.

    The constructor is the one way to build an instance, so equal parts give
    bit-identical Y, and dataclasses.replace rebuilds Y from the new parts.
    The spike is a nonempty 1-d array of n values, the noise a 1-d array of
    its n(n-1)/2 pairs (InvalidArgumentError otherwise), and lambda is finite
    and >= 0 (DomainError otherwise); the arrays are stored as read-only
    float64 copies, so the caller's arrays stay as they were.
    """

    spike: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)  # flat, row-major over i < j
    lam: float
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spike = np.array(self.spike, dtype=np.float64)  # copies: the caller's arrays stay writable
        noise = np.array(self.noise, dtype=np.float64)
        n = spike.size
        if spike.shape != (n,) or n == 0:
            raise InvalidArgumentError(f"spike must be a nonempty 1-d array, got shape {spike.shape}")
        pairs = n * (n - 1) // 2
        if noise.shape != (pairs,):
            raise InvalidArgumentError(f"noise must have n(n-1)/2 = {pairs} entries, got shape {noise.shape}")
        lam = _check_nonnegative("lambda", self.lam)
        y = _observations(spike, noise, lam)
        for arr in (spike, noise, y):
            arr.setflags(write=False)
        for name, value in (("spike", spike), ("noise", noise), ("lam", lam), ("y", y)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.spike.size


def _observations(spikes: np.ndarray, noises: np.ndarray, lam: float) -> np.ndarray:
    """Y_ij = sqrt(lambda/N) x*_i x*_j + W_ij over i < j, for an (n,) spike or (D, n) spikes
    and their noises; each entry takes the same elementwise steps, so a stacked
    draw's Y is its instance's bit for bit."""
    n = spikes.shape[-1]
    i, j = np.triu_indices(n, 1)
    return math.sqrt(lam / n) * spikes[..., i] * spikes[..., j] + noises


def _atoms(p: Prior, u: np.ndarray) -> np.ndarray:
    """i.i.d. atoms by inverse CDF of the uniforms u; explicit so the stream layout is frozen."""
    cum = np.cumsum(p.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, u, side="right")
    return p.values[np.minimum(idx, p.values.size - 1)]


def _draws(p: Prior, n: int, seed: int, n_draws: int, spike=None):
    """(spikes, noises) of the instances sample_instance(p, n, ., derive_seed(seed, k)), k < n_draws,
    stacked: per stream the spike's n uniforms (unless a spike is given), then the
    upper-triangular standard normal noise, each written into its row."""
    noises = np.empty((n_draws, n * (n - 1) // 2))
    u = np.empty((n_draws, n)) if spike is None else None
    for k, rng in enumerate(_streams(seed, n_draws)):
        if u is not None:
            rng.random(out=u[k])
        rng.standard_normal(out=noises[k])
    return (np.tile(spike, (n_draws, 1)) if u is None else _atoms(p, u)), noises


def sample_instance(p: Prior, n: int, lam: float, seed: int) -> SpikedInstance:
    """Draw the spike i.i.d. from the prior, then standard normal noise; n >= 2 (the constructor checks lambda)."""
    _check_count("n", n, 2)
    rng = np.random.default_rng(_seed_word(seed))
    spike = _atoms(p, rng.random(n))
    return SpikedInstance(spike, rng.standard_normal(n * (n - 1) // 2), lam)


def sample_spike(p: Prior, n: int, seed: int) -> np.ndarray:
    """n >= 1 i.i.d. prior atoms; the spike-drawing half of sample_instance."""
    _check_count("n", n)
    return _atoms(p, np.random.default_rng(_seed_word(seed)).random(n))


# ----------------------------------------------------------------------
# Exact enumeration
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnumTable:
    """The representatives of the atom_count^n configurations with their invariants.

    For a sign-symmetric prior each of rows [:mirrors] also stands for its
    mirror, its negation, which is not stored; any other prior has none.
    The configurations number reps + mirrors.
    """

    X: np.ndarray        # (reps, n) configuration values
    logw: np.ndarray     # (reps,) log prior mass
    pairsq: np.ndarray   # (reps,) sum_{i<j} x_i^2 x_j^2
    sumsq: np.ndarray    # (reps,) sum_i x_i^2
    mirrors: int         # rows [:mirrors] have a mirror

    @property
    def reps(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class EnumerationResult:
    """log Z plus the posterior law of the spike overlap R_{1,*}."""

    log_z: float
    overlap_law: list  # [(overlap value, posterior probability)], sorted
    config_count: int


def _configurations(values, n: int, symmetric: bool):
    """(digits, mirrors): n sites' configurations as atom indices, site k the k-th base-a digit.

    With symmetric, the sign orbits' representatives: the rows whose first
    nonzero atom is positive (rows [:mirrors], each with a mirror), then the
    all-zero row if 0 is an atom.  Otherwise every row, and mirrors is 0.
    """
    a = len(values)
    digits = np.empty((a**n, n), dtype=np.min_scalar_type(a - 1))
    for k in range(n):  # digit k counts up once every a^k rows
        digits[:, k] = np.tile(np.repeat(np.arange(a, dtype=digits.dtype), a**k), a ** (n - 1 - k))
    if not symmetric:
        return digits, 0
    sign = np.sign(values).astype(np.int8)[digits]
    lead = np.take_along_axis(sign, (sign != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    del sign
    paired = np.flatnonzero(lead > 0)
    return digits[np.concatenate([paired, np.flatnonzero(lead == 0)])], paired.size


@lru_cache(maxsize=4)
def _enum_table(atoms: tuple, n: int, symmetric: bool) -> EnumTable:
    """_configurations' rows (the representatives if symmetric) with their values and even invariants."""
    values = np.array([v for v, _ in atoms]) + 0.0  # a -0.0 atom enters as +0.0
    logw = np.log(np.array([w for _, w in atoms]))
    digits, mirrors = _configurations(values, n, symmetric)
    # The invariants are even in x, so a mirror's are its representative's.
    # Each gathers a per-atom value through the digits, which is x^2, x^4 or
    # log w of that row's entries bit for bit.  x^4 is the square of x^2, not
    # numpy's x**4: that is a pow, about ten times slower on negative bases.
    sq = np.square(values)
    sumsq = sq[digits].sum(axis=1)
    pairsq = 0.5 * (sumsq**2 - np.square(sq)[digits].sum(axis=1))
    logw_cfg = logw[digits].sum(axis=1)
    x = values[digits]
    for arr in (x, logw_cfg, pairsq, sumsq):
        arr.setflags(write=False)
    return EnumTable(X=x, logw=logw_cfg, pairsq=pairsq, sumsq=sumsq, mirrors=mirrors)


def enumeration_table(p: Prior, n: int, budget: int = DEFAULT_BUDGET) -> EnumTable:
    """Fetch (or build) the configuration table, refusing n < 1 and over-budget requests."""
    _check_count("n", n)
    required = len(p.atoms) ** n
    if required > budget:
        raise EnumerationBudgetError(required=required, budget=budget)
    return _enum_table(p.atoms, n, priors._sign_symmetric(p))


def _blocks(rows: int, n: int, n_draws: int):
    """(row step, draw step) of the Gibbs pass over rows priced configurations of n sites.

    With m = max(n, P), P = n(n-1)/2 the pairs, the draws split into equal
    blocks (to one draw) of at most max(m, _BLOCK_VALUES // (2 rows)) draws,
    and a row block holds up to _BLOCK_VALUES // m configurations and as
    many as fill half the budget with a draw block (at least one of each).
    So a row block's pair features (P, rows) and transposed values (n, rows)
    stay within _BLOCK_VALUES, the kernel's (Q_W, S) for a draw block within
    it too, and each (draws, rows) array of log weights within half of it.
    Capping a draw block at m draws keeps a row block at least
    _BLOCK_VALUES // (2m) rows long however many draws there are: the
    log-sum-exp reduces along the rows, and at 400 draws over sparse:0.25's
    29,525 representatives (n = 10) the Guerra path took about 1.25x as
    long with rows of 81 as with rows of 728 (2-CPU AMD EPYC).  The steps
    depend only on the priced rows, n and n_draws, never on the SNRs a
    consumer combines at.
    """
    m = max(n, n * (n - 1) // 2)
    blocks = -(-n_draws // max(m, _BLOCK_VALUES // 2 // max(rows, 1)))
    d_step = -(-n_draws // blocks)
    return max(1, min(rows, _BLOCK_VALUES // m, _BLOCK_VALUES // 2 // d_step)), d_step


def _log_weights(table: EnumTable, rows, lams, draws, side_sq=None):
    """The energy kernel: yield (blk, ks, spikes, weights) per row block and draw block.

    rows None prices the whole table, and the consumer counts the mirrors
    of rows [:table.mirrors] itself (_gibbs); an index array names
    representatives, and one may appear twice (a mirror is priced as its
    representative).  draws = (spikes, noises) holds the disorder draws as
    (D, n) and (D, P) arrays, read by every row block; the draw count is
    theirs.  blk slices the row block's positions among the priced rows, ks
    the block's draw indices, and spikes holds their (D, n) spikes.
    weights(c) returns the (D, rows) log prior mass - H of the block's rows
    for its draws at SNR lams[c],

        -H(x) = sqrt(lam/N) Q_W + (lam/N) S - (lam/2N) pairsq,
        Q_W = sum_{i<j} W_ij x_i x_j,   S = sum_{i<j} x*_i x*_j x_i x_j,

    each entry (sqrt(lam/N) Q_W + (lam/N) S) + base, where the draw-free
    base is logw - (lam/2N) pairsq, minus side_sq[c] sumsq when side_sq is
    given.  Q_W and S do not depend on lambda, and both are linear in the
    pair features x_i x_j, which are built once per row block; one GEMM of a
    draw block's stacked coefficients [noises; spike pair products] against
    them gives both, draw-major.  Every entry then takes the same
    elementwise steps at any block shape, so its bits depend only on its
    draw's kernel value and its coefficients.  _blocks sizes every block, so
    consumers that share the priced rows and draw count share every kernel
    call, and no array spans the draws times the rows.
    """
    n = table.X.shape[1]
    i, j = np.triu_indices(n, 1)
    spikes, noises = draws
    n_draws = spikes.shape[0]
    count = table.reps if rows is None else rows.size
    r_step, d_step = _blocks(count, n, n_draws)
    pairs = spikes[:, i] * spikes[:, j]
    lams = np.asarray(lams, dtype=np.float64)[:, None]
    c_w, c_s = np.sqrt(lams / n), lams / n
    for r0 in range(0, count, r_step):
        blk = slice(r0, min(r0 + r_step, count))
        sel = blk if rows is None else rows[blk]
        xt = np.ascontiguousarray(table.X[sel].T)
        features = xt[i]
        features *= xt[j]
        base = table.logw[sel] - lams / (2.0 * n) * table.pairsq[sel]
        if side_sq is not None:
            base -= side_sq[:, None] * table.sumsq[sel]
        for k in range(0, n_draws, d_step):
            ks = slice(k, min(k + d_step, n_draws))
            parts = np.concatenate([noises[ks], pairs[ks]]) @ features
            q_w, s = parts[: ks.stop - k], parts[ks.stop - k :]

            def weights(c, q_w=q_w, s=s, base=base):
                a = c_w[c] * q_w
                a += c_s[c] * s
                a += base[c]
                return a

            yield blk, ks, spikes[ks], weights


def _fold(top: np.ndarray, total: np.ndarray, a: np.ndarray, mirrors: int, lo=None):
    """Fold a block of log weights a (D, rows) into D online log-sum-exps; returns (exps, scale).

    top and total (D,) hold each running maximum and the sum of exps
    relative to it (-inf and 0 before any block), and are updated in place.
    The block's first `mirrors` columns of a count twice: once more at the
    same value, or at lo's when it is given (an odd term entering with
    opposite signs).  a and lo are overwritten with their exps relative to
    the new maximum, and scale = exp(old top - new top) rescales the old
    sums, so a Gibbs mean accumulates Sum exp * stat the same way (_gibbs).
    A first block leaves the bits of a one-shot log-sum-exp over it, and a
    row whose entries are all -inf keeps top -inf and total 0.
    """
    new = np.maximum(top, a.max(axis=-1, initial=-np.inf))
    if lo is not None:
        np.maximum(new, lo.max(axis=-1, initial=-np.inf), out=new)
    shift = np.where(new > -np.inf, new, 0.0)
    scale = np.exp(top - shift)
    a -= shift[..., None]
    block = np.exp(a, out=a).sum(axis=-1)
    if lo is None:
        block += a[..., :mirrors].sum(axis=-1)
    else:
        lo -= shift[..., None]
        block += np.exp(lo, out=lo).sum(axis=-1)
    total *= scale
    total += block
    top[...] = new
    return a, scale


def _log_of(top: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The log-sum-exps that _fold accumulated: -inf over no finite entry."""
    with np.errstate(divide="ignore"):
        return top + np.log(total)


def _window_index(overlap: np.ndarray, m: float, eps: float) -> np.ndarray:
    """floor((R - m) / eps) rounded to 9 digits first, so that an R on a window edge starts it.

    The steps run in place on one array: over every configuration they
    would otherwise leave several of its size behind in the heap.
    """
    with np.errstate(over="ignore"):
        index = overlap - m
        index /= eps
        np.round(index, 9, out=index)
        return np.floor(index, out=index)


def _overlaps(table: EnumTable, spikes: np.ndarray, digits=None, block: slice = slice(None)) -> np.ndarray:
    """(D, configurations) R_{1,*} for each of the D spikes, in configuration order.

    One GEMM over the representatives in block (all of them by default); the
    mirrors of those among rows [:mirrors] follow with the negatives, so
    column reps + k is row k negated, and a window's rows index these
    columns.  With digits, the representatives' values are rounded to that
    many digits before the mirrors are formed.  A -0.0 is read as 0.0.
    """
    overlap = spikes @ table.X[block].T
    overlap /= spikes.shape[1]
    if digits is not None:
        np.round(overlap, digits, out=overlap)
    head = overlap[..., : max(0, table.mirrors - block.indices(table.reps)[0])]
    if head.size:
        overlap = np.concatenate([overlap, -head], axis=-1)
    overlap += 0.0
    return overlap


def _check_energy_scale(p: Prior, n: int, lam: float):
    """DomainError unless (lambda + n) n K^4 <= EXPONENT_MAX, after the lambda check.

    The table's pairsq and sumsq^2 reach n^2 K^4, and the energy's terms
    (lambda/N) S and (lambda/2N) pairsq, like the likelihood ratio's
    y^2/2, reach lambda n K^4, so every exponent, and the difference of
    two, stays below the float maximum.
    """
    _check_nonnegative("lambda", lam)
    k = p.bound
    scale = (lam + n) * n * (k * k) * (k * k)
    if not scale <= EXPONENT_MAX:
        raise DomainError(
            f"the energies reach (lambda + n) n K^4 = {scale:.3g}, above {EXPONENT_MAX:g} "
            f"(lambda = {lam}, n = {n}, K = {k})"
        )


def _setup(p: Prior, n: int, lam: float, n_disorder: int, budget: int, window=None, spike=None):
    """Validated (spike, table) for an exact estimator: the one input check of them all.

    n is an integer >= 2, and lambda and n pass _check_energy_scale; a window
    (m, eps) has a start m that passes every m's rule (_check_finite) and a
    finite width eps > 0; n_disorder is an integer >= 1; a spike is one fixed
    spike of shape (n,), with entries among the prior's atoms, with or without
    a window; None (a resampled spike) stays None; budget None fetches no table.
    """
    _check_count("n", n, 2)
    _check_energy_scale(p, n, lam)
    if window is not None:
        m, eps = window
        _check_finite("m", m)
        _check_positive("eps", eps)
    _check_count("n_disorder", n_disorder)
    if spike is not None:
        spike = np.asarray(spike, dtype=np.float64)
        if spike.shape != (n,):
            raise InvalidArgumentError(f"spike must have length {n}")
        if not np.isin(spike, p.values).all():
            raise InvalidArgumentError("spike entries must be atoms of the prior")
    return spike, None if budget is None else enumeration_table(p, n, budget)


def _gibbs(table: EnumTable, rows, lams, draws, side=None, odd=None) -> np.ndarray:
    """The Gibbs pass: (D, L) log Z at the L SNRs lams over the table rows
    indexed by rows, or with rows None over the representatives and their
    mirrors, for the disorder draws = (spikes, noises) of _log_weights.

    It walks _log_weights' blocks and, within each, the SNRs, folding each
    into a per-(draw, SNR) online log-sum-exp (_fold).  side = (sq, field,
    window) adds a one-body term at rows None: the even -sq[c] sum_i x_i^2,
    the odd field(c, ks, spikes) . x, which a mirror takes with the opposite
    sign, and, unless window is None, -inf outside the (m, eps) window of
    R_{1,*}.  A column whose field is None (an exact zero) forms no field
    product and no mirror copy: its mirrors count as their representatives,
    as without a side term, or as a copy of them that the window masks, and
    the bits are those of the zero field.  With odd, it returns instead the
    (D, L, k) Gibbs means of statistics odd in x: odd(spikes, blk) gives a
    block's values as arrays (rows, k_g) or (D, rows, k_g), k_g summing to
    k, whose products with the fold's exps accumulate with the same
    rescaling.  It adds no mirror's
    statistic, so odd needs a table without mirrors or rows given; on a
    sign-folded table the means are exact zeros, which nishimori_check
    returns without a pass.
    """
    lams = np.asarray(lams, dtype=np.float64)
    shape = (draws[0].shape[0], lams.size)
    top, total, sums = np.full(shape, -np.inf), np.zeros(shape), None
    sq, field, window = (None, None, None) if side is None else side
    paired = table.mirrors if rows is None else 0  # rows [:paired] have a mirror
    for blk, ks, spikes, weights in _log_weights(table, rows, lams, draws, sq):
        mirrors = max(0, min(blk.stop, paired) - blk.start)
        if window is not None:
            outside = _window_index(_overlaps(table, spikes, block=blk), *window) != 0
        for c in range(lams.size):
            a, lo = weights(c), None
            f = None if field is None else field(c, ks, spikes)
            if f is not None:
                h = f @ table.X[blk].T
                lo = a[:, :mirrors] - h[:, :mirrors]
                a += h
                del h
            if window is not None:
                if lo is None:
                    lo = a[:, :mirrors].copy()
                np.copyto(a, -np.inf, where=outside[:, : a.shape[1]])
                np.copyto(lo, -np.inf, where=outside[:, a.shape[1] :])
            e, scale = _fold(top[ks, c], total[ks, c], a, mirrors, lo)
            if odd is not None:  # formed after the fold, so no block array waits beside the weights
                block = np.concatenate([np.matmul(e[:, None], v)[:, 0] for v in odd(spikes, blk)], axis=-1)
                if sums is None:
                    sums = np.zeros(shape + block.shape[-1:])
                sums[ks, c] *= scale[:, None]
                sums[ks, c] += block
            del a, e, f, lo  # before the next weights are formed
    return _log_of(top, total) if odd is None else sums / total[..., None]


def log_partition_exact(inst: SpikedInstance, p: Prior) -> EnumerationResult:
    """log Z by stable log-sum-exp over all configurations, with the overlap law (DEFAULT_BUDGET)."""
    spike, table = _setup(p, inst.n, inst.lam, 1, DEFAULT_BUDGET, spike=inst.spike)
    blocks = _log_weights(table, None, [inst.lam], (spike[None], inst.noise[None]))
    top, total = np.full(1, -np.inf), np.zeros(1)
    e = _fold(top, total, np.concatenate([weights(0) for *_, weights in blocks], axis=1), table.mirrors)[0][0]
    log_z = float(_log_of(top, total)[0])
    vals, inv = np.unique(_overlaps(table, spike[None], 9)[0], return_inverse=True)
    mass = np.bincount(inv, weights=np.concatenate([e, e[: table.mirrors]]) / total[0])
    law = [(float(v), float(w)) for v, w in zip(vals, mass)]
    return EnumerationResult(log_z=log_z, overlap_law=law, config_count=table.reps + table.mirrors)


# ----------------------------------------------------------------------
# Disorder Monte Carlo
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    """Mean and standard error over independent disorder replicas.

    empty_window flags the minus-infinity sentinel of an overlap window that
    no configuration can reach (the mean is then -inf by convention).
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int
    empty_window: bool = False


def _mean_stderr(values: np.ndarray):
    """(mean, std(ddof=1) / sqrt(count)) over the leading axis; stderr 0 for one value.

    The values are divided by the power of two that takes their largest
    magnitude to at most 2**500, and the results multiplied back.  Both steps
    are exact, so the bits are numpy's wherever the values stay below 2**500,
    and beyond it the sums of values and squared deviations stay finite for
    values up to the float maximum (an energy-scale log Z / n).
    """
    scale = math.ldexp(1.0, max(0, math.frexp(float(np.abs(values).max(initial=0.0)))[1] - 500))
    v = values / scale
    mean = v.mean(axis=0) * scale
    if values.shape[0] < 2:
        return mean, np.zeros_like(mean)
    return mean, v.std(axis=0, ddof=1) / math.sqrt(values.shape[0]) * scale


def _mc_estimate(values: np.ndarray, seed: int) -> McEstimate:
    """McEstimate of the per-draw values; the -inf sentinel when a draw's window is empty (-inf)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        return McEstimate(float("-inf"), 0.0, values.size, int(seed), empty_window=True)
    mean, stderr = _mean_stderr(values)
    return McEstimate(mean=float(mean), stderr=float(stderr), n_samples=values.size, seed=int(seed))


def free_entropy_mc(
    p: Prior, n: int, lam: float, n_disorder: int, seed: int, budget: int = DEFAULT_BUDGET
) -> McEstimate:
    """F_N estimate: average of (1/N) log Z over independent instances."""
    _, table = _setup(p, n, lam, n_disorder, budget)
    log_z = _gibbs(table, None, [lam], _draws(p, n, seed, n_disorder))[:, 0]
    return _mc_estimate(log_z / n, seed)


def _log_likelihood_ratios(ys: np.ndarray, p: Prior, n: int, lam: float) -> np.ndarray:
    """log dP_lambda/dP_0 (Y) per row of ys, the (draws, pairs) Y_ij over i < j.

    It equals log Z by the likelihood-ratio identity, and agreement to 1e-10
    checks one side against the other (kl_log_likelihood_ratio, and
    _kl_pair_draws for stacked draws).  The two share the log-sum-exp (_fold)
    and the enumeration with its sign-orbit rule (_configurations), which
    tests/test_finite.py checks on its own: TestSignFold::test_orbit_table
    against itertools.product, and test_matches_unfolded with the fold turned
    off.  The ratio integrates the Gaussian density ratio of Y given x over the
    prior without the energy kernel or the table, and without expanding a
    square: per pair i < j and atoms v_b, v_c it tabulates
    g_ij(v_b v_c) = y^2/2 - (y - sqrt(lam/N) v_b v_c)^2/2.  With the sites
    split into L, the first n // 2, and R, the rest, a configuration's
    exponent is logw + E_L(x_L) + E_R(x_R) + C(x_L, x_R).  E_L and E_R
    gather-add the pairs within a half over that half's configurations; the
    cross sum C is a GEMM of M[x_L, (j, c)] = sum_{i in L} g_ij(x_i v_c)
    against R's one-hot digits.  For a
    sign-symmetric prior, whose exponent and mass are even in x, L holds only
    the representatives (_configurations), a paired one at an added log 2, and
    R all of its configurations.  A block of draws holds at most _BLOCK_VALUES
    values in each array (at least one draw), and the (x_L, x_R) grid of
    exponents is formed a chunk of x_L at a time, at most 2 _BLOCK_VALUES
    values (at least one x_L), and folded into a per-draw online log-sum-exp
    (_fold), so no array spans the draws times the configurations.
    """
    atoms, h = len(p.atoms), n // 2
    i, j = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[i, j] = np.arange(i.size)
    d_l, paired = _configurations(p.values, h, priors._sign_symmetric(p))
    d_r, _ = _configurations(p.values, n - h, False)
    w_l, w_r = p.log_weights[d_l].sum(axis=1), p.log_weights[d_r].sum(axis=1)
    w_l[:paired] += math.log(2.0)  # a paired representative stands for its mirror too

    def codes(d, first):
        # (pairs, rows): where each pair within a half reads a draw's flat g
        u, v = np.triu_indices(d.shape[1], k=1)
        return (pair[u + first, v + first][:, None] * atoms + d[:, u].T) * atoms + d[:, v].T

    def one_hot(d):
        return (d[:, :, None] == np.arange(atoms)).reshape(d.shape[0], -1).astype(np.float64)

    codes_l, codes_r, hot_l = codes(d_l, 0), codes(d_r, h), one_hot(d_l)
    # R's one-hot digits over a row of ones, which picks up the column logw_L + E_L
    hot_r = np.concatenate([one_hot(d_r).T, np.ones((1, d_r.shape[0]))])
    rows_l, (cols, rows_r) = d_l.shape[0], hot_r.shape
    products = np.multiply.outer(p.values, p.values).ravel()
    coef = math.sqrt(lam / n)
    top, total = np.full(ys.shape[0], -np.inf), np.zeros(ys.shape[0])
    step = max(1, _BLOCK_VALUES // max(rows_r, rows_l * cols, i.size * products.size))
    for k0 in range(0, ys.shape[0], step):
        y = ys[k0 : k0 + step, :, None]
        d = y.shape[0]
        g = 0.5 * y**2 - 0.5 * (y - coef * products) ** 2  # g[d, pair(i, j), b * atoms + c]
        flat = g.reshape(d, -1)
        e_l, e_r = np.tile(w_l, (d, 1)), np.tile(w_r, (d, 1))
        for e, half in ((e_l, codes_l), (e_r, codes_r)):
            for code in half:
                e += flat[:, code]
        # M[d, x_L, (j, c)] = sum_{i in L} g_ij(x_i v_c), beside logw_L + E_L
        cross = g.reshape(d, i.size, atoms, atoms)[:, pair[:h, h:]].transpose(0, 1, 3, 2, 4)
        lhs = np.empty((d, rows_l, cols))
        np.matmul(hot_l, cross.reshape(d, hot_l.shape[1], cols - 1), out=lhs[:, :, :-1])
        lhs[:, :, -1] = e_l
        # the (x_L, x_R) grid a chunk of x_L at a time, folded per draw; a
        # chunk holds up to twice the budget, since its GEMM's inner dimension
        # is only cols: at the budget itself sparse:0.25 at n = 10 took 1.4x
        # as long, on many small GEMMs
        chunk = max(1, 2 * _BLOCK_VALUES // (d * rows_r))
        for l0 in range(0, rows_l, chunk):
            exponents = (lhs[:, l0 : l0 + chunk].reshape(-1, cols) @ hot_r).reshape(d, -1, rows_r)
            exponents += e_r[:, None, :]
            _fold(top[k0 : k0 + d], total[k0 : k0 + d], exponents.reshape(d, -1), 0)
            del exponents  # before the next chunk's are formed
    return _log_of(top, total)


def _kl_pair_draws(p: Prior, n: int, lam: float, n_draws: int, seed: int, budget: int = DEFAULT_BUDGET):
    """(log dP_lambda/dP_0 (Y), log Z) as two arrays, one entry per
    sample_instance(p, n, lam, derive_seed(seed, k)) for k < n_draws.

    The instances are not built one by one: their (spikes, noises) are one
    _draws call, and their Y one _observations call, so every value equals
    the instances' own bit for bit.  log Z comes from the Gibbs pass
    (_gibbs), the ratio from _log_likelihood_ratios.
    """
    _, table = _setup(p, n, lam, n_draws, budget)
    spikes, noises = _draws(p, n, seed, n_draws)
    log_z = _gibbs(table, None, [lam], (spikes, noises))[:, 0]
    return _log_likelihood_ratios(_observations(spikes, noises, lam), p, n, lam), log_z


def kl_log_likelihood_ratio(inst: SpikedInstance, p: Prior):
    """(log dP_lambda/dP_0 (Y), log Z) for one instance, equal by the
    likelihood-ratio identity: one draw of _kl_pair_draws' two passes (DEFAULT_BUDGET)."""
    spike, table = _setup(p, inst.n, inst.lam, 1, DEFAULT_BUDGET, spike=inst.spike)
    log_z = _gibbs(table, None, [inst.lam], (spike[None], inst.noise[None]))[0, 0]
    return float(_log_likelihood_ratios(inst.y[None], p, inst.n, inst.lam)[0]), float(log_z)


def _window_estimate(table: EnumTable, rows: np.ndarray, lam: float, draws, seed: int) -> McEstimate:
    """Phi over the configurations rows (_overlaps' columns, ascending), mirrors as representatives."""
    log_z = _gibbs(table, rows % table.reps, [lam], draws)[:, 0]
    return _mc_estimate(log_z / table.X.shape[1], seed)


def fp_potential(
    p: Prior,
    n: int,
    lam: float,
    m: float,
    eps: float,
    spike,
    n_disorder: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> McEstimate:
    """Franz-Parisi potential: (1/N) E_W log of the partition sum restricted
    to configurations with R_{1,*} in [m, m+eps), at a fixed spike.

    The window is half-open and the disorder average is over W only.  An
    unreachable window returns the -inf sentinel with empty_window set.
    """
    spike, table = _setup(p, n, lam, n_disorder, budget, (m, eps), spike)
    rows = np.flatnonzero(_window_index(_overlaps(table, spike[None])[0], m, eps) == 0)
    return _window_estimate(table, rows, lam, _draws(p, n, seed, n_disorder, spike), seed)


def fp_profile(
    p: Prior,
    n: int,
    lam: float,
    eps: float,
    spike,
    n_disorder: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Phi_eps(l*eps, spike) for every reachable window index l at once.

    Returns [(l, McEstimate)] for the nonempty windows; windows absent from
    the list are unreachable (-inf).  Each window is priced as fp_potential
    prices it (_window_estimate), one Gibbs pass over its configurations,
    so every entry equals fp_potential(l * eps) bit for bit.  One stable
    argsort of the window indices groups the configurations: each window's
    rows are a run of it, in ascending order as fp_potential selects them.
    The draws are fetched once and shared by every window's pass.  Window
    indices reach K^2/eps, K the support bound, so an eps that takes them
    past 2**53, where they are no longer exact integers, is refused.
    """
    spike, table = _setup(p, n, lam, n_disorder, budget, (0.0, eps), spike)
    if not p.bound**2 / eps <= 2**53:
        raise InvalidArgumentError(f"eps must be >= K^2 / 2**53 for exact window indices, got {eps!r}")
    bins = _window_index(_overlaps(table, spike[None])[0], 0.0, eps).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(bins[order])) + 1)
    draws = _draws(p, n, seed, n_disorder, spike)
    return [(int(bins[run[0]]), _window_estimate(table, run, lam, draws, seed)) for run in runs]


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
    """Per-draw free entropies of the interpolation path, shape (n_disorder, len(t_values)).

    The path is interpolation.phi_of_t's, whose docstring gives -H_t.  The
    spike is resampled per draw when spike is None (the expectation over x*
    of the lower-bound argument) and held fixed otherwise (the fixed-spike
    potential of the upper-bound argument); the disorder (W, z) is drawn once
    per draw and shared across every t.  Without a window, -H_0 is a sum of
    one-site terms, so each t = 0 column is the closed form
    (1/N) sum_i log sum_v w_v exp(sqrt(r) z_i v + s x*_i v - r v^2/2) on
    the same draws (_one_site_log_z), with no enumeration: a call of such
    columns alone fetches no table and is not held to the budget.  The
    other t are one Gibbs pass at the SNRs t lam with the side term: the even
    -(1-t) r/2 sum_i x_i^2 and the odd field sqrt((1-t) r) z + (1-t) s x*.
    A window (restricted, an (m_window, eps) pair) couples the sites, so
    every t, t = 0 included, goes through the pass, which drops the rows
    outside it; a draw with none left gets -inf.  Where the field is an
    exact zero (t = 1, or r = s = 0), the pass forms no field product and
    no mirror copy (_gibbs), so t = 1 is free_entropy_mc's pass bit for bit,
    and the t > 0 columns keep their bits whatever other t share the call
    (_blocks does not depend on the SNR count).  Every t lies in [0, 1],
    and r = lam q and s = lam m pass channel._check_scale at extent
    max(q, |m|).
    """
    _check_nonnegative("q", q)
    _check_finite("m", m)
    t = np.array([float(v) for v in t_values])
    for v in t:
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"t must lie in [0, 1], got {v}")
    closed = (t == 0.0) & (restricted is None)
    spike, table = _setup(p, n, lam, n_disorder, None if closed.all() else budget, restricted, spike)
    _check_scale(p, lam, max(q, abs(m)))
    r, s = lam * q, lam * m
    draws = _draws(p, n, seed, n_disorder, spike)
    z = np.empty((n_disorder, n))
    for row, rng in zip(z, _streams(seed, n_disorder, 1)):
        rng.standard_normal(out=row)
    log_z = np.empty((n_disorder, t.size))
    if closed.any():
        log_z[:, closed] = _one_site_log_z(p, r, s, z, draws[0])[:, None]
    if not closed.all():
        tp = t[~closed]
        side_z, side_s = np.sqrt((1.0 - tp) * r), (1.0 - tp) * s

        def field(c, ks, spikes):
            return None if side_z[c] == side_s[c] == 0.0 else side_z[c] * z[ks] + side_s[c] * spikes

        log_z[:, ~closed] = _gibbs(table, None, tp * lam, draws, ((1.0 - tp) * r / 2.0, field, restricted))
    return log_z / n


def _one_site_log_z(p: Prior, r: float, s: float, z: np.ndarray, spikes: np.ndarray) -> np.ndarray:
    """(D,) log Z of the t = 0 path: sum_i log sum_v w_v exp(sqrt(r) z_i v + s x*_i v - r v^2/2).

    One (D, n, atoms) array of exponents, a log-sum-exp over the atoms
    (shifted by their maximum), summed over the sites.
    """
    v = p.values
    e = math.sqrt(r) * z[..., None] * v + s * spikes[..., None] * v - r * v * v / 2.0 + p.log_weights
    top = e.max(axis=-1)
    e -= top[..., None]
    return (top + np.log(np.exp(e, out=e).sum(axis=-1))).sum(axis=1)


def nishimori_check(
    p: Prior, n: int, lam: float, n_disorder: int, seed: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """E<R_{1,2}> = E<R_{1,*}>: replica-replica vs replica-spike overlap.

    Per instance, the Gibbs pass gives the posterior means of two odd
    statistics: x_i, for <R_{1,2}> = (1/n) sum_i <x_i>^2, and R_{1,*} rounded
    to 9 digits as in log_partition_exact's overlap law.  The check is on the
    disorder means with a paired standard error.

    For a sign-symmetric prior the check is vacuous: the posterior is even in
    x (the data enter only through x x^T), so both sides vanish by the
    x -> -x symmetry: a sign-folded table returns them as exact zeros
    before any disorder is drawn or priced, and params["skipped"] says so.  Only a prior without the symmetry (asym:P,
    point:C) tests the identity.
    """
    _, table = _setup(p, n, lam, n_disorder, budget)
    _check_integer("seed", seed)  # a sign-folded table draws nothing, and the seed is still reported
    if table.mirrors:
        means = np.zeros((n_disorder, n + 1))
    else:
        means = _gibbs(table, None, [lam], _draws(p, n, seed, n_disorder),
                       odd=lambda spikes, blk: (table.X[blk], _overlaps(table, spikes, 9, blk)[..., None]))[:, 0]
    r12, r1s = (means[:, :n] ** 2).mean(axis=1), means[:, n]
    mean_diff, se = _mean_stderr(r12 - r1s)
    delta, se = abs(float(mean_diff)), float(se)
    # The absolute floor absorbs rounding noise where both sides are equal.
    allowance = 3.0 * se + 1e-12
    params = {"prior": p.name, "n": n, "lambda": lam, "n_disorder": n_disorder, "seed": seed,
              "mean_r12": float(r12.mean()), "mean_r1s": float(r1s.mean())}
    if table.mirrors:
        params["skipped"] = "sign-symmetric prior: both sides vanish exactly"
    return VerificationReport.from_slack("nishimori", params, allowance - delta, se, allowance)


# ----------------------------------------------------------------------
# Metropolis sampling beyond the enumeration budget
# ----------------------------------------------------------------------

def metropolis_sampler(
    inst: SpikedInstance,
    p: Prior,
    n_sweeps: int,
    burn_in: int,
    seed: int,
) -> np.ndarray:
    """Single-site Metropolis on the posterior; returns one overlap per sweep.

    Proposals draw a fresh atom from the prior, so the prior weights cancel
    in the acceptance ratio and accept = min(1, exp(delta(-H))).  The energy
    change per site flip is O(n) via the cached symmetric Y row and a running
    sum of squares.  Overlaps are recorded once per sweep after burn_in.
    n_sweeps, burn_in and seed are integers (a Python or numpy integer).
    """
    _check_integer("n_sweeps", n_sweeps)
    _check_integer("burn_in", burn_in)
    if burn_in < 0 or n_sweeps <= burn_in:
        raise InvalidArgumentError(f"need n_sweeps > burn_in >= 0, got {n_sweeps}, {burn_in}")
    n = inst.n
    rng = np.random.default_rng(_seed_word(seed))
    x = _atoms(p, rng.random(n))
    proposals = _atoms(p, rng.random(n_sweeps * n))
    log_u = np.log(rng.random(n_sweeps * n))
    rows, cols = np.triu_indices(n, 1)
    ys = np.zeros((n, n))  # the symmetric Y, zero diagonal, scaled by sqrt(lambda/n)
    ys[rows, cols] = ys[cols, rows] = inst.y
    ys *= math.sqrt(inst.lam / n)
    c1 = inst.lam / (2.0 * n)
    s2 = float(x @ x)
    spike = inst.spike
    out = np.empty(n_sweeps - burn_in)
    k = 0
    for sweep in range(n_sweeps):
        for i in range(n):
            b = proposals[k]
            a = x[i]
            if b != a:
                de = (b - a) * float(ys[i] @ x) - c1 * (b * b - a * a) * (s2 - a * a)
                if de >= 0.0 or log_u[k] < de:
                    x[i] = b
                    s2 += b * b - a * a
            k += 1
        if sweep >= burn_in:
            out[sweep - burn_in] = x @ spike / n
    return out


# ----------------------------------------------------------------------
# CSV schema shared with the CLI
# ----------------------------------------------------------------------

MC_CSV_FIELDS = ("n", "lambda", "quantity", "mean", "stderr", "n_samples", "seed")


def mc_csv_record(n: int, lam: float, quantity: str, est: McEstimate) -> dict:
    return dict(zip(MC_CSV_FIELDS, (n, lam, quantity, est.mean, est.stderr, est.n_samples, est.seed)))
