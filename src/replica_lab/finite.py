"""Finite-N spiked Wigner instances: exact enumeration and disorder averages.

An instance is one draw of the rank-one model

    Y_ij = sqrt(lambda/N) x*_i x*_j + W_ij,   1 <= i < j <= N,

with the diagonal omitted.  For finite-atom priors and small N the partition
function of the posterior is a finite sum over atom_count^N configurations,
so free entropies, overlap laws, per-site posterior means and
overlap-restricted (Franz-Parisi) partition sums are all computed exactly
per instance; outer expectations over the disorder (W, and where applicable
x* and the side noise) are plain Monte Carlo over instances with
counter-derived seeds.  A single-site Metropolis sampler covers sizes beyond
the enumeration budget.

Seed discipline: every disorder replica k uses derive_seed(master, k, ...),
so replica k's instance does not depend on the other replicas.  The energy
kernel stacks consecutive replicas into blocks sized from the enumerated rows
alone and reduces each replica on its own contiguous row, so runs are
reproducible bit-for-bit, and estimators over the same rows and replicas make
the same kernel calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EnumerationBudgetError, InvalidArgumentError
from .priors import Prior, prior_from_json, prior_to_json
from .report import VerificationReport
from .rs import _check_lambda

DEFAULT_BUDGET = 2**20

# Values held per block of the enumeration kernel: 2**20 doubles (8 MB).  A
# block of draws spans at most this many energies.  A block of configuration
# rows holds a sixteenth of it in pair features (512 KB), so that they stay in
# cache while the GEMM reads them: one draw over sparse:0.25 at n = 12 took
# 3.6x as long with 8 MB of features per block.
_BLOCK_VALUES = 2**20

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic per-replica seed from a master seed and counter indices."""
    words = [int(master) & _MASK64] + [int(i) & _MASK64 for i in indices]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


@lru_cache(maxsize=64)
def _triu(n: int):
    iu = np.triu_indices(n, k=1)
    return iu[0].copy(), iu[1].copy()


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpikedInstance:
    """One realization (N, lambda, spike, upper-triangular noise and Y)."""

    n: int
    lam: float
    spike: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)  # flat, row-major over i < j
    y: np.ndarray = field(repr=False)
    seed: int = 0

    def y_full(self) -> np.ndarray:
        """Symmetric Y with zero diagonal."""
        m = np.zeros((self.n, self.n))
        i, j = _triu(self.n)
        m[i, j] = self.y
        m[j, i] = self.y
        return m


def instance_from_parts(spike, noise, lam: float, seed: int = 0) -> SpikedInstance:
    """Assemble Y = sqrt(lambda/N) spike spike^T + W on the upper triangle.

    Single construction path: sample_instance and everything that rebuilds an
    instance from its parts go through here, so equal inputs give
    bit-identical Y.
    """
    spike = np.asarray(spike, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = spike.size
    i, j = _triu(n)
    y = math.sqrt(lam / n) * spike[i] * spike[j] + noise
    for arr in (spike, noise, y):
        arr.setflags(write=False)
    return SpikedInstance(n=n, lam=float(lam), spike=spike, noise=noise, y=y, seed=int(seed))


def _sample_atoms(p: Prior, count: int, rng) -> np.ndarray:
    """i.i.d. atoms by inverse CDF; explicit so the stream layout is frozen."""
    cum = np.cumsum(p.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(count), side="right")
    return p.values[np.minimum(idx, p.values.size - 1)]


def sample_instance(p: Prior, n: int, lam: float, seed: int) -> SpikedInstance:
    """Draw spike entries i.i.d. from the prior, then standard normal noise."""
    if n < 2:
        raise InvalidArgumentError(f"need n >= 2, got {n}")
    _check_lambda(lam)
    rng = np.random.default_rng(int(seed) & _MASK64)
    spike = _sample_atoms(p, n, rng)
    noise = rng.standard_normal(n * (n - 1) // 2)
    return instance_from_parts(spike, noise, lam, seed=seed)


def sample_spike(p: Prior, n: int, seed: int) -> np.ndarray:
    """n i.i.d. prior atoms; the spike-drawing half of sample_instance."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    return _sample_atoms(p, n, np.random.default_rng(int(seed) & _MASK64))


def instance_to_json(inst: SpikedInstance, p: Prior) -> dict:
    """Serialization envelope; noise is regenerated from the seed, never stored."""
    return {
        "n": inst.n,
        "lambda": inst.lam,
        "seed": inst.seed,
        "prior": prior_to_json(p),
    }


def instance_from_json(d: dict) -> SpikedInstance:
    return sample_instance(prior_from_json(d["prior"]), d["n"], d["lambda"], d["seed"])


def hamiltonian(inst: SpikedInstance, x) -> float:
    """-H(x) = sum_{i<j} sqrt(lambda/N) Y_ij x_i x_j - (lambda/2N) x_i^2 x_j^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise InvalidArgumentError(f"x must have length {inst.n}, got shape {x.shape}")
    i, j = _triu(inst.n)
    pp = x[i] * x[j]
    n = inst.n
    return float(math.sqrt(inst.lam / n) * (inst.y @ pp) - inst.lam / (2.0 * n) * (pp @ pp))


# ----------------------------------------------------------------------
# Exact enumeration
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnumTable:
    """All atom_count^n configurations with per-configuration invariants."""

    X: np.ndarray        # (M, n) configuration values
    logw: np.ndarray     # (M,) log prior mass
    pairsq: np.ndarray   # (M,) sum_{i<j} x_i^2 x_j^2
    sumsq: np.ndarray    # (M,) sum_i x_i^2


@dataclass(frozen=True)
class EnumerationResult:
    """log Z plus the posterior law of the spike overlap R_{1,*}."""

    log_z: float
    overlap_law: list  # [(overlap value, posterior probability)], sorted
    config_count: int


@lru_cache(maxsize=4)
def _enum_table(atoms: tuple, n: int) -> EnumTable:
    values = np.array([v for v, _ in atoms])
    logw = np.log(np.array([w for _, w in atoms]))
    a = values.size
    m = a**n
    idx = np.arange(m, dtype=np.int64)
    digits = np.empty((m, n), dtype=np.int64)
    for k in range(n):
        digits[:, k] = (idx // a**k) % a
    x = values[digits]
    logw_cfg = logw[digits].sum(axis=1)
    sumsq = (x**2).sum(axis=1)
    pairsq = 0.5 * (sumsq**2 - (x**4).sum(axis=1))
    for arr in (x, logw_cfg, pairsq, sumsq):
        arr.setflags(write=False)
    return EnumTable(X=x, logw=logw_cfg, pairsq=pairsq, sumsq=sumsq)


def enumeration_table(p: Prior, n: int, budget: int = DEFAULT_BUDGET) -> EnumTable:
    """Fetch (or build) the configuration table, refusing over-budget requests."""
    required = len(p.atoms) ** n
    if required > budget:
        raise EnumerationBudgetError(required=required, budget=budget)
    return _enum_table(p.atoms, n)


def _energy_parts(x: np.ndarray, spikes: np.ndarray, noises: np.ndarray):
    """The energy kernel: (Q_W, S) for a stack of D draws over the rows of x.

    spikes is (D, n) and noises (D, P), P = n(n-1)/2 over i < j row-major.
    -H(x) = sqrt(lam/N) Q_W(x) + (lam/N) S(x) - (lam/2N) pairsq(x), with the
    noise form Q_W = sum_{i<j} W_ij x_i x_j and the planted term
    S = sum_{i<j} x*_i x*_j x_i x_j.  Neither depends on lambda; _neg_energy
    combines them at any SNR.  Every exact consumer computes -H this way.

    Both are linear in the pair features x_i x_j, so one GEMM of the stacked
    coefficients [noises; spike pair products] against the features of a
    block of rows gives both.  The results are (D, rows), draw-major, so each
    draw's energies form one contiguous row.  Rows are walked in blocks of
    _BLOCK_VALUES // (16 max(n, P, 2D)) configurations, so no temporary
    exceeds _BLOCK_VALUES / 16 values beyond the results, each of which
    _draw_parts bounds by _BLOCK_VALUES.
    """
    d, n = spikes.shape
    i, j = _triu(n)
    pair_coef = np.concatenate([noises, spikes[:, i] * spikes[:, j]])
    parts = np.empty((2 * d, x.shape[0]))
    step = max(1, _BLOCK_VALUES // (16 * max(n, i.size, 2 * d)))
    for c in range(0, x.shape[0], step):
        xt = np.ascontiguousarray(x[c : c + step].T)
        parts[:, c : c + step] = pair_coef @ (xt[i] * xt[j])
    return parts[:d], parts[d:]


def _draw_parts(x: np.ndarray, n_draws: int, draw):
    """Yield (k0, spikes, parts): the kernel over consecutive blocks of draws.

    draw(k) returns draw k's (spike, noise).  A block holds the draws
    k0, k0+1, ... and at most _BLOCK_VALUES // max(rows, n, P) of them (at
    least one), so neither its stacked noises nor its (D, rows) parts exceed
    _BLOCK_VALUES values unless one draw's row alone does.  The blocks depend
    only on the rows and n_draws, so consumers that share both also share
    every kernel call.
    """
    rows, n = x.shape
    step = max(1, _BLOCK_VALUES // max(rows, n, n * (n - 1) // 2))
    for k0 in range(0, n_draws, step):
        block = [draw(k) for k in range(k0, min(k0 + step, n_draws))]
        spikes = np.stack([spike for spike, _ in block])
        yield k0, spikes, _energy_parts(x, spikes, np.stack([noise for _, noise in block]))


def _neg_energy(parts, pairsq: np.ndarray, lam: float, n: int) -> np.ndarray:
    """-H at SNR lam from the kernel's (Q_W, S) and the table's pairsq."""
    q_w, s = parts
    return math.sqrt(lam / n) * q_w + (lam / n) * s - lam / (2.0 * n) * pairsq


def _log_weights(table: EnumTable, rows, lam: float, n_draws: int, draw):
    """Yield (spike, log prior mass - H over table[rows]) per draw, in order.

    The energies come from _draw_parts; the combination runs one draw's
    contiguous row at a time.
    """
    x, logw, pairsq = table.X[rows], table.logw[rows], table.pairsq[rows]
    n = x.shape[1]
    for _, spikes, (q_w, s) in _draw_parts(x, n_draws, draw):
        for spike, q_w_k, s_k in zip(spikes, q_w, s):
            yield spike, logw + _neg_energy((q_w_k, s_k), pairsq, lam, n)


def _sampled_draws(p: Prior, n: int, lam: float, seed: int):
    """draw(k) of the instance sample_instance(p, n, lam, derive_seed(seed, k))."""

    def draw(k):
        inst = sample_instance(p, n, lam, derive_seed(seed, k))
        return inst.spike, inst.noise

    return draw


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


def _overlap_window(x: np.ndarray, spike: np.ndarray, m: float, eps: float) -> np.ndarray:
    """Mask of the rows of x with R_{1,*} in the half-open window [m, m + eps)."""
    overlap = x @ spike / spike.size
    return (overlap >= m) & (overlap < m + eps)


def _fixed_spike_noise(n: int, seed: int) -> np.ndarray:
    """The upper-triangular noise of a fixed-spike disorder draw."""
    return np.random.default_rng(int(seed) & _MASK64).standard_normal(n * (n - 1) // 2)


def _check_spike_in_support(p: Prior, spike: np.ndarray):
    if not np.isin(spike, p.values).all():
        raise InvalidArgumentError("spike entries must be atoms of the prior")


def log_partition_exact(inst: SpikedInstance, p: Prior, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """log Z by stable log-sum-exp over all configurations, with the overlap law."""
    _check_spike_in_support(p, inst.spike)
    table = enumeration_table(p, inst.n, budget)
    _, a = next(_log_weights(table, slice(None), inst.lam, 1, lambda k: (inst.spike, inst.noise)))
    log_z = _logsumexp(a)
    overlap = np.round(table.X @ inst.spike / inst.n, 9)
    vals, inv = np.unique(overlap, return_inverse=True)
    mass = np.bincount(inv, weights=np.exp(a - log_z))
    law = [(float(v), float(w)) for v, w in zip(vals, mass)]
    return EnumerationResult(log_z=log_z, overlap_law=law, config_count=table.X.shape[0])


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


def _check_disorder(n_disorder: int, name: str = "n_disorder") -> None:
    """Every Monte Carlo estimate averages over at least one disorder draw."""
    if n_disorder < 1:
        raise InvalidArgumentError(f"{name} must be >= 1, got {n_disorder}")


def _mc_estimate(values: np.ndarray, seed: int, empty: bool = False) -> McEstimate:
    values = np.asarray(values, dtype=np.float64)
    k = values.size
    mean = float(values.mean()) if k else float("nan")
    stderr = float(values.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_samples=k, seed=int(seed), empty_window=empty)


def free_entropy_mc(
    p: Prior, n: int, lam: float, n_disorder: int, seed: int, budget: int = DEFAULT_BUDGET
) -> McEstimate:
    """F_N estimate: average of (1/N) log Z over independent instances."""
    _check_disorder(n_disorder)
    table = enumeration_table(p, n, budget)
    draws = _log_weights(table, slice(None), lam, n_disorder, _sampled_draws(p, n, lam, seed))
    return _mc_estimate(np.array([_logsumexp(a) / n for _, a in draws]), seed)


def kl_log_likelihood_ratios(instances, p: Prior, budget: int = DEFAULT_BUDGET):
    """(log dP_lambda/dP_0 (Y), log Z) per instance, as two arrays.

    The instances share n and lambda.  The two are equal by the
    likelihood-ratio identity, and agreement to 1e-10 is a consistency check
    on two independent code paths.  log Z comes from the energy kernel.  The
    likelihood ratio integrates the Gaussian density ratio of Y given x over
    the prior without the kernel and without expanding a square: per pair
    i < j and per distinct atom product v it tabulates
    g = y^2/2 - (y - sqrt(lam/N) v)^2/2, and a configuration's exponent is
    the sum, pair by pair, of the entries at its products x_i x_j.  A block
    of draws holds at most _BLOCK_VALUES table entries and exponents, and a
    block of rows gathers at most _BLOCK_VALUES entries.
    """
    instances = list(instances)
    _check_disorder(len(instances), "instance count")
    n, lam = instances[0].n, instances[0].lam
    if any(inst.n != n or inst.lam != lam for inst in instances):
        raise InvalidArgumentError("instances must share n and lambda")
    for inst in instances:
        _check_spike_in_support(p, inst.spike)
    table = enumeration_table(p, n, budget)
    count, rows = len(instances), table.X.shape[0]
    i, j = _triu(n)
    products = np.unique(np.multiply.outer(p.values, p.values))
    offsets = products.size * np.arange(i.size)[:, None]
    coef = math.sqrt(lam / n)
    llr = np.empty(count)
    step_d = max(1, _BLOCK_VALUES // max(rows, i.size * products.size))
    for k0 in range(0, count, step_d):
        # g[p * V + v, d] for pair p, product v and draw d of the block.
        y = np.stack([inst.y for inst in instances[k0 : k0 + step_d]]).T[:, None, :]
        g = (0.5 * y**2 - 0.5 * (y - coef * products[:, None]) ** 2).reshape(-1, y.shape[2])
        exponents = np.empty((y.shape[2], rows))
        step_r = max(1, _BLOCK_VALUES // max(1, i.size * y.shape[2]))
        for c in range(0, rows, step_r):
            xt = np.ascontiguousarray(table.X[c : c + step_r].T)
            codes = np.searchsorted(products, xt[i] * xt[j]) + offsets
            acc = g[codes[0]]
            for code in codes[1:]:
                acc += g[code]
            exponents[:, c : c + step_r] = acc.T
        llr[k0 : k0 + y.shape[2]] = [_logsumexp(table.logw + e) for e in exponents]
    draws = _log_weights(table, slice(None), lam, count, lambda k: (instances[k].spike, instances[k].noise))
    return llr, np.array([_logsumexp(a) for _, a in draws])


def kl_log_likelihood_ratio(inst: SpikedInstance, p: Prior, budget: int = DEFAULT_BUDGET):
    """(log dP_lambda/dP_0 (Y), log Z) for one instance: kl_log_likelihood_ratios on [inst]."""
    llr, log_z = kl_log_likelihood_ratios([inst], p, budget)
    return float(llr[0]), float(log_z[0])


def _fixed_spike_draws(spike: np.ndarray, seed: int):
    """draw(k) at a fixed spike, noise _fixed_spike_noise(n, derive_seed(seed, k))."""
    return lambda k: (spike, _fixed_spike_noise(spike.size, derive_seed(seed, k)))


def _fixed_spike_setup(p: Prior, n: int, lam: float, eps: float, spike, n_disorder: int, budget: int):
    """Validated (spike, table) for the fixed-spike potentials."""
    if n < 2:
        raise InvalidArgumentError(f"need n >= 2, got {n}")
    _check_lambda(lam)
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidArgumentError(f"eps must be finite and > 0, got {eps}")
    _check_disorder(n_disorder)
    spike = np.asarray(spike, dtype=np.float64)
    if spike.shape != (n,):
        raise InvalidArgumentError(f"spike must have length {n}")
    _check_spike_in_support(p, spike)
    return spike, enumeration_table(p, n, budget)


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
    if not math.isfinite(m):
        raise InvalidArgumentError(f"m must be finite, got {m}")
    spike, table = _fixed_spike_setup(p, n, lam, eps, spike, n_disorder, budget)
    mask = _overlap_window(table.X, spike, m, eps)
    if not mask.any():
        return McEstimate(float("-inf"), 0.0, n_disorder, int(seed), empty_window=True)
    draws = _log_weights(table, mask, lam, n_disorder, _fixed_spike_draws(spike, seed))
    return _mc_estimate(np.array([_logsumexp(a) / n for _, a in draws]), seed)


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
    the list are unreachable (-inf).  One enumeration pass per disorder draw
    covers all windows, which is what makes the discretization bound of the
    free entropy affordable to test.
    """
    spike, table = _fixed_spike_setup(p, n, lam, eps, spike, n_disorder, budget)
    overlap = table.X @ spike / n
    bins = np.floor(overlap / eps).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    uniq, starts = np.unique(bins[order], return_index=True)
    sizes = np.diff(np.append(starts, order.size))
    per_draw = np.empty((n_disorder, uniq.size))
    draws = _log_weights(table, order, lam, n_disorder, _fixed_spike_draws(spike, seed))
    for k, (_, a) in enumerate(draws):
        seg_max = np.maximum.reduceat(a, starts)
        per_draw[k] = seg_max + np.log(np.add.reduceat(np.exp(a - np.repeat(seg_max, sizes)), starts))
    per_draw /= n
    return [
        (int(l), _mc_estimate(per_draw[:, c], seed))
        for c, l in enumerate(uniq)
    ]


def nishimori_check(
    p: Prior, n: int, lam: float, n_disorder: int, seed: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """E<R_{1,2}> = E<R_{1,*}>: replica-replica vs replica-spike overlap.

    Per instance, one kernel pass gives the posterior: <R_{1,*}> from the
    overlaps rounded to 9 digits as in log_partition_exact's overlap law,
    <R_{1,2}> from per-site means ((1/n) sum_i <x_i>^2); the check is on the
    disorder means with a paired standard error.
    """
    _check_disorder(n_disorder)
    table = enumeration_table(p, n, budget)
    r12 = np.empty(n_disorder)
    r1s = np.empty(n_disorder)
    draws = _log_weights(table, slice(None), lam, n_disorder, _sampled_draws(p, n, lam, seed))
    for k, (spike, a) in enumerate(draws):
        post = np.exp(a - _logsumexp(a))
        r12[k] = float(((post @ table.X) ** 2).mean())
        r1s[k] = float(post @ np.round(table.X @ spike / n, 9))
    diff = r12 - r1s
    delta = abs(float(diff.mean()))
    se = float(diff.std(ddof=1) / math.sqrt(n_disorder)) if n_disorder > 1 else 0.0
    # Absolute floor keeps rounding noise from flipping the verdict when both
    # sides vanish identically (sign-symmetric priors).
    allowance = 3.0 * se + 1e-12
    return VerificationReport(
        check="nishimori",
        params={
            "prior": p.name,
            "n": n,
            "lambda": lam,
            "n_disorder": n_disorder,
            "seed": seed,
            "mean_r12": float(r12.mean()),
            "mean_r1s": float(r1s.mean()),
        },
        slack=allowance - delta,
        stderr=se,
        allowance=allowance,
        passed=bool(delta <= allowance),
    )


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
    """
    if burn_in < 0 or n_sweeps <= burn_in:
        raise InvalidArgumentError(f"need n_sweeps > burn_in >= 0, got {n_sweeps}, {burn_in}")
    n = inst.n
    rng = np.random.default_rng(int(seed) & _MASK64)
    x = _sample_atoms(p, n, rng)
    proposals = _sample_atoms(p, n_sweeps * n, rng)
    log_u = np.log(rng.random(n_sweeps * n))
    ys = math.sqrt(inst.lam / n) * inst.y_full()
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
    return {
        "n": n,
        "lambda": lam,
        "quantity": quantity,
        "mean": est.mean,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "seed": est.seed,
    }
