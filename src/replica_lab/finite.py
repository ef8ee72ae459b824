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

Seed discipline: every disorder replica k uses derive_seed(master, k, ...)
so runs are reproducible bit-for-bit and replicas could be evaluated in any
order or in parallel; reductions here are sequential in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    EnumerationBudgetError,
    InvalidArgumentError,
)
from .priors import Prior, prior_from_json, prior_to_json
from .report import VerificationReport

DEFAULT_BUDGET = 2**20

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
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
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


def _energy_parts(x: np.ndarray, spike: np.ndarray, noise: np.ndarray):
    """The energy kernel: (Q_W, S) per configuration row of x.

    -H(x) = sqrt(lam/N) Q_W(x) + (lam/N) S(x) - (lam/2N) pairsq(x), with the
    noise form Q_W = sum_{i<j} W_ij x_i x_j (chunked matrix products) and the
    planted term S = sum_{i<j} x_i x*_i x_j x*_j = ((x.x*)^2 - sum_i x_i^2
    x*_i^2) / 2 (two mat-vecs).  Neither depends on lambda; _neg_energy
    combines them at any SNR.  Every exact consumer computes -H this way.
    """
    n = spike.size
    w = np.zeros((n, n))
    i, j = _triu(n)
    w[i, j] = noise
    w[j, i] = noise
    q_w = np.empty(x.shape[0])
    chunk = max(1, int(8_000_000 / max(1, n)))
    for c in range(0, x.shape[0], chunk):
        xb = x[c : c + chunk]
        q_w[c : c + chunk] = 0.5 * np.einsum("ck,ck->c", xb @ w, xb)
    xs = x @ spike
    return q_w, 0.5 * (xs * xs - np.einsum("ck,ck,k->c", x, x, spike * spike))


def _neg_energy(parts, pairsq: np.ndarray, lam: float, n: int) -> np.ndarray:
    """-H at SNR lam from the kernel's (Q_W, S) and the table's pairsq."""
    q_w, s = parts
    return math.sqrt(lam / n) * q_w + (lam / n) * s - lam / (2.0 * n) * pairsq


def _log_weights(table: EnumTable, inst: SpikedInstance) -> np.ndarray:
    """log prior mass - H of every configuration of the table for one instance."""
    parts = _energy_parts(table.X, inst.spike, inst.noise)
    return table.logw + _neg_energy(parts, table.pairsq, inst.lam, inst.n)


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
    a = _log_weights(table, inst)
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
    vals = np.empty(n_disorder)
    for k in range(n_disorder):
        vals[k] = _logsumexp(_log_weights(table, sample_instance(p, n, lam, derive_seed(seed, k)))) / n
    return _mc_estimate(vals, seed)


def kl_log_likelihood_ratio(inst: SpikedInstance, p: Prior, budget: int = DEFAULT_BUDGET):
    """(log dP_lambda/dP_0 (Y), log Z) -- equal by the likelihood-ratio identity.

    The first component integrates the Gaussian density ratio of Y given x
    over the prior (squares kept unexpanded), the second comes from the
    energy kernel; agreement to 1e-10 is a consistency check on both code
    paths.
    """
    _check_spike_in_support(p, inst.spike)
    table = enumeration_table(p, inst.n, budget)
    n = inst.n
    i, j = _triu(n)
    coef = math.sqrt(inst.lam / n)
    exponents = np.empty(table.X.shape[0])
    chunk = max(1, int(4_000_000 / max(1, i.size)))
    for c in range(0, table.X.shape[0], chunk):
        xb = table.X[c : c + chunk]
        pp = xb[:, i] * xb[:, j]
        exponents[c : c + chunk] = (0.5 * inst.y**2 - 0.5 * (inst.y - coef * pp) ** 2).sum(axis=1)
    return _logsumexp(table.logw + exponents), _logsumexp(_log_weights(table, inst))


def _fixed_spike_log_weights(
    table: EnumTable, rows, spike: np.ndarray, lam: float, n_disorder: int, seed: int
):
    """Yield log prior mass - H over table[rows] at a fixed spike, per draw k.

    Draw k's noise is _fixed_spike_noise(n, derive_seed(seed, k)), as on the
    fixed-spike interpolation path."""
    n = spike.size
    x, logw, pairsq = table.X[rows], table.logw[rows], table.pairsq[rows]
    for k in range(n_disorder):
        parts = _energy_parts(x, spike, _fixed_spike_noise(n, derive_seed(seed, k)))
        yield logw + _neg_energy(parts, pairsq, lam, n)


def _fixed_spike_setup(p: Prior, n: int, eps: float, spike, n_disorder: int, budget: int):
    """Validated (spike, table) for the fixed-spike potentials."""
    if eps <= 0:
        raise InvalidArgumentError(f"eps must be > 0, got {eps}")
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
    spike, table = _fixed_spike_setup(p, n, eps, spike, n_disorder, budget)
    mask = _overlap_window(table.X, spike, m, eps)
    if not mask.any():
        return McEstimate(float("-inf"), 0.0, n_disorder, int(seed), empty_window=True)
    draws = _fixed_spike_log_weights(table, mask, spike, lam, n_disorder, seed)
    return _mc_estimate(np.array([_logsumexp(a) / n for a in draws]), seed)


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
    spike, table = _fixed_spike_setup(p, n, eps, spike, n_disorder, budget)
    overlap = table.X @ spike / n
    bins = np.floor(overlap / eps).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    uniq, starts = np.unique(bins[order], return_index=True)
    sizes = np.diff(np.append(starts, order.size))
    per_draw = np.empty((n_disorder, uniq.size))
    for k, a in enumerate(_fixed_spike_log_weights(table, order, spike, lam, n_disorder, seed)):
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
    for k in range(n_disorder):
        inst = sample_instance(p, n, lam, derive_seed(seed, k))
        a = _log_weights(table, inst)
        post = np.exp(a - _logsumexp(a))
        r12[k] = float(((post @ table.X) ** 2).mean())
        r1s[k] = float(post @ np.round(table.X @ inst.spike / n, 9))
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
    x = _sample_atoms(p, n, rng).copy()
    total = n_sweeps * n
    cum = np.cumsum(p.weights)
    cum[-1] = 1.0
    prop_idx = np.minimum(
        np.searchsorted(cum, rng.random(total), side="right"), p.values.size - 1
    )
    log_u = np.log(rng.random(total))
    ys = math.sqrt(inst.lam / n) * inst.y_full()
    c1 = inst.lam / (2.0 * n)
    atoms = p.values
    s2 = float(x @ x)
    spike = inst.spike
    out = np.empty(n_sweeps - burn_in)
    k = 0
    for sweep in range(n_sweeps):
        for i in range(n):
            b = atoms[prop_idx[k]]
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
