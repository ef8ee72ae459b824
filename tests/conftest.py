"""Shared fixtures and Monte Carlo oracles for the test suite.

The MC oracles here are deliberately independent of the library's quadrature
path: they average over explicit standard normal samples, in chunks, and
report a standard error so tests can assert 3-sigma agreement.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from replica_lab import DomainError, InvalidArgumentError, SpikedInstance, derive_seed, free_entropy_mc, standard_priors
from replica_lab.channel import make_evaluator


@pytest.fixture(scope="session")
def ev():
    return make_evaluator(61)


@pytest.fixture(scope="session")
def priors():
    return standard_priors()


def broadcast_psi_hat(ev, p, r, s):
    """Reference kernel: one (..., G, A) broadcast, its atoms summed in storage order."""
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    r_b, s_b = np.broadcast_arrays(r, s)
    z = ev.nodes
    v = p.values
    lw = p.log_weights
    a = (
        np.sqrt(r_b)[..., None, None] * z[:, None] * v[None, :]
        + s_b[..., None, None] * v[None, :]
        - 0.5 * r_b[..., None, None] * v[None, :] ** 2
        + lw[None, :]
    )
    m = a.max(axis=-1)
    terms = np.exp(a - m[..., None])
    total = terms[..., 0].copy()
    for k in range(1, v.size):
        total += terms[..., k]
    inner = m + np.log(total)
    return inner @ ev.weights


def broadcast_psi(ev, p, r):
    """Reference psi(r): psi_hat at the tilts r x* from broadcast_psi_hat, averaged over x*
    elementwise, as psi_bar_array sums its atoms."""
    r = np.asarray(r, dtype=np.float64)
    return (broadcast_psi_hat(ev, p, r[..., None], r[..., None] * p.values) * p.weights).sum(axis=-1)


def per_tilt_psi_bar(ev, p, r, s):
    """Reference for channel.psi_bar_array: psi_hat_array at every tilt s x*,
    then the elementwise weighted sum over x*, the route that prices each
    tilt, kept as the mirrored route's reference."""
    from replica_lab.channel import psi_hat_array

    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    r_t = r[..., None].repeat(p.values.size, axis=-1) if r.shape == s.shape else r[..., None]
    vals = psi_hat_array(ev, p, r_t, s[..., None] * p.values)
    vals *= p.weights
    return vals.sum(axis=-1)


def nested_polish(p, lam, q_max, ev, a, b, ya, yb):
    """Reference outer polish for rs.saddle, in place of rs._joint_polish: the
    nested polish that the joint (m, q) Newton replaced, kept as its reference.

    Regula falsi on the outer slope g'(m) = d_m F_bar(m, q_bar(m)) in each
    bracket, every step a full inner minimization (rs._inner_min) and every
    root priced by the inner minimization that found it.
    """
    from replica_lab import rs

    return rs._bracketed_roots(
        lambda k, m: rs._inner_min(p, lam, m, q_max, ev), a, b, ya[0], yb, rs._ROOT_FTOL * lam
    )


def refine_always_critical_lambda(p, delta, tol, ev):
    """Reference for rs.critical_lambda: the doubling and bisection it replaced,
    which reads phi_rs(p, lambda).optimizer_q > delta, refinement and all, at
    every step."""
    from replica_lab import rs

    def above(lam):
        return rs.phi_rs(p, lam, ev).optimizer_q > delta

    lo, hi = 0.0, 1.0
    while not above(hi):
        lo, hi = hi, 2.0 * hi
        if hi > rs._LAM_CAP:
            raise rs.NumericalError(f"no transition up to lambda = {rs._LAM_CAP}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mc_log_expectation(fn, n_samples=10**7, seed=0, chunk=10**6):
    """(mean, stderr) of fn(z) over z ~ N(0,1), chunked to bound memory."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < n_samples:
        m = min(chunk, n_samples - count)
        vals = fn(rng.standard_normal(m))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        count += m
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def mc_psi_hat(prior, r, s, n_samples=10**7, seed=0):
    """Monte Carlo psi_hat for an arbitrary atom prior (oracle path)."""
    v = prior.values
    lw = prior.log_weights

    def fn(z):
        a = np.sqrt(r) * z[:, None] * v + s * v - 0.5 * r * v**2 + lw
        m = a.max(axis=1)
        return m + np.log(np.exp(a - m[:, None]).sum(axis=1))

    return mc_log_expectation(fn, n_samples, seed)


def mc_psi_bar(prior, r, s, n_samples=10**7, seed=0):
    """Monte Carlo psi_bar: per-atom psi_hat(r, s x*) combined exactly over x*."""
    mean = 0.0
    var = 0.0
    for k, (v_star, w) in enumerate(prior.atoms):
        m, se = mc_psi_hat(prior, r, s * v_star, n_samples, seed + 1000 * k)
        mean += w * m
        var += (w * se) ** 2
    return mean, math.sqrt(var)


def mc_log_cosh(r, s, n_samples=10**7, seed=0):
    """Monte Carlo of -r/2 + E log cosh(sqrt(r) z + s), the two-point closed form."""
    return mc_log_expectation(
        lambda z: -r / 2.0 + np.logaddexp(np.sqrt(r) * z + s, -(np.sqrt(r) * z + s)) - math.log(2.0),
        n_samples,
        seed,
    )


def reference_streams(seed, count, *suffix):
    """Reference for finite._streams: replica k's generator built on its own,
    np.random.default_rng(derive_seed(seed, k, *suffix)), through numpy's SeedSequence."""
    return [np.random.default_rng(derive_seed(seed, k, *suffix)) for k in range(count)]


def reference_enum_table(atoms, n, symmetric):
    """Reference for finite._enum_table: (X, logw, pairsq, sumsq, mirrors) of
    the representatives, the invariants built from the configurations'
    values, as before they were gathered per atom through the digits."""
    values = np.array([v for v, _ in atoms]) + 0.0
    logw = np.log(np.array([w for _, w in atoms]))
    a = values.size
    idx = np.arange(a**n, dtype=np.int64)
    digits = np.empty((idx.size, n), dtype=np.min_scalar_type(a - 1))
    for k in range(n):
        digits[:, k] = (idx // a**k) % a
    mirrors = 0
    if symmetric:
        sign = np.sign(values).astype(np.int8)[digits]
        lead = sign[idx, (sign != 0).argmax(axis=1)]
        digits = np.concatenate([digits[lead > 0], digits[lead == 0]])
        mirrors = int((lead > 0).sum())
    x = values[digits]
    sumsq = (x**2).sum(axis=1)
    quartic = np.square(np.square(x)).sum(axis=1)
    return x, logw[digits].sum(axis=1), 0.5 * (sumsq**2 - quartic), sumsq, mirrors


def unfold_table(table):
    """Every configuration of an EnumTable in order: the representatives, then
    rows [:mirrors] negated (a zero as +0.0), with the invariants repeated.
    Carries reps and mirrors, so it stands in for the table in the references."""
    m = table.mirrors
    x = np.concatenate([table.X, -table.X[:m] + 0.0])
    logw, pairsq, sumsq = (np.concatenate([v, v[:m]]) for v in (table.logw, table.pairsq, table.sumsq))
    return SimpleNamespace(X=x, logw=logw, pairsq=pairsq, sumsq=sumsq, reps=table.reps, mirrors=m)


def small_budget(monkeypatch, p, n, divisor=1):
    """Shrink the block budget to the configuration count // divisor, so that
    a small table spans many row blocks, and some tables several draw blocks
    too."""
    from replica_lab import finite

    table = finite.enumeration_table(p, n)
    monkeypatch.setattr(finite, "_BLOCK_VALUES", max(2, (table.reps + table.mirrors) // divisor))


def reference_neg_energy(inst, table):
    """-H of every configuration for one instance, one draw at a time: the
    symmetric noise matrix product x @ W contracted row by row."""
    n = inst.n
    i, j = np.triu_indices(n, k=1)
    w = np.zeros((n, n))
    w[i, j] = inst.noise
    w[j, i] = inst.noise
    x = table.X
    q_w = 0.5 * np.einsum("ck,ck->c", x @ w, x)
    xs = x @ inst.spike
    s = 0.5 * (xs * xs - np.einsum("ck,ck,k->c", x, x, inst.spike**2))
    return math.sqrt(inst.lam / n) * q_w + inst.lam / n * s - inst.lam / (2.0 * n) * table.pairsq


def hamiltonian(inst, x) -> float:
    """-H(x) = sum_{i<j} sqrt(lambda/N) Y_ij x_i x_j - (lambda/2N) x_i^2 x_j^2 for one
    configuration, in the Y form: the definition that the energy kernel
    (finite._log_weights) prices."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise InvalidArgumentError(f"x must have length {inst.n}, got shape {x.shape}")
    i, j = np.triu_indices(inst.n, 1)
    pp = x[i] * x[j]
    n = inst.n
    return float(math.sqrt(inst.lam / n) * (inst.y @ pp) - inst.lam / (2.0 * n) * (pp @ pp))


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


def augment(inst, t: float, r: float, s: float, seed: int) -> AugmentedInstance:
    """Draw the side noise and assemble the augmented observation set."""
    _check_t(t)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    z = np.random.default_rng(int(seed) % 2**64).standard_normal(inst.n)
    obs = math.sqrt((1.0 - t) * r) * inst.spike + z
    z.setflags(write=False)
    obs.setflags(write=False)
    return AugmentedInstance(base=inst, t=float(t), r=float(r), s=float(s), side_noise=z, side_obs=obs)


def h_t(aug: AugmentedInstance, x) -> float:
    """-H_t(x) for one configuration, evaluated directly from the definition in
    interpolation's module docstring: the reference for the path's kernel
    (finite._phi_t_draws)."""
    _check_t(aug.t)
    inst = aug.base
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise InvalidArgumentError(f"x must have length {inst.n}, got shape {x.shape}")
    n = inst.n
    i, j = np.triu_indices(n, 1)
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


def reference_phi_t_draws(p, n, lam, q, m, t_values, n_disorder, seed, restricted=None, spike=None):
    """Per-draw path free entropies, one draw and one t at a time: the combine
    that the blocked interpolation path replaced, kept as its reference.

    Takes each draw's energy at SNR t lam from reference_neg_energy, then per
    draw and per t forms the even part, the odd side term as one (n,) @
    (n, rows) product, joins the mirrors (even - odd) to the representatives
    (even + odd) with one concatenation, and takes one log-sum-exp over them
    (-inf over no row).  A window needs a fixed spike, and keeps its rows.
    """
    from replica_lab import finite

    table = unfold_table(finite.enumeration_table(p, n))
    r, s = lam * q, lam * m
    seeds = [finite.derive_seed(seed, k) for k in range(n_disorder)]
    if spike is None:
        rows, mirrors = slice(None, table.reps), table.mirrors
        insts = [finite.sample_instance(p, n, lam, s_k) for s_k in seeds]
        spikes, noises = [inst.spike for inst in insts], [inst.noise for inst in insts]
    else:
        spike = np.asarray(spike, dtype=np.float64)
        rows = slice(None) if restricted is None else finite._window_index(table.X @ spike / n, *restricted) == 0
        mirrors, spikes = 0, [spike] * n_disorder
        noises = [np.random.default_rng(s_k & ((1 << 64) - 1)).standard_normal(n * (n - 1) // 2) for s_k in seeds]
    x, logw, sumsq = table.X[rows], table.logw[rows], table.sumsq[rows]
    out = np.empty((n_disorder, len(t_values)))
    for k, (spike_k, noise_k) in enumerate(zip(spikes, noises)):
        z = np.random.default_rng(finite.derive_seed(seed, k, 1) & ((1 << 64) - 1)).standard_normal(n)
        for c, t in enumerate(t_values):
            energy = reference_neg_energy(SpikedInstance(spike_k, noise_k, t * lam), table)[rows]
            even = logw + energy - (1.0 - t) * r / 2.0 * sumsq
            odd = (math.sqrt((1.0 - t) * r) * z + (1.0 - t) * s * spike_k) @ x.T
            a = np.concatenate([even + odd, even[:mirrors] - odd[:mirrors]])
            top = a.max(initial=-np.inf)
            out[k, c] = top if top == -np.inf else (top + np.log(np.exp(a - top).sum())) / n
    return out


@pytest.fixture(scope="session")
def rademacher_fn_estimates(priors):
    """Free-entropy estimates at lambda = 2 for n in {8, 12, 16}, 400 draws.

    Session-scoped: the finite-size acceptance criterion and the module-level
    decay checks share these runs.
    """
    p = priors["rademacher"]
    return {n: free_entropy_mc(p, n, 2.0, 400, 7) for n in (8, 12, 16)}
