"""Finite-size instances: enumeration, disorder averages, sampling."""

import ast
import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    EnumerationBudgetError,
    InvalidArgumentError,
    SpikedInstance,
    derive_seed,
    f_hat,
    fp_potential,
    fp_profile,
    free_entropy_mc,
    guerra_slope_check,
    kl_log_likelihood_ratio,
    log_partition_exact,
    metropolis_sampler,
    nishimori_check,
    phi_of_t,
    phi_rs,
    sample_instance,
    sample_spike,
)
from replica_lab import finite, parse_prior_spec
from replica_lab import priors as prior_module
from replica_lab.finite import enumeration_table
from replica_lab.verify import kl_identity_check
from replica_lab.priors import asymmetric_binary_prior, point_mass_prior

from conftest import hamiltonian, reference_enum_table, reference_neg_energy, reference_streams, small_budget, unfold_table


def _logsumexp(a):
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


def _reference_llr(inst, table):
    """log dP_lambda/dP_0 (Y) for one instance: the Gaussian density ratio
    over every pair product, squares unexpanded."""
    i, j = np.triu_indices(inst.n, k=1)
    coef = math.sqrt(inst.lam / inst.n)
    pp = table.X[:, i] * table.X[:, j]
    exponents = (0.5 * inst.y**2 - 0.5 * (inst.y - coef * pp) ** 2).sum(axis=1)
    return _logsumexp(table.logw + exponents)


def _one_cpu(code: str) -> str:
    """Standard output of code, run by a fresh interpreter held to one of this
    process's CPUs (os.sched_setaffinity acts on that process only), with
    the package and this directory importable."""
    here = Path(__file__).resolve().parent
    script = f"import os\nos.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n{code}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout


def _pass_peaks() -> list:
    """The traced peak bytes of four Gibbs-pass consumers, each called once
    warm: sparse:0.25 at n = 9 (9,842 representatives) and asym:0.7 at n = 11
    (2,048), whose 60 draws make two draw blocks."""
    p, n, draws = parse_prior_spec("sparse:0.25"), 9, 60
    asym = parse_prior_spec("asym:0.7")
    enumeration_table(p, n)
    enumeration_table(asym, 11)
    calls = (
        lambda: free_entropy_mc(p, n, 2.0, draws, 3),
        lambda: guerra_slope_check(p, n, 2.0, 0.5, n_disorder=draws, seed=3),
        lambda: finite._kl_pair_draws(p, n, 2.0, draws, 5),
        lambda: nishimori_check(asym, 11, 1.0, draws, 3),
    )
    peaks = []
    for call in calls:
        call()  # a first call may import modules (np.unique loads numpy.ma)
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


# (prior, n, draws): sparse:0.25 at n = 9 has 9,842 representatives and
# 36-draw blocks, so 61 draws make two uneven draw blocks (31 + 30) and 100
# make three (34 + 34 + 32), walked as two and one; asym:0.7 at n = 11 makes
# two with 60; rademacher at n = 8 with 9 draws makes one, and no second
# walker.  While the pass ran at OpenBLAS's own thread count, two threads
# moved the last bits of sparse:0.25's log Z at 61 draws and asym:0.7's path.
WALKER_INPUTS = [("rademacher", 8, 9), ("sparse:0.25", 9, 61), ("sparse:0.25", 9, 100), ("asym:0.7", 11, 60)]


def _consumer_values() -> dict:
    """float.hex of every Gibbs-pass consumer's values on WALKER_INPUTS: the
    pass's per-draw log Z at two SNRs, the free entropy, the KL pair, the
    Franz-Parisi profile and one window, the Guerra path with its odd side
    field, the path over a window that holds mirrors (a negated field), and
    asym:0.7's Nishimori odd means at two and three draw blocks."""
    values = {}
    for spec, n, draws in WALKER_INPUTS:
        p, key = parse_prior_spec(spec), f"{spec}|{n}|{draws}"
        spike = sample_spike(p, n, 4)
        pass_draws = finite._draws(p, n, 3, draws)
        values[key + "|log_z"] = np.ravel(finite._gibbs(enumeration_table(p, n), None, [0.5, 2.0], pass_draws))
        values[key + "|free_entropy"] = [free_entropy_mc(p, n, 2.0, draws, 3).mean]
        values[key + "|kl"] = np.ravel(finite._kl_pair_draws(p, n, 2.0, draws, 5))
        values[key + "|fp_profile"] = [est.mean for _, est in fp_profile(p, n, 2.0, 0.25, spike, draws, 3)]
        values[key + "|fp_potential"] = [fp_potential(p, n, 2.0, -0.25, 0.25, spike, draws, 3).mean]
        values[key + "|path"] = np.ravel(finite._phi_t_draws(p, n, 2.0, 0.5, 0.3, [0.0, 0.4, 1.0], draws, 3))
        values[key + "|window"] = np.ravel(finite._phi_t_draws(
            p, n, 2.0, 0.5, 0.3, [0.4, 1.0], draws, 3, restricted=(-0.5, 0.75), spike=spike))
    for n, draws in ((11, 60), (9, 130)):  # 2,048 rows in two blocks, 512 in three
        rep = nishimori_check(parse_prior_spec("asym:0.7"), n, 0.5, draws, 3)
        values[f"asym:0.7|{n}|{draws}|nishimori"] = [rep.slack, rep.stderr, rep.params["mean_r12"],
                                                      rep.params["mean_r1s"]]
    return {key: [float(v).hex() for v in vals] for key, vals in values.items()}


class TestSampling:
    def test_zero_snr_y_is_noise(self, priors):
        inst = sample_instance(priors["rademacher"], 8, 0.0, 3)
        assert np.array_equal(inst.y, inst.noise)

    def test_determinism(self, priors):
        a = sample_instance(priors["sparse:0.25"], 9, 1.5, 12345)
        b = sample_instance(priors["sparse:0.25"], 9, 1.5, 12345)
        assert np.array_equal(a.spike, b.spike)
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.y, b.y)

    def test_spike_entries_are_atoms(self, priors):
        for p in priors.values():
            inst = sample_instance(p, 20, 1.0, 99)
            assert np.isin(inst.spike, p.values).all()

    def test_y_reconstructible_from_parts(self, priors):
        inst = sample_instance(priors["sparse:0.25"], 9, 2.0, 31)
        again = SpikedInstance(inst.spike, inst.noise, inst.lam)
        assert np.abs(again.y - inst.y).max() <= 1e-12

    @pytest.mark.parametrize(
        "spike, noise, lam, error, message",
        [
            # one noise entry broadcast over three pairs
            ([1.0, -1.0, 1.0], [0.3], 1.0, InvalidArgumentError, r"noise must have n\(n-1\)/2 = 3 entries"),
            ([1.0, -1.0, 1.0], [[0.1, 0.2, 0.3]], 1.0, InvalidArgumentError, r"noise must have n\(n-1\)/2 = 3"),
            ([[1.0, -1.0], [1.0, 1.0]], np.zeros(6), 1.0, InvalidArgumentError, "spike must be a nonempty 1-d"),
            ([], [], 1.0, InvalidArgumentError, "spike must be a nonempty 1-d"),
            ([1.0, -1.0], [0.3], -1.0, DomainError, "lambda must be finite and >= 0"),
            ([1.0, -1.0], [0.3], math.nan, DomainError, "lambda must be finite and >= 0"),
            ([1.0, -1.0], [0.3], math.inf, DomainError, "lambda must be finite and >= 0"),
            # a non-finite part would reach log Z and the KL ratio as NaN
            ([1.0, 1.0], [math.nan], 1.0, DomainError, "noise entries must be finite"),
            ([1.0, 1.0, 1.0], [0.1, math.inf, 0.3], 1.0, DomainError, "noise entries must be finite"),
            ([math.nan, 1.0], [0.3], 1.0, DomainError, "spike entries must be finite"),
            ([1.0, -math.inf], [0.3], 1.0, DomainError, "spike entries must be finite"),
        ],
    )
    def test_parts_checked(self, spike, noise, lam, error, message):
        with pytest.raises(error, match=message):
            SpikedInstance(spike, noise, lam)

    def test_parts_are_the_only_fields(self, priors):
        # n and Y are derived from the parts, never stored beside them
        assert [f.name for f in dataclasses.fields(SpikedInstance)] == ["spike", "noise", "lam", "y"]
        assert [f.name for f in dataclasses.fields(SpikedInstance) if f.init] == ["spike", "noise", "lam"]
        inst = sample_instance(priors["rademacher"], 6, 2.0, 3)
        assert inst.n == 6 and type(inst.n) is int
        assert repr(inst) == "SpikedInstance(lam=2.0)"

    def test_replace_rebuilds_from_the_parts(self, priors):
        inst = sample_instance(priors["rademacher"], 6, 2.0, 3)
        with pytest.raises(TypeError):
            dataclasses.replace(inst, n=5)
        with pytest.raises(ValueError):
            dataclasses.replace(inst, y=inst.y + 1.0)
        zero = dataclasses.replace(inst, lam=0.0)
        assert zero.lam == 0.0 and zero.y.tobytes() == inst.noise.tobytes()
        again = dataclasses.replace(inst, lam=2.0)
        assert again.y.tobytes() == inst.y.tobytes()
        with pytest.raises(InvalidArgumentError, match=r"^noise must have n\(n-1\)/2 = 15 entries, got shape \(14,\)$"):
            dataclasses.replace(inst, noise=inst.noise[:-1])
        for arr in (inst.spike, inst.noise, inst.y, zero.y):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    def test_caller_arrays_stay_writable(self):
        # the instance stores read-only copies; the caller's arrays keep their flags and values
        spike, noise = np.array([1.0, -1.0, 1.0]), np.array([0.3, -0.2, 0.1])
        inst = SpikedInstance(spike, noise, 1.0)
        spike[0], noise[0] = 5.0, 7.0
        assert spike.flags.writeable and noise.flags.writeable
        assert inst.spike.tolist() == [1.0, -1.0, 1.0] and inst.noise.tolist() == [0.3, -0.2, 0.1]
        for arr in (inst.spike, inst.noise, inst.y):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_noise_clt(self, priors):
        # pooled residual y - sqrt(lam/n) x x^T is standard normal
        inst = sample_instance(priors["rademacher"], 150, 2.0, 5)
        count = inst.noise.size
        assert count >= 10**4
        assert abs(inst.noise.mean()) <= 4.0 / math.sqrt(count)

    def test_small_n_rejected(self, priors):
        with pytest.raises(InvalidArgumentError):
            sample_instance(priors["rademacher"], 1, 1.0, 0)
        with pytest.raises(InvalidArgumentError, match="n must be >= 1, got 0"):
            sample_spike(priors["rademacher"], 0, 1)

    @pytest.mark.parametrize("spec", ["rademacher", "asym:0.7"])
    @pytest.mark.parametrize("n_draws", [1, 7])
    def test_draws_are_one_stream_per_seed(self, spec, n_draws):
        # draw k is sample_instance's spike and noise at derive_seed(seed, k);
        # at a fixed spike its noise is the stream's first P normals
        p, n, seed = parse_prior_spec(spec), 6, 2024
        spikes, noises = finite._draws(p, n, seed, n_draws)
        fixed = sample_spike(p, n, 3)
        same, fixed_noises = finite._draws(p, n, seed, n_draws, fixed)
        assert spikes.shape == same.shape == (n_draws, n)
        assert noises.shape == fixed_noises.shape == (n_draws, 15)
        for k in range(n_draws):
            inst = sample_instance(p, n, 1.5, derive_seed(seed, k))
            assert spikes[k].tobytes() == inst.spike.tobytes() and noises[k].tobytes() == inst.noise.tobytes()
            rng = np.random.default_rng(derive_seed(seed, k) & ((1 << 64) - 1))
            assert same[k].tobytes() == fixed.tobytes()
            assert fixed_noises[k].tobytes() == rng.standard_normal(15).tobytes()

    def test_replicas_do_not_depend_on_the_count(self, priors):
        # replica k's spike and noise, and its path value at t = 0, a closed
        # form in its spike and side noise z alone, are the same at any replica count
        p, n, seed = priors["asym:0.7"], 5, 77
        full = finite._draws(p, n, seed, 50)
        t0_full = finite._phi_t_draws(p, n, 2.0, 0.5, 0.5, [0.0], 50, seed)
        for count in (1, 2, 49):
            for part, whole in zip(finite._draws(p, n, seed, count), full):
                assert part.tobytes() == whole[:count].tobytes()
            t0 = finite._phi_t_draws(p, n, 2.0, 0.5, 0.5, [0.0], count, seed)
            assert t0.tobytes() == t0_full[:count].tobytes()

    @pytest.mark.parametrize(
        "call, message",
        [
            # the three calls that used to fail inside numpy with a TypeError
            (lambda p: free_entropy_mc(p, 6, 2.0, 2.5, 1), "n_disorder must be an integer, got 2.5"),
            (lambda p: free_entropy_mc(p, 6.0, 2.0, 3, 1), "n must be an integer, got 6.0"),
            (lambda p: sample_instance(p, 4.5, 1.0, 0), "n must be an integer, got 4.5"),
            (lambda p: sample_spike(p, 3.0, 0), "n must be an integer, got 3.0"),
            (lambda p: enumeration_table(p, np.float64(4.0)), "n must be an integer"),
            (lambda p: nishimori_check(p, 4, 1.0, 3.0, 0), "n_disorder must be an integer, got 3.0"),
            (lambda p: phi_of_t(p, 4, 1.0, 0.5, 0.5, 0.0, 2.0, 0), "n_disorder must be an integer"),
            (lambda p: kl_identity_check(p, 4, 1.0, 2.0, 0), "n_instances must be an integer, got 2.0"),
        ],
    )
    def test_non_integer_sizes_refused(self, priors, call, message):
        with pytest.raises(InvalidArgumentError, match=message):
            call(priors["rademacher"])

    def test_numpy_integer_sizes_accepted(self, priors):
        p = priors["rademacher"]
        want = free_entropy_mc(p, 5, 2.0, 3, 1)
        assert free_entropy_mc(p, np.int64(5), 2.0, np.int32(3), 1) == want
        assert sample_instance(p, np.int16(5), 2.0, 1).y.tobytes() == sample_instance(p, 5, 2.0, 1).y.tobytes()

    def test_derive_seed_splits(self):
        seeds = {derive_seed(7, k) for k in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: derive_seed(2.5, 1),
            lambda p: derive_seed(2, np.float64(1.0)),
            lambda p: sample_instance(p, 6, 2.0, 3.9),
            lambda p: sample_spike(p, 6, 3.0),
            lambda p: metropolis_sampler(sample_instance(p, 4, 1.0, 1), p, 10, 2, 0.5),
            lambda p: free_entropy_mc(p, 6, 2.0, 5, 1.7),
            lambda p: phi_of_t(p, 4, 1.0, 0.5, 0.5, 0.5, 3, 2.0),
            lambda p: phi_of_t(p, 4, 1.0, 0.5, 0.5, 0.0, 3, 2.0),  # the closed form draws too
            lambda p: nishimori_check(p, 4, 1.0, 3, 1.5),  # a sign-folded table draws nothing
        ],
    )
    def test_float_seed_refused(self, priors, call):
        # a float seed used to be truncated: free_entropy_mc(..., 1.7) drew seed 1's disorder
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            call(priors["rademacher"])

    @pytest.mark.parametrize("seed", [-3, np.int64(-3), np.uint64(2**64 - 3), np.int32(7), 2**64 + 7])
    def test_integer_seed_draws_its_64_bit_word(self, priors, seed):
        # a Python or numpy integer seed, negative included, draws the stream
        # of its value mod 2**64
        p, word = priors["asym:0.7"], int(seed) % 2**64
        inst = sample_instance(p, 6, 2.0, seed)
        rng = np.random.default_rng(word)
        assert inst.spike.tobytes() == finite._atoms(p, rng.random(6)).tobytes()
        assert inst.noise.tobytes() == rng.standard_normal(15).tobytes()
        est, ref = free_entropy_mc(p, 6, 2.0, 5, seed), free_entropy_mc(p, 6, 2.0, 5, word)
        assert (est.mean.hex(), est.stderr.hex()) == (ref.mean.hex(), ref.stderr.hex())
        assert est.seed == int(seed)
        assert metropolis_sampler(inst, p, 10, 2, seed).tobytes() == metropolis_sampler(inst, p, 10, 2, word).tobytes()
        assert derive_seed(seed, np.int8(-1)) == derive_seed(word, 2**64 - 1)

    def test_entries_no_caller_budgeted_take_no_budget(self, priors):
        # they enumerate under DEFAULT_BUDGET and refuse beyond it
        p = priors["uniform:21"]  # 21**5 configurations, above 2**20
        inst = sample_instance(p, 5, 1.0, 0)
        for entry, call in (
            (log_partition_exact, lambda: log_partition_exact(inst, p)),
            (kl_log_likelihood_ratio, lambda: kl_log_likelihood_ratio(inst, p)),
            (phi_of_t, lambda: phi_of_t(p, 5, 1.0, 0.5, 0.5, 0.5, 2, 0)),
        ):
            assert "budget" not in inspect.signature(entry).parameters
            with pytest.raises(EnumerationBudgetError):
                call()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no uint32 overflow warning may pass
class TestStreams:
    """finite._streams, the batched port of numpy's SeedSequence, against the per-replica reference."""

    MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 0x9E3779B97F4A7C15)
    # the last suffix takes the entropy to 9 words, past the 4-word pool
    SUFFIXES = ((), (1,), (2**40, 3, 0, 7, 2**64 - 1))

    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("count", [1, 2, 50, 401])
    def test_streams_are_the_reference_generators(self, count, suffix):
        for master in self.MASTERS:
            ours = list(finite._streams(master, count, *suffix))
            ref = reference_streams(master, count, *suffix)
            assert len(ours) == count
            for a, b in zip(ours, ref):
                assert a.bit_generator.state == b.bit_generator.state
                assert a.random(3).tobytes() == b.random(3).tobytes()

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_seed_words_are_derive_seed(self, suffix):
        for master in self.MASTERS:
            words = finite._derived_seeds(master, 50, *suffix).astype(np.uint64)
            seeds = words[:, 0] | words[:, 1] << np.uint64(32)
            assert seeds.tolist() == [derive_seed(master, k, *suffix) for k in range(50)]

    @pytest.mark.parametrize("length", [1, 2, 4, 5, 9])
    def test_pool_and_state_are_numpys(self, length):
        # the port's two halves against SeedSequence itself, an all-zero row included
        rng = np.random.default_rng(length)
        rows = rng.integers(0, 2**32, size=(6, length), dtype=np.uint64)
        rows[0] = 0
        for row in rows.tolist():
            ref = np.random.SeedSequence(row)
            pool = finite._pool(np.array([row], dtype=np.uint32))
            assert pool[0].tolist() == ref.pool.tolist()
            assert finite._generate(pool, 8)[0].tolist() == ref.generate_state(8).tolist()

    def test_zero_high_word_pools_as_one_word(self):
        # _streams hashes each seed as two words, numpy's SeedSequence(seed)
        # as one when its high word is 0
        for low in (0, 1, 2**32 - 1):
            pool = finite._pool(np.array([[low, 0]], dtype=np.uint32))
            assert pool[0].tolist() == np.random.SeedSequence(low).pool.tolist()

    def test_counts_past_2_32_refused(self):
        # replica k's entropy is one uint32 word
        with pytest.raises(InvalidArgumentError, match="at most 2\\*\\*32 replicas"):
            finite._derived_seeds(0, 2**32 + 1)

    def test_pinned_bits(self, priors):
        # recorded with numpy's SeedSequence and default_rng per replica: a
        # change to numpy's seeding or stream policy fails here by name
        assert derive_seed(123456789, 0) == 5976902797103608158
        est = free_entropy_mc(priors["asym:0.7"], 6, 2.0, 5, 11)
        assert (est.mean.hex(), est.stderr.hex()) == ("0x1.1de5f28da76c1p-4", "0x1.e597a2a3ab7fcp-5")


class TestHamiltonian:
    def test_zero_snr(self, priors):
        inst = sample_instance(priors["rademacher"], 6, 0.0, 1)
        x = np.ones(6)
        assert hamiltonian(inst, x) == 0.0

    def test_zero_configuration(self, priors):
        inst = sample_instance(priors["sparse:0.25"], 6, 2.0, 1)
        assert hamiltonian(inst, np.zeros(6)) == 0.0

    def test_two_site_hand_expansion(self, priors):
        inst = sample_instance(priors["rademacher"], 2, 3.0, 17)
        x = np.array([1.0, -1.0])
        expected = math.sqrt(3.0 / 2.0) * inst.y[0] * x[0] * x[1] - 3.0 / 4.0 * (x[0] * x[1]) ** 2
        assert hamiltonian(inst, x) == pytest.approx(expected, abs=1e-14)

    def test_length_mismatch(self, priors):
        inst = sample_instance(priors["rademacher"], 5, 1.0, 1)
        with pytest.raises(InvalidArgumentError):
            hamiltonian(inst, np.ones(4))


class TestLogPartitionExact:
    def test_zero_snr(self, priors):
        inst = sample_instance(priors["rademacher"], 10, 0.0, 2)
        res = log_partition_exact(inst, priors["rademacher"])
        assert abs(res.log_z) <= 1e-12
        assert res.config_count == 2**10

    def test_two_site_direct_sum(self, priors):
        p = priors["rademacher"]
        inst = sample_instance(p, 2, 1.5, 4)
        terms = [
            0.25 * math.exp(hamiltonian(inst, np.array(c, dtype=float)))
            for c in itertools.product([1, -1], repeat=2)
        ]
        assert log_partition_exact(inst, p).log_z == pytest.approx(math.log(sum(terms)), abs=1e-12)

    def test_against_brute_force_oracle(self, priors):
        # sparse:0.25 puts the planted term with atoms 0, +-2 under the oracle
        for name, n, lam, seed in (("rademacher", 12, 1.0, 42), ("sparse:0.25", 8, 1.5, 43)):
            p = priors[name]
            inst = sample_instance(p, n, lam, seed)
            exps = [
                sum(math.log(w) for _, w in c) + hamiltonian(inst, np.array([v for v, _ in c]))
                for c in itertools.product(p.atoms, repeat=n)
            ]
            m = max(exps)
            oracle = m + math.log(sum(math.exp(e - m) for e in exps))
            assert log_partition_exact(inst, p).log_z == pytest.approx(oracle, abs=1e-10)

    def test_overlap_law_normalized(self, priors):
        p = priors["sparse:0.25"]
        inst = sample_instance(p, 8, 2.0, 9)
        res = log_partition_exact(inst, p)
        assert res.config_count == 3**8
        assert sum(w for _, w in res.overlap_law) == pytest.approx(1.0, abs=1e-10)
        assert all(w >= 0 for _, w in res.overlap_law)

    def test_budget_refusal(self, priors):
        inst = sample_instance(priors["rademacher"], 25, 1.0, 1)
        with pytest.raises(EnumerationBudgetError) as exc:
            log_partition_exact(inst, priors["rademacher"])
        assert exc.value.required == 2**25


class TestFreeEntropyMc:
    def test_zero_snr(self, priors):
        est = free_entropy_mc(priors["rademacher"], 8, 0.0, 50, 6)
        assert abs(est.mean) <= 1e-12
        assert est.stderr == 0.0

    def test_bitwise_reproducible(self, priors):
        a = free_entropy_mc(priors["rademacher"], 8, 2.0, 30, 77)
        b = free_entropy_mc(priors["rademacher"], 8, 2.0, 30, 77)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_finite_size_decay(self, priors, rademacher_fn_estimates, ev):
        phi = phi_rs(priors["rademacher"], 2.0, ev).value
        e8 = rademacher_fn_estimates[8]
        e16 = rademacher_fn_estimates[16]
        assert abs(e16.mean - phi) <= abs(e8.mean - phi) + 2.0 * (e8.stderr + e16.stderr)

    def test_lower_bound_at_every_q(self, priors, rademacher_fn_estimates):
        # F_N >= F(lambda, q) - lambda K^4 / n - 3 se for every q, not just q*
        from replica_lab import rs_potential

        p = priors["rademacher"]
        est = rademacher_fn_estimates[12]
        floor = est.mean + 2.0 / 12.0 + 3.0 * est.stderr  # K = 1
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert floor >= rs_potential(p, 2.0, q)


@pytest.mark.parametrize("n_disorder", [0, -1])
def test_disorder_count_validated(priors, n_disorder):
    p = priors["rademacher"]
    calls = (
        lambda: free_entropy_mc(p, 6, 2.0, n_disorder, 1),
        lambda: nishimori_check(p, 6, 2.0, n_disorder, 1),
        lambda: fp_potential(p, 6, 2.0, 0.0, 0.25, np.ones(6), n_disorder, 1),
        lambda: fp_profile(p, 6, 2.0, 0.25, np.ones(6), n_disorder, 1),
        lambda: kl_identity_check(p, 6, 2.0, n_disorder, 1),
    )
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="must be >= 1"):
            call()


@pytest.mark.parametrize("n", [0, 1, -2])
def test_size_below_two_refused(priors, n):
    # every enumerating estimator refuses n < 2 with one message, and the
    # table itself refuses n < 1, rather than failing inside numpy
    p = priors["rademacher"]
    calls = (
        lambda: free_entropy_mc(p, n, 2.0, 3, 1),
        lambda: nishimori_check(p, n, 2.0, 3, 1),
        lambda: phi_of_t(p, n, 2.0, 0.5, 0.5, 0.5, 3, 1),
    )
    for call in calls:
        with pytest.raises(InvalidArgumentError, match=f"n must be >= 2, got {n}"):
            call()
    if n < 1:
        with pytest.raises(InvalidArgumentError, match=f"n must be >= 1, got {n}"):
            enumeration_table(p, n)


def test_setup_refuses_stacked_spikes(priors):
    # a spike is one fixed spike of shape (n,): an (n_disorder, n) stack is
    # refused with or without a window, as is every other shape
    p, budget = priors["rademacher"], finite.DEFAULT_BUDGET
    assert finite._setup(p, 4, 1.0, 3, budget, spike=np.ones(4))[0].shape == (4,)
    spike = np.ones(4)
    spike[1] = 0.5
    with pytest.raises(InvalidArgumentError, match="^spike entries must be atoms of the prior$"):
        finite._setup(p, 4, 1.0, 3, budget, spike=spike)
    for shape in ((3, 4), (1, 4), (2, 4), (4, 4), (3,), (5,)):
        for window in (None, (0.0, 0.25)):
            with pytest.raises(InvalidArgumentError, match="^spike must have length 4$"):
                finite._setup(p, 4, 1.0, 3, budget, window, np.ones(shape))
    # the fixed-spike estimators refuse a stack, with or without a window
    for call in (lambda spike: fp_potential(p, 4, 1.0, 0.0, 0.25, spike, 3, 1),
                 lambda spike: fp_profile(p, 4, 1.0, 0.25, spike, 3, 1),
                 lambda spike: phi_of_t(p, 4, 1.0, 0.5, 0.5, 0.5, 3, 1, spike=spike),
                 lambda spike: phi_of_t(p, 4, 1.0, 0.5, 0.5, 0.5, 3, 1, (0.0, 0.25), spike)):
        with pytest.raises(InvalidArgumentError, match="^spike must have length 4$"):
            call(np.ones((3, 4)))
    bad = SpikedInstance([1.0, 0.5, -1.0], np.zeros(3), 1.0)
    for call in (log_partition_exact, kl_log_likelihood_ratio):
        with pytest.raises(InvalidArgumentError, match="^spike entries must be atoms of the prior$"):
            call(bad, p)
    # an instance cannot hold a (1, n) spike: the constructor refuses it
    good = sample_instance(p, 4, 1.0, 0)
    with pytest.raises(InvalidArgumentError, match=r"^spike must be a nonempty 1-d array, got shape \(1, 4\)$"):
        SpikedInstance(good.spike[None], good.noise, 1.0)


def test_finite_does_not_import_rs():
    # the finite layer takes the sign predicate from priors and the exponent
    # bound and scale rule from channel, not from the RS solvers
    tree = ast.parse(Path(finite.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
    assert names and not any("rs" in name.split(".") for name in names), names


def test_energy_scale_bound_on_both_sides():
    # (lambda + n) n K^4 <= finite.EXPONENT_MAX: inside, every enumerating entry
    # runs without a RuntimeWarning (the draws' values differ, so their
    # standard error squares deviations near 1e304); outside, each raises
    # DomainError first
    p, n = parse_prior_spec("sparse:0.25"), 4
    k4 = p.bound**4
    edge = finite.EXPONENT_MAX / (n * k4) - n
    spike = sample_spike(p, n, 3)
    calls = (
        lambda lam: free_entropy_mc(p, n, lam, 4, 1),
        lambda lam: nishimori_check(p, n, lam, 4, 1),
        lambda lam: fp_potential(p, n, lam, 0.0, 0.25, spike, 4, 1),
        lambda lam: fp_profile(p, n, lam, 0.25, spike, 4, 1),
        lambda lam: kl_log_likelihood_ratio(sample_instance(p, n, lam, 1), p),
        lambda lam: finite._kl_pair_draws(p, n, lam, 2, 1),
        lambda lam: log_partition_exact(sample_instance(p, n, lam, 1), p),
        lambda lam: phi_of_t(p, n, lam, 0.5, 0.5, 0.5, 4, 1),
        lambda lam: guerra_slope_check(p, n, lam, 0.5, n_disorder=4, seed=1),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(0.999 * edge)
        with pytest.raises(DomainError, match="energies reach"):
            call(1.001 * edge)
    # the table's n^2 K^4 alone: point:1e100 is refused at every lambda
    with pytest.raises(DomainError, match="energies reach"):
        free_entropy_mc(parse_prior_spec("point:1e100"), n, 0.0, 4, 1)


def test_energy_scale_lambdas_the_parent_handled_still_run():
    # lambda = 1e200 is far inside the bound: log Z and the likelihood ratio
    # come out finite, and so does a free-entropy stderr whose deviations
    # reach 1e199 (their squares would overflow without _mean_stderr's scaling)
    p, n = parse_prior_spec("sparse:0.25"), 4
    inst = sample_instance(p, n, 1e200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(log_partition_exact(inst, p).log_z)
        assert np.isfinite(kl_log_likelihood_ratio(inst, p)).all()
        est = free_entropy_mc(p, n, 1e200, 4, 1)
    assert math.isfinite(est.mean) and 1e190 < est.stderr < math.inf


def test_mean_stderr_keeps_numpy_bits_below_two_to_the_500():
    rng = np.random.default_rng(5)
    for values in (rng.standard_normal(7), 1e149 * rng.standard_normal((9, 3))):
        mean, se = finite._mean_stderr(values)
        assert np.array_equal(mean, values.mean(axis=0))
        assert np.array_equal(se, values.std(axis=0, ddof=1) / math.sqrt(values.shape[0]))
    big = 1e300 * rng.standard_normal(9)
    mean, se = finite._mean_stderr(big)
    assert mean == pytest.approx(np.mean(big / 1e300) * 1e300, rel=1e-14)
    assert se == pytest.approx(np.std(big / 1e300, ddof=1) / 3.0 * 1e300, rel=1e-14)


class TestBatchedKernel:
    # (draws, block budget): one draw at the default budget, and five draws
    # with the budget shrunk to the configuration count, which splits the
    # rows into several row blocks (and the draws, for n <= 3), the
    # likelihood ratio's draws into blocks of one or two and its (x_L, x_R)
    # grid into chunks of a few x_L.  Forty draws at that budget split into draw blocks at n = 8
    # too, where a draw block holds at most P = 28 draws.
    BLOCKINGS = [(1, None), (5, "small")]

    # The likelihood ratio splits the sites into the first n // 2 and the
    # rest: odd n, the smallest split, one atom, and asymmetric and
    # many-atom priors.
    @pytest.mark.parametrize("spec, n", [
        ("point:0.7", 6), ("rademacher", 8), ("sparse:0.25", 6), ("asym:0.7", 8), ("uniform:21", 3),
        ("rademacher", 2), ("asym:0.7", 2), ("point:0.7", 2), ("rademacher", 5), ("sparse:0.25", 5),
        ("asym:0.7", 5), ("point:0.7", 5), ("rademacher", 7), ("sparse:0.25", 7), ("asym:0.7", 7),
        ("uniform:21", 4),
    ])
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    @pytest.mark.parametrize("draws, blocks", BLOCKINGS)
    def test_energies_and_kl_match_per_draw_references(self, monkeypatch, spec, n, lam, draws, blocks):
        p = parse_prior_spec(spec)
        table = enumeration_table(p, n)
        full = unfold_table(table)
        if blocks == "small":
            small_budget(monkeypatch, p, n)
        insts = [sample_instance(p, n, lam, derive_seed(61, k)) for k in range(draws)]
        stacked = np.stack([inst.spike for inst in insts]), np.stack([inst.noise for inst in insts])
        # every configuration, a mirror named by its representative
        rows = np.arange(full.X.shape[0]) % table.reps
        weights = np.full((draws, rows.size), np.nan)
        for blk, ks, _, _, block in finite._log_weights(table, rows, [lam], stacked):
            weights[ks, blk] = block(0)
        llr, log_z = finite._kl_pair_draws(p, n, lam, draws, 61)
        assert llr.size == log_z.size == draws
        for inst, a, llr_k, log_z_k in zip(insts, weights, llr, log_z):
            ref = full.logw + reference_neg_energy(inst, full)
            assert np.abs(a - ref).max() <= 1e-12
            assert abs(log_z_k - _logsumexp(ref)) <= 1e-12
            assert abs(llr_k - _reference_llr(inst, full)) <= 1e-12

    @pytest.mark.parametrize("draws, blocks", BLOCKINGS + [(40, "small")])
    def test_disorder_means_match_per_draw_reference(self, monkeypatch, priors, draws, blocks):
        # asym:0.7 keeps both Nishimori sides away from zero, so that a
        # relative tolerance means something
        p, n, lam, seed = priors["asym:0.7"], 8, 2.0, 19
        table = enumeration_table(p, n)
        if blocks == "small":
            small_budget(monkeypatch, p, n)
        est = free_entropy_mc(p, n, lam, draws, seed)
        rep = nishimori_check(p, n, lam, draws, seed)
        f_n, r12, r1s = [], [], []
        for k in range(draws):
            inst = sample_instance(p, n, lam, derive_seed(seed, k))
            a = table.logw + reference_neg_energy(inst, table)
            post = np.exp(a - _logsumexp(a))
            f_n.append(_logsumexp(a) / n)
            r12.append(((post @ table.X) ** 2).mean())
            r1s.append(post @ np.round(table.X @ inst.spike / n, 9))
        assert est.mean == pytest.approx(np.mean(f_n), rel=1e-13)
        assert rep.params["mean_r12"] == pytest.approx(np.mean(r12), rel=1e-13)
        assert rep.params["mean_r1s"] == pytest.approx(np.mean(r1s), rel=1e-13)

    def test_small_budget_splits_rows_and_draws(self, monkeypatch, priors):
        # the blockings of this module reach what they are meant to: several
        # row blocks, a row-block edge inside the mirrored rows [:mirrors] of
        # a sign-folded table, and several draw blocks at forty draws
        for spec, n in (("rademacher", 8), ("asym:0.7", 8), ("sparse:0.25", 6), ("uniform:21", 3)):
            p = priors[spec]
            small_budget(monkeypatch, p, n)
            table = enumeration_table(p, n)
            r_step, d_step = finite._blocks(table.reps, n, 5)
            assert r_step < table.reps and (d_step < 5) == (n == 3)
            if table.mirrors:
                assert 0 < r_step < table.mirrors and table.mirrors % r_step
            r_step, d_step = finite._blocks(table.reps, n, 40)
            assert r_step < table.reps and d_step < 40

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_default_budget_bounds_the_pass(self, monkeypatch):
        # with the table built, no array of the pass spans the draws times
        # the priced rows: sparse:0.25 at n = 9 holds 60 x 9,842 values in
        # the kernel's parts alone (9.4 MB for Q_W and S) before streaming.
        # One walker's block buffers stay within 2 MB, on one CPU; two
        # walkers each hold a draw block's kernel parts and weights, so the
        # two-walker pass stays within two walkers' 2 MB
        one_cpu = ast.literal_eval(_one_cpu("from test_finite import _pass_peaks\nprint(_pass_peaks())"))
        assert all(peak < 2 * 2**20 for peak in one_cpu), one_cpu
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two_walkers = _pass_peaks()
        assert all(peak < 2 * 2 * 2**20 for peak in two_walkers), two_walkers

    def test_block_constant_bounds_temporaries(self, monkeypatch, priors):
        # 400 draws x 256 rows: at 2**12 values per block each array of the
        # pass is at most 32 KB.  Nishimori runs on asym:0.7, whose table
        # (256 rows too) has no mirrors: on rademacher's it makes no kernel
        # pass.
        p, n, lam, draws = priors["rademacher"], 8, 2.0, 400
        asym = priors["asym:0.7"]
        enumeration_table(p, n)
        monkeypatch.setattr(finite, "_BLOCK_VALUES", 2**12)
        calls = (
            lambda: free_entropy_mc(p, n, lam, draws, 3),
            lambda: nishimori_check(asym, n, lam, draws, 3),
            lambda: finite._kl_pair_draws(p, n, lam, draws, 5),
            lambda: phi_of_t(p, n, lam, 0.5, 0.5, 0.5, draws, 3),
            lambda: guerra_slope_check(p, n, lam, 0.5, n_disorder=draws, seed=3),
        )
        for call in calls:
            call()  # a first call may import modules (np.unique loads numpy.ma)
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


class TestSignFold:
    """A sign-symmetric prior's table holds one representative per orbit and is priced on them."""

    SPECS = [("rademacher", 8), ("sparse:0.25", 6), ("uniform:21", 3), ("asym:0.7", 8), ("point:0.7", 6)]
    SYMMETRIC = ("rademacher", "sparse:0.25", "uniform:21")
    # (draws, block budget): the default, and the budget shrunk to the
    # configuration count, so that row-block edges fall inside the mirrored
    # rows, at five draws and at forty, which also split into draw blocks
    BLOCKINGS = [(6, None), (5, "small"), (40, "small")]

    @pytest.mark.parametrize("spec, n", SPECS)
    def test_orbit_table(self, spec, n):
        # the representatives and their negated rows [:mirrors] are the
        # itertools.product enumeration, each configuration exactly once
        p = parse_prior_spec(spec)
        table = enumeration_table(p, n)
        h, m = table.reps, table.mirrors
        product = np.array(list(itertools.product(p.values, repeat=n)))
        assert sorted(map(tuple, unfold_table(table).X)) == sorted(map(tuple, product))
        assert all(arr.shape[0] == h for arr in (table.X, table.logw, table.pairsq, table.sumsq))
        assert not np.signbit(table.X[table.X == 0.0]).any()
        if spec not in self.SYMMETRIC:
            assert m == 0
            return
        zero_row = 0.0 in p.values
        assert h == m + zero_row
        lead = [row[np.flatnonzero(row)[0]] for row in table.X[:m]]
        assert min(lead) > 0.0
        if zero_row:
            assert not table.X[-1].any()

    @pytest.mark.parametrize("spec, n", [
        ("rademacher", 12), ("sparse:0.25", 10), ("sparse:0.25", 12), ("asym:0.7", 12), ("uniform:21", 3),
        ("point:0.7", 6),
    ])
    def test_table_matches_reference_construction(self, spec, n):
        # the invariants gathered per atom through the digits keep every bit
        # of the ones computed from the configurations' values (uncached build)
        p = parse_prior_spec(spec)
        table = finite._enum_table.__wrapped__(p.atoms, n, prior_module._sign_symmetric(p))
        x, logw, pairsq, sumsq, mirrors = reference_enum_table(p.atoms, n, prior_module._sign_symmetric(p))
        assert table.mirrors == mirrors
        for got, want in ((table.X, x), (table.logw, logw), (table.pairsq, pairsq), (table.sumsq, sumsq)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec, n, limit_mb", [("rademacher", 16, 8.0), ("sparse:0.25", 10, 5.0)])
    def test_table_build_stores_representatives_only(self, spec, n, limit_mb):
        # the bounds lie between an uncached build's peak with the mirror rows
        # stored (11.9 and 7.5 MB) and without them (5.6 and 3.4 MB)
        p = parse_prior_spec(spec)
        finite._enum_table.__wrapped__(p.atoms, 2, True)  # a first call may import modules
        tracemalloc.start()
        try:
            table = finite._enum_table.__wrapped__(p.atoms, n, prior_module._sign_symmetric(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6
        assert all(arr.shape[0] == table.reps for arr in (table.X, table.logw, table.pairsq, table.sumsq))
        assert table.reps + table.mirrors == len(p.atoms) ** n

    @pytest.mark.parametrize("spec, n", SPECS)
    @pytest.mark.parametrize("draws, blocks", BLOCKINGS)
    def test_matches_unfolded(self, monkeypatch, spec, n, draws, blocks):
        p = parse_prior_spec(spec)
        lam, seed = 2.0, 23
        if blocks == "small":
            small_budget(monkeypatch, p, n)

        def run():
            est = free_entropy_mc(p, n, lam, draws, seed)
            rep = nishimori_check(p, n, lam, draws, seed)
            llr, log_z = finite._kl_pair_draws(p, n, lam, draws, seed)
            return est, rep.params, llr, log_z

        est, nish, llr, log_z = run()
        monkeypatch.setattr(prior_module, "_sign_symmetric", lambda p: False)
        assert enumeration_table(p, n).mirrors == 0
        est_u, nish_u, llr_u, log_z_u = run()
        assert abs(est.mean - est_u.mean) <= 1e-13 * abs(est_u.mean)
        assert abs(est.stderr - est_u.stderr) <= 1e-13 * abs(est_u.stderr) + 1e-16
        assert np.all(np.abs(llr - llr_u) <= 1e-13 * np.abs(llr_u))
        assert np.all(np.abs(log_z - log_z_u) <= 1e-13 * np.abs(log_z_u))
        for key in ("mean_r12", "mean_r1s"):
            if spec in self.SYMMETRIC:
                assert nish[key] == 0.0 and abs(nish_u[key]) <= 1e-15, (key, nish, nish_u)
            else:
                assert abs(nish[key] - nish_u[key]) <= 1e-13 * abs(nish_u[key]), key

    @pytest.mark.parametrize("spec, n", [("rademacher", 8), ("sparse:0.25", 6), ("uniform:21", 3)])
    def test_nishimori_exact_zeros_without_kernel(self, monkeypatch, spec, n):
        # a mirror's log weight equals its representative's and its odd
        # statistics are negated, so both means are exact zeros unpriced
        def no_kernel(*args):
            raise AssertionError("the energy kernel ran")

        def no_draw(*args):
            raise AssertionError("a disorder draw was made")

        monkeypatch.setattr(finite, "_log_weights", no_kernel)
        monkeypatch.setattr(finite, "sample_instance", no_draw)
        rep = nishimori_check(parse_prior_spec(spec), n, 2.0, 7, 23)
        assert rep.params["mean_r12"] == rep.params["mean_r1s"] == 0.0
        assert rep.stderr == 0.0 and rep.allowance == 1e-12 and rep.passed
        assert rep.params["skipped"] == "sign-symmetric prior: both sides vanish exactly"

    def test_overlap_law_has_no_negative_zero(self):
        # a tiny negative overlap rounded to 9 digits is -0.0 unless normalized
        p = parse_prior_spec("uniform:21")
        for seed in range(30):
            law = log_partition_exact(sample_instance(p, 3, 1.5, seed), p).overlap_law
            assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v, _ in law), seed


class TestTableStorage:
    """The table stores atom indices and is built a chunk at a time."""

    SPECS = [("rademacher", 12), ("sparse:0.25", 9), ("asym:0.7", 10), ("uniform:8", 5)]

    @pytest.mark.parametrize("spec, n", SPECS)
    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_chunked_build_keeps_bits(self, monkeypatch, spec, n, chunk_rows):
        # chunks of a few rows put their edges inside the sign orbits and
        # between every representative and its mirror (sparse:0.25 has a
        # zero atom, asym:0.7 no mirrors); every array keeps its bytes
        p = parse_prior_spec(spec)
        args = p.atoms, n, prior_module._sign_symmetric(p)
        default = finite._enum_table.__wrapped__(*args)
        monkeypatch.setattr(finite, "_CHUNK_VALUES", chunk_rows * n)
        chunked = finite._enum_table.__wrapped__(*args)
        assert chunked.mirrors == default.mirrors
        assert chunked.digits.dtype == np.uint8
        for name in ("digits", "logw", "pairsq", "sumsq", "X"):
            got, want = getattr(chunked, name), getattr(default, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_memory_is_bounded(self):
        # rademacher at n = 16: the table's arrays take n + 24 bytes per
        # representative, and a cold build with one free_entropy_mc pass
        # traces within them plus 3 MB, for the build's chunk (_CHUNK_VALUES
        # doubles, 2 MB) and the pass's blocks; a float64 copy of the
        # configurations alone is 4.2 MB
        p, n = parse_prior_spec("rademacher"), 16
        free_entropy_mc(p, 4, 2.0, 3, 1)  # a first call may import modules
        table = enumeration_table(p, n)
        stored = sum(getattr(table, name).nbytes for name in ("digits", "logw", "pairsq", "sumsq"))
        assert stored == table.reps * (n + 24)
        finite._enum_table.cache_clear()
        tracemalloc.start()
        try:
            free_entropy_mc(p, n, 2.0, 8, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored + 3 * 2**20

    def test_nishimori_bits_do_not_depend_on_blas_threads(self):
        # run_suite's asym:0.7 Nishimori check at lambda = 0.5, whose slack,
        # stderr and allowance moved by an ulp between one and two OpenBLAS
        # threads while the pass ran at the library's thread count
        script = (
            "from replica_lab import derive_seed, nishimori_check, parse_prior_spec\n"
            "r = nishimori_check(parse_prior_spec('asym:0.7'), 12, 0.5, 50, derive_seed(123456789, 102))\n"
            "print(*(v.hex() for v in (r.slack, r.stderr, r.allowance, r.params['mean_r12'], r.params['mean_r1s'])))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                       OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            outputs.append(out.stdout.split())
        assert outputs[0] == outputs[1]


class TestWalkers:
    """Two draw-block walkers under one BLAS thread give the one-CPU pass's bits."""

    @pytest.fixture
    def blas(self):
        if finite._openblas() is None:
            pytest.skip("numpy links no bundled OpenBLAS, so the pass never splits")
        return finite._openblas()

    def walker_counts(self, monkeypatch):
        counts, walkers = [], finite._walkers

        def spy(walk, args):
            counts.append(len(args))
            return walkers(walk, args)

        monkeypatch.setattr(finite, "_walkers", spy)
        return counts

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_consumers_match_the_one_cpu_pass(self, monkeypatch, blas):
        # the one-CPU side walks the draw blocks in order on one thread; this
        # side walks them on two, whatever the CPUs of the host
        one = ast.literal_eval(_one_cpu("from test_finite import _consumer_values\nprint(_consumer_values())"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        counts = self.walker_counts(monkeypatch)
        two = _consumer_values()
        assert set(counts) == {1, 2}
        assert one.keys() == two.keys()
        for key in one:
            assert one[key] == two[key], key

    def test_split_under_fast_thread_switching(self, monkeypatch, blas, priors):
        # the walkers write disjoint draws of the pass's running sums: with
        # the interpreter switching threads every microsecond, a lost update
        # would move some draw's log Z away from the one-walker pass's
        p, n = priors["sparse:0.25"], 9
        table = enumeration_table(p, n)
        counts = self.walker_counts(monkeypatch)
        interval = sys.getswitchinterval()
        for draws in (61, 100, 200):
            pass_draws = finite._draws(p, n, 5, draws)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            one = finite._gibbs(table, None, [0.5, 2.0], pass_draws)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            try:
                sys.setswitchinterval(1e-6)
                two = finite._gibbs(table, None, [0.5, 2.0], pass_draws)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(one, two), draws
        assert counts == [1, 2] * 3

    @pytest.mark.parametrize("failing", ["calling", "second"])
    def test_walker_error_reaches_the_caller(self, monkeypatch, blas, priors, failing):
        # an exception in either walker is raised by the pass once both have
        # ended, and OpenBLAS's thread count is restored
        get, set_count = blas
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        counts = self.walker_counts(monkeypatch)
        p, n = priors["sparse:0.25"], 9
        table, draws = enumeration_table(p, n), finite._draws(p, n, 3, 61)
        threads = []

        def field(c, ks, spikes):
            threads.append(get())
            if (threading.current_thread() is threading.main_thread()) == (failing == "calling"):
                raise KeyError(f"{failing} walker")
            return spikes

        before = get()
        try:
            set_count(2)
            with pytest.raises(KeyError, match=f"{failing} walker"):
                finite._gibbs(table, None, [2.0], draws, (None, field))
            assert get() == 2
        finally:
            set_count(before)
        assert counts == [2] and set(threads) == {1}

    def test_without_bundled_openblas_the_pass_is_sequential(self, monkeypatch, priors):
        # another BLAS: one walker, at the BLAS's own threading
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(finite, "_openblas", lambda: None)
        counts = self.walker_counts(monkeypatch)
        p, n = priors["sparse:0.25"], 9
        est = free_entropy_mc(p, n, 2.0, 61, 3)
        assert counts == [1] and math.isfinite(est.mean)


class TestKlIdentity:
    @pytest.mark.parametrize("spec", ["rademacher", "asym:0.7"])
    def test_one_site_refused_like_log_partition_exact(self, spec):
        # the pair checks its inputs through _setup, as log_partition_exact does
        p, inst = parse_prior_spec(spec), SpikedInstance([1.0], [], 1.0)
        for call in (kl_log_likelihood_ratio, log_partition_exact):
            with pytest.raises(InvalidArgumentError, match="n must be >= 2, got 1"):
                call(inst, p)

    @pytest.mark.parametrize("spec, n", [("rademacher", 7), ("sparse:0.25", 6), ("asym:0.7", 5)])
    def test_stacked_draws_are_the_instances(self, spec, n):
        # kl_identity_check's draws: one _draws call and one Y, not one
        # instance at a time, with the bits of the SpikedInstance constructor
        p, lam, seed, draws = parse_prior_spec(spec), 2.0, 31, 9
        spikes, noises = finite._draws(p, n, seed, draws)
        ys = finite._observations(spikes, noises, lam)
        instances = [sample_instance(p, n, lam, derive_seed(seed, k)) for k in range(draws)]
        for k, inst in enumerate(instances):
            for got, want in ((spikes[k], inst.spike), (noises[k], inst.noise), (ys[k], inst.y)):
                assert got.tobytes() == want.tobytes()
            assert ys[k].tobytes() == SpikedInstance(spikes[k], noises[k], lam).y.tobytes()
        llr, log_z = finite._kl_pair_draws(p, n, lam, draws, seed)
        report = kl_identity_check(p, n, lam, draws, seed)
        assert report.params["max_abs_diff"] == float(np.abs(llr - log_z).max())

    def test_one_log_z_per_instance(self):
        # the pair's log Z is log_partition_exact's, bit for bit: one pass of
        # the instance, not a second one blocked differently
        for spec, n in (("rademacher", 12), ("rademacher", 16), ("sparse:0.25", 10), ("asym:0.7", 12),
                        ("uniform:21", 4), ("point:0.7", 6)):
            p = parse_prior_spec(spec)
            for seed in range(10):
                inst = sample_instance(p, n, 2.0, seed)
                got, want = kl_log_likelihood_ratio(inst, p)[1], log_partition_exact(inst, p).log_z
                assert got.hex() == want.hex(), (spec, n, seed)

    def test_zero_snr(self, priors):
        inst = sample_instance(priors["rademacher"], 8, 0.0, 3)
        llr, log_z = kl_log_likelihood_ratio(inst, priors["rademacher"])
        assert abs(llr) <= 1e-12 and abs(log_z) <= 1e-12

    def test_identity_random_instances(self, priors):
        p = priors["sparse:0.25"]
        for k in range(10):
            inst = sample_instance(p, 8, 1.5, derive_seed(50, k))
            llr, log_z = kl_log_likelihood_ratio(inst, p)
            assert abs(llr - log_z) <= 1e-10

    def test_mean_llr_reproduces_n_times_free_entropy(self, priors):
        # D_KL(P_lam, P_0) = N F_N: average the likelihood ratio over disorder
        p = priors["rademacher"]
        n, lam, draws = 12, 2.0, 400
        llrs = np.array(
            [
                kl_log_likelihood_ratio(sample_instance(p, n, lam, derive_seed(9, k)), p)[0]
                for k in range(draws)
            ]
        )
        est = free_entropy_mc(p, n, lam, draws, 1009)
        se = math.hypot(llrs.std(ddof=1) / math.sqrt(draws), n * est.stderr)
        assert abs(llrs.mean() - n * est.mean) <= 3.0 * se


class TestFpPotential:
    def test_full_window_equals_unrestricted(self, priors):
        p = priors["rademacher"]
        spike = np.ones(10)
        full = fp_potential(p, 10, 2.0, -1.5, 4.0, spike, 25, 9)
        assert not full.empty_window
        # same disorder stream, no indicator: the two sums agree term by term
        from replica_lab.interpolation import _phi_t_draws

        draws = _phi_t_draws(p, 10, 2.0, 0.0, 0.0, [1.0], 25, 9, spike=spike)
        assert full.mean == draws[:, 0].mean()

    def test_singleton_window_direct_formula(self, priors):
        p = priors["rademacher"]
        spike = np.ones(12)
        est = fp_potential(p, 12, 1.0, 1.0 - 1e-9, 1e-6, spike, 30, 55)
        vals = []
        for k in range(30):
            rng = np.random.default_rng(derive_seed(55, k) & ((1 << 64) - 1))
            noise = rng.standard_normal(66)
            inst = SpikedInstance(spike, noise, 1.0)
            vals.append((hamiltonian(inst, spike) + 12 * math.log(0.5)) / 12)
        assert est.mean == pytest.approx(float(np.mean(vals)), abs=1e-12)

    def test_validation(self, priors):
        p = priors["rademacher"]
        with pytest.raises(InvalidArgumentError, match="length 10"):
            fp_potential(p, 10, 2.0, 0.0, 0.25, np.ones(8), 5, 1)
        with pytest.raises(InvalidArgumentError, match="length 10"):
            fp_profile(p, 10, 2.0, 0.25, np.ones(8), 5, 1)
        with pytest.raises(InvalidArgumentError, match="eps"):
            fp_profile(p, 10, 2.0, 0.0, np.ones(10), 5, 1)
        with pytest.raises(InvalidArgumentError, match="n must be >= 2, got 1"):
            fp_profile(p, 1, 2.0, 0.25, np.ones(1), 5, 1)
        # a Franz-Parisi window is a fixed-spike object
        with pytest.raises(InvalidArgumentError, match="an overlap window needs a fixed spike"):
            fp_potential(p, 10, 2.0, 0.0, 0.25, None, 5, 1)
        with pytest.raises(InvalidArgumentError, match="an overlap window needs a fixed spike"):
            fp_profile(p, 10, 2.0, 0.25, None, 5, 1)

    def test_empty_window_sentinel(self, priors):
        est = fp_potential(priors["rademacher"], 8, 1.0, -2.0, 0.1, np.ones(8), 5, 1)
        assert est.empty_window
        assert est.mean == float("-inf")

    def test_profile_matches_single_window(self, priors):
        p = priors["rademacher"]
        spike = sample_spike(p, 10, 4)
        eps = 0.25
        prof = dict(fp_profile(p, 10, 2.0, eps, spike, 20, 31))
        for l in (0, -2):
            if l in prof:
                single = fp_potential(p, 10, 2.0, l * eps, eps, spike, 20, 31)
                assert prof[l].mean == pytest.approx(single.mean, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.25, 0.3])
    def test_profile_and_potential_share_windows(self, priors, eps):
        # R = 0.6 starts window 6 at eps = 0.1 although 0.6 / 0.1 = 5.999999999999999
        p = priors["rademacher"]
        n = 10
        configs = unfold_table(enumeration_table(p, n)).X
        for spike in (np.ones(n), sample_spike(p, n, 4)):
            prof = dict(fp_profile(p, n, 2.0, eps, spike, 3, 31))
            bins = finite._window_index(configs @ spike / n, 0.0, eps)
            reach = math.ceil(1.0 / eps) + 1
            for l in range(-reach, reach + 1):
                rows = finite._window_index(configs @ spike / n, l * eps, eps) == 0
                assert np.array_equal(rows, bins == l), (eps, l)
                single = fp_potential(p, n, 2.0, l * eps, eps, spike, 3, 31)
                assert single.empty_window == (l not in prof), (eps, l)
                if l in prof:
                    assert prof[l] == single, (eps, l)
            assert set(prof) <= set(range(-reach, reach + 1))

    @pytest.mark.parametrize("divisor", [None, 8])
    def test_profile_and_potential_match_per_draw_reference(self, monkeypatch, priors, divisor):
        # at the budget of the configuration count // 8 a window's rows are
        # split across row blocks, and their running sums merge
        p, n, lam, eps, draws, seed = priors["sparse:0.25"], 7, 2.0, 0.25, 3, 31
        table = unfold_table(enumeration_table(p, n))
        spike = sample_spike(p, n, 4)
        bins = finite._window_index(table.X @ spike / n, 0.0, eps)
        if divisor is not None:
            small_budget(monkeypatch, p, n, divisor)
            sizes = [int(np.sum(bins == l)) for l in np.unique(bins)]
            assert any(size > finite._blocks(size, n, draws)[0] for size in sizes)
        prof = dict(fp_profile(p, n, lam, eps, spike, draws, seed))
        energies = []
        for k in range(draws):
            noise = np.random.default_rng(derive_seed(seed, k) & ((1 << 64) - 1)).standard_normal(n * (n - 1) // 2)
            energies.append(table.logw + reference_neg_energy(SpikedInstance(spike, noise, lam), table))
        assert set(prof) == set(np.unique(bins).astype(int))
        for l in prof:
            want = np.mean([_logsumexp(a[bins == l]) / n for a in energies])
            assert prof[l].mean == pytest.approx(want, abs=1e-12)
            assert fp_potential(p, n, lam, l * eps, eps, spike, draws, seed).mean == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("spec, n", [("rademacher", 8), ("sparse:0.25", 6), ("asym:0.7", 7), ("uniform:21", 3)])
    @pytest.mark.parametrize("eps", [0.25, 0.1, 0.3, 1 / 3])
    def test_profile_windows_equal_potential_bit_for_bit(self, spec, n, eps):
        # every profile window is fp_potential's pass over the same rows
        p = parse_prior_spec(spec)
        for seed in (31, 32):
            spike = sample_spike(p, n, seed)
            prof = fp_profile(p, n, 1.5, eps, spike, 9, seed)
            assert prof
            for l, est in prof:
                assert est == fp_potential(p, n, 1.5, l * eps, eps, spike, 9, seed), (seed, l)

    def test_many_windows_equal_potential_bit_for_bit(self):
        # dozens of windows, each a run of one sort of the window indices
        p, n, eps, seed = parse_prior_spec("uniform:8"), 4, 0.01, 5
        spike = sample_spike(p, n, seed)
        prof = fp_profile(p, n, 1.5, eps, spike, 3, seed)
        assert len(prof) >= 24
        assert [l for l, _ in prof] == sorted(l for l, _ in prof)
        for l, est in prof:
            assert est == fp_potential(p, n, 1.5, l * eps, eps, spike, 3, seed), l

    @pytest.mark.parametrize("spec, n", [("rademacher", 10), ("sparse:0.25", 7), ("asym:0.7", 9), ("uniform:21", 3)])
    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_overlap_kernel_matches_direct_product(self, monkeypatch, spec, n, chunk_rows):
        # one product per chunk of the representatives, the mirrors negated:
        # the same values as the product over every configuration, whether
        # the table is one chunk or many (uniform:21's atoms are not dyadic,
        # so its sums may round differently)
        p = parse_prior_spec(spec)
        table = enumeration_table(p, n)
        if chunk_rows:
            monkeypatch.setattr(finite, "_BLOCK_VALUES", chunk_rows * n)
        configs = unfold_table(table).X
        for seed in range(3):
            spike = sample_spike(p, n, seed)
            got, want = finite._overlaps(table, spike[None])[0], configs @ spike / n
            if spec == "uniform:21":
                assert np.max(np.abs(got - want)) <= 1e-15
            else:
                assert np.array_equal(got, want)

    def test_profile_refuses_inexact_window_indices(self, priors):
        # K^2 / eps above 2**53: the int64 window labels would overflow
        p = priors["rademacher"]
        with pytest.raises(InvalidArgumentError, match="eps must be >= K"):
            fp_profile(p, 6, 2.0, 1e-20, np.ones(6), 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finest = fp_profile(p, 6, 2.0, 2.0**-53, np.ones(6), 2, 1)
        coarse = fp_profile(p, 6, 2.0, 1e-3, np.ones(6), 2, 1)
        assert len(finest) == len(coarse) == 7  # one window per overlap k/3, k = -3..3
        for (_, a), (_, b) in zip(finest, coarse):
            assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_extreme_window_is_empty_and_silent(self, priors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fp_potential(priors["rademacher"], 6, 1.0, 1e300, 1e-300, np.ones(6), 2, 1)
        assert est.empty_window


class TestNishimori:
    def test_zero_snr_centered(self, priors):
        rep = nishimori_check(priors["rademacher"], 8, 0.0, 20, 12)
        assert rep.passed
        assert abs(rep.params["mean_r12"]) <= 1e-12
        assert abs(rep.params["mean_r1s"]) <= 1e-12

    def test_point_mass_exact(self):
        p = point_mass_prior(0.5)
        rep = nishimori_check(p, 6, 1.0, 10, 3)
        assert rep.passed
        assert rep.params["mean_r12"] == pytest.approx(0.25, abs=1e-12)
        assert rep.params["mean_r1s"] == pytest.approx(0.25, abs=1e-12)

    def test_asymmetric_prior_nontrivial(self, priors):
        rep = nishimori_check(priors["asym:0.7"], 10, 1.0, 400, 11)
        assert rep.passed
        assert rep.params["mean_r12"] > 0.1  # genuinely nonzero sides
        assert "skipped" not in rep.params


class TestMetropolis:
    def test_zero_snr_prior_sampling(self, priors):
        p = priors["asym:0.7"]
        inst = sample_instance(p, 12, 0.0, 8)
        samples = metropolis_sampler(inst, p, 4000, 100, 21)
        target = 0.4 * inst.spike.mean()  # E[X] times the spike mean
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - target) <= 4.0 * se

    def test_two_site_stationary_law(self, priors):
        p = priors["rademacher"]
        inst = sample_instance(p, 2, 1.5, 14)
        law = dict(log_partition_exact(inst, p).overlap_law)
        samples = metropolis_sampler(inst, p, 60000, 2000, 5)
        vals, counts = np.unique(np.round(samples, 9), return_counts=True)
        emp = dict(zip(vals.tolist(), (counts / counts.sum()).tolist()))
        tv = 0.5 * sum(
            abs(law.get(k, 0.0) - emp.get(k, 0.0)) for k in set(law) | set(emp)
        )
        assert tv <= 0.02

    def test_validation(self, priors):
        inst = sample_instance(priors["rademacher"], 4, 1.0, 1)
        with pytest.raises(InvalidArgumentError):
            metropolis_sampler(inst, priors["rademacher"], 10, 10, 0)

    def test_non_integer_counts_refused(self, priors):
        # float sweep and burn-in counts are refused before the order check,
        # not left to fail inside numpy with a TypeError
        p = priors["sparse:0.25"]
        inst = sample_instance(p, 6, 1.0, 3)
        for n_sweeps, burn_in in ((10.0, 2), (10, 2.0), (10.5, 2)):
            with pytest.raises(InvalidArgumentError, match="must be an integer"):
                metropolis_sampler(inst, p, n_sweeps, burn_in, 0)
        assert metropolis_sampler(inst, p, np.int64(10), np.int32(2), 0).shape == (8,)


class TestConcentration:
    def test_restricted_log_z_variance_halves_when_n_doubles(self, priors):
        # Lipschitz concentration in the Gaussian disorder: Var ~ 1/N.  The
        # window [0.5, 0.625) holds exactly one overlap sector at both sizes
        # (the one at the posterior peak), so no window-quantization effects
        # pollute the pure disorder scaling.
        p = priors["rademacher"]
        variances = {}
        for n in (8, 16):
            spike = sample_spike(p, n, 1000 + n)
            est = fp_potential(p, n, 2.0, 0.5, 0.125, spike, 400, 2000 + n)
            variances[n] = (est.stderr * math.sqrt(400)) ** 2
        ratio = variances[8] / variances[16]
        assert 1.5 <= ratio <= 3.0, ratio

    def test_fixed_spike_potential_variance_decay(self):
        # F_hat averages n i.i.d. site terms, so its spike-to-spike variance
        # scales like 1/n; asymmetric prior keeps the site terms nondegenerate
        p = asymmetric_binary_prior(0.7)
        variances = {}
        for n in (8, 16):
            vals = [
                f_hat(p, 2.0, 0.5, 0.5, sample_spike(p, n, derive_seed(333, n, k)))
                for k in range(400)
            ]
            variances[n] = float(np.var(vals, ddof=1))
        ratio = variances[8] / variances[16]
        assert 1.4 <= ratio <= 2.9, ratio

    def test_free_entropy_discretization_bound(self, priors):
        # F_N <= E_x* max_l Phi_eps(l eps, x*) + log(C/eps)/sqrt(N) + 3 se,
        # with the calibration constant C = 4 K^2
        p = priors["rademacher"]
        n, lam, eps = 10, 2.0, 0.25
        n_spikes, n_w = 24, 24
        fn = free_entropy_mc(p, n, lam, n_spikes * n_w, 71)
        maxima = []
        for k in range(n_spikes):
            spike = sample_spike(p, n, derive_seed(72, k))
            prof = fp_profile(p, n, lam, eps, spike, n_w, derive_seed(73, k))
            maxima.append(max(est.mean for _, est in prof))
        maxima = np.array(maxima)
        allowance = math.log(4.0 / eps) / math.sqrt(n) + 3.0 * (
            fn.stderr + maxima.std(ddof=1) / math.sqrt(n_spikes)
        )
        assert fn.mean <= maxima.mean() + allowance
