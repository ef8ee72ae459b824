"""Interpolating Hamiltonian, path free entropy, and the two bound checks."""

import itertools
import math
import warnings

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    EnumerationBudgetError,
    InvalidArgumentError,
    SpikedInstance,
    derive_seed,
    fp_potential,
    fp_upper_check,
    free_entropy_mc,
    guerra_slope_check,
    parse_prior_spec,
    phi_of_t,
    psi,
    sample_instance,
    sample_spike,
    second_moment,
)
from replica_lab import finite
from replica_lab import priors as prior_module
from replica_lab.channel import psi_hat_array
from replica_lab.rs import _f_bar_grad, f_hat
from replica_lab.finite import enumeration_table
from replica_lab.interpolation import DEFAULT_T_GRID, _phi_t_draws

from conftest import augment, h_t, hamiltonian, small_budget


class TestAugmentedInstance:
    def test_side_observation_structure(self, priors):
        inst = sample_instance(priors["rademacher"], 6, 2.0, 5)
        aug = augment(inst, 0.4, 1.5, 0.8, 77)
        expected = math.sqrt(0.6 * 1.5) * inst.spike + aug.side_noise
        assert np.allclose(aug.side_obs, expected, atol=1e-15)

    def test_t_range_enforced(self, priors):
        inst = sample_instance(priors["rademacher"], 4, 1.0, 1)
        with pytest.raises(DomainError):
            augment(inst, 1.2, 1.0, 1.0, 0)
        with pytest.raises(DomainError):
            augment(inst, 0.5, -1.0, 1.0, 0)


class TestHt:
    def test_t_one_matches_hamiltonian(self, priors):
        # side coefficients vanish; the matrix part re-expands Y exactly
        p = priors["sparse:0.25"]
        inst = sample_instance(p, 8, 2.0, 11)
        aug = augment(inst, 1.0, 3.0, -1.0, 13)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.choice(p.values, 8)
            assert h_t(aug, x) == pytest.approx(hamiltonian(inst, x), abs=1e-10)

    def test_t_zero_decouples_per_site(self, priors):
        inst = sample_instance(priors["rademacher"], 7, 2.0, 3)
        r = 1.3
        aug = augment(inst, 0.0, r, r, 9)
        x = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
        per_site = sum(
            math.sqrt(r) * aug.side_noise[i] * x[i]
            + r * x[i] * inst.spike[i]
            - r / 2.0 * x[i] ** 2
            for i in range(7)
        )
        assert h_t(aug, x) == pytest.approx(per_site, abs=1e-12)

    def test_zero_configuration(self, priors):
        inst = sample_instance(priors["rademacher"], 5, 1.0, 2)
        aug = augment(inst, 0.5, 1.0, 1.0, 4)
        assert h_t(aug, np.zeros(5)) == 0.0

    def test_continuity_in_t(self, priors):
        # |h_t - h_t'| admits an explicit modulus built from instance norms
        p = priors["rademacher"]
        inst = sample_instance(p, 8, 2.0, 19)
        r, s = 1.7, -0.9
        n = inst.n
        K = 1.0
        rng = np.random.default_rng(5)
        l_w = math.sqrt(2.0 / n) * float(np.abs(inst.noise).sum()) * K**2
        l_pair = 2.0 / n * (n * (n - 1) / 2) * K**4 * 1.5
        for _ in range(10):
            t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
            x = rng.choice(p.values, n)
            a1 = augment(inst, t1, r, s, 50)
            a2 = augment(inst, t2, r, s, 50)
            z_term = math.sqrt(r) * float(np.abs(a1.side_noise).sum()) * K
            modulus = (
                l_w * abs(math.sqrt(t1) - math.sqrt(t2))
                + l_pair * abs(t1 - t2)
                + z_term * abs(math.sqrt(1 - t1) - math.sqrt(1 - t2))
                + (abs(s) * K**2 + r / 2.0 * K**2) * n * abs(t1 - t2)
            )
            assert abs(h_t(a1, x) - h_t(a2, x)) <= modulus + 1e-12

    def test_length_mismatch(self, priors):
        inst = sample_instance(priors["rademacher"], 5, 1.0, 2)
        aug = augment(inst, 0.5, 1.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError):
            h_t(aug, np.ones(4))


class TestPhiOfT:
    def test_t_one_reproduces_free_entropy_estimator(self, priors):
        # same instances, side terms exactly zero: bit-for-bit equality
        p = priors["rademacher"]
        est_f = free_entropy_mc(p, 10, 2.0, 40, 123)
        est_p = phi_of_t(p, 10, 2.0, 0.7, 0.3, 1.0, 40, 123)
        assert est_p.mean == est_f.mean
        assert est_p.stderr == est_f.stderr

    def test_t_zero_matches_scalar_channel(self, priors, ev):
        p = priors["rademacher"]
        q = 0.5
        est = phi_of_t(p, 10, 2.0, q, q, 0.0, 400, 99)
        assert abs(est.mean - psi(ev, p, 2.0 * q)) <= 3.0 * est.stderr

    def test_t_zero_restricted_fixed_spike_bounded_by_site_average(self, priors, ev):
        # dropping the overlap indicator can only raise the free entropy
        p = priors["rademacher"]
        n, lam, q, m = 10, 2.0, 0.5, 0.25
        spike = sample_spike(p, n, 17)
        est = phi_of_t(
            p, n, lam, q, m, 0.0, 200, 31, restricted=(m, 0.25), spike=spike
        )
        site_avg = float(
            np.mean(psi_hat_array(ev, p, lam * q, lam * m * spike))
        )
        assert est.mean <= site_avg + 3.0 * max(est.stderr, 1e-12)

    def test_symmetric_prior_spike_flip_invariance_at_zero_tilt(self, priors):
        # with s = 0 the Hamiltonian is even in the spike, so mirrored runs agree
        p = priors["rademacher"]
        spike = sample_spike(p, 8, 3)
        a = phi_of_t(p, 8, 1.5, 0.4, 0.0, 0.6, 25, 44, spike=spike)
        b = phi_of_t(p, 8, 1.5, 0.4, 0.0, 0.6, 25, 44, spike=-spike)
        assert a.mean == b.mean

    def test_empty_window_sentinel(self, priors):
        p = priors["rademacher"]
        est = phi_of_t(
            p, 8, 1.0, 0.5, 0.5, 0.5, 5, 1, restricted=(-3.0, 0.1), spike=np.ones(8)
        )
        assert est.empty_window

    @pytest.mark.parametrize("spec, n", [("rademacher", 8), ("rademacher", 10), ("sparse:0.25", 6), ("sparse:0.25", 8),
                                         ("asym:0.7", 8), ("asym:0.7", 10), ("uniform:21", 3)])
    def test_t_one_window_is_the_franz_parisi_potential(self, spec, n):
        # at t = 1 the side field is an exact zero, and the fixed-spike path
        # prices its window's rows as fp_potential selects them, on the same
        # draws: the same Gibbs pass, so mean and stderr keep their bits
        p, lam, seed = parse_prior_spec(spec), 2.0, 19
        windows = [(l * 0.25, 0.25) for l in range(-5, 5)] + [(-0.25, 0.5), (0.25, 0.5), (-9.0, 0.5)]
        for spike_seed, draws, q in ((5, 12, 0.5), (7, 10, 0.7)):
            spike = sample_spike(p, n, spike_seed)
            reached = 0
            for m_w, eps in windows:
                path = phi_of_t(p, n, lam, q, 0.3, 1.0, draws, seed, restricted=(m_w, eps), spike=spike)
                fp = fp_potential(p, n, lam, m_w, eps, spike, draws, seed)
                assert path.empty_window == fp.empty_window
                if fp.empty_window:
                    assert path.mean == fp.mean == -math.inf and path.stderr == fp.stderr == 0.0
                else:
                    reached += 1
                    assert (path.mean.hex(), path.stderr.hex()) == (fp.mean.hex(), fp.stderr.hex()), (m_w, eps)
            assert fp.empty_window and reached >= 3  # (-9, 0.5) lies below every overlap

    @pytest.mark.parametrize("spike", [None, np.ones(6)])
    @pytest.mark.parametrize("window", [(math.nan, 0.25), (0.0, math.nan), (0.0, -0.5), (-math.inf, 1.0)])
    def test_window_checked_like_fp_potential(self, priors, spike, window):
        # a non-finite start follows the rule of every m (DomainError), a bad
        # width the eps rule (InvalidArgumentError)
        p = priors["rademacher"]
        if math.isfinite(window[0]):
            error, message = InvalidArgumentError, "eps must be finite and > 0"
        else:
            error, message = DomainError, f"m must be finite, got {window[0]}"
        with pytest.raises(error, match=message):
            phi_of_t(p, 6, 2.0, 0.5, 0.5, 0.5, 3, 1, restricted=window, spike=spike)
        if spike is not None:
            with pytest.raises(error, match=message):
                fp_potential(p, 6, 2.0, window[0], window[1], spike, 3, 1)

    def test_window_needs_a_fixed_spike(self, priors):
        # a Franz-Parisi window is a fixed-spike object: without a spike the
        # path refuses it, for one t or a grid
        p = priors["sparse:0.25"]
        with pytest.raises(InvalidArgumentError, match="an overlap window needs a fixed spike"):
            phi_of_t(p, 4, 2.0, 0.5, 0.5, 0.5, 20, 1, restricted=(0.75, 0.5))
        with pytest.raises(InvalidArgumentError, match="an overlap window needs a fixed spike"):
            _phi_t_draws(p, 4, 2.0, 0.5, 0.5, DEFAULT_T_GRID, 20, 1, restricted=(0.75, 0.5))
        spike = sample_spike(p, 4, 1)
        assert phi_of_t(p, 4, 2.0, 0.5, 0.5, 0.5, 20, 1, restricted=(0.75, 0.5), spike=spike).n_samples == 20

    @pytest.mark.parametrize("spike", [np.full(6, 0.5), np.ones(8)])
    def test_fixed_spike_checked_like_fp_potential(self, priors, spike):
        # off the prior's support, or of the wrong length
        p = priors["rademacher"]
        with pytest.raises(InvalidArgumentError, match="spike"):
            phi_of_t(p, 6, 2.0, 0.5, 0.5, 0.5, 3, 1, spike=spike)
        with pytest.raises(InvalidArgumentError, match="spike"):
            fp_potential(p, 6, 2.0, 0.0, 0.5, spike, 3, 1)

    @pytest.mark.parametrize(
        "fixed_spike, window",
        [(False, None), (True, (0.0, 1.5))],
        ids=["False", "True"],
    )
    def test_interior_t_matches_definition(self, priors, fixed_spike, window):
        # phi(t) = (1/n) E log sum_x prior(x) exp(-H_t(x)), brute-forced through
        # h_t on the disorder streams the path draws: the instance from
        # derive_seed(seed, k) and the side noise z from derive_seed(seed, k, 1)
        p = priors["sparse:0.25"]
        n, lam, q, m, t, draws, seed = 6, 2.0, 0.5, 0.3, 0.4, 2, 28
        spike = sample_spike(p, n, 4) if fixed_spike else None
        est = phi_of_t(p, n, lam, q, m, t, draws, seed, restricted=window, spike=spike)
        vals = []
        for k in range(draws):
            if fixed_spike:
                noise = np.random.default_rng(derive_seed(seed, k)).standard_normal(n * (n - 1) // 2)
                inst = SpikedInstance(spike, noise, lam)
            else:
                inst = sample_instance(p, n, lam, derive_seed(seed, k))
            aug = augment(inst, t, lam * q, lam * m, derive_seed(seed, k, 1))
            exps = []
            for c in itertools.product(p.atoms, repeat=n):
                x = np.array([v for v, _ in c])
                if window is None or window[0] <= x @ inst.spike / n < window[0] + window[1]:
                    exps.append(sum(math.log(w) for _, w in c) + h_t(aug, x))
            top = max(exps)
            vals.append((top + math.log(sum(math.exp(e - top) for e in exps))) / n)
        assert est.mean == pytest.approx(float(np.mean(vals)), abs=1e-12)


class TestPathStart:
    """At t = 0, -H_t is a sum of one-site terms, so without a window the path
    takes that column from the one-site closed form instead of enumerating."""

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "asym:0.7"])
    @pytest.mark.parametrize("fixed", [False, True], ids=["resampled", "fixed"])
    def test_t_zero_closed_form_is_the_enumerated_column(self, spec, fixed, ev):
        # the enumerated column is the Gibbs pass at SNR 0 with the side term
        # of -H_0 (even -r/2 |x|^2, odd sqrt(r) z + s x*), on the pass's own
        # draws: the spikes of finite._draws and the side noise z of
        # derive_seed(seed, k, 1)
        p = parse_prior_spec(spec)
        n, lam, q, draws, seed = 8, 2.0, 0.5, 200, 61
        spike = sample_spike(p, n, 5) if fixed else None
        table = enumeration_table(p, n)
        pass_draws = finite._draws(p, n, seed, draws, spike)
        z = np.stack([np.random.default_rng(derive_seed(seed, k, 1)).standard_normal(n) for k in range(draws)])
        for m in (q, -0.3):
            r, s = lam * q, lam * m
            got = _phi_t_draws(p, n, lam, q, m, [0.0], draws, seed, spike=spike)[:, 0]
            side = (np.array([r / 2.0]), lambda c, ks, spikes: math.sqrt(r) * z[ks] + s * spikes)
            enumerated = finite._gibbs(table, None, [0.0], pass_draws, side)[:, 0] / n
            assert np.all(np.abs(got - enumerated) <= 2e-15), np.abs(got - enumerated).max()
            if m == q and not fixed:
                # with a resampled spike and s = r, E phi_N(0) = psi(r) at every N
                est = finite._mc_estimate(got, seed)
                assert abs(est.mean - psi(ev, p, r)) <= 3.0 * est.stderr

    def test_closed_form_alone_fetches_no_table(self, monkeypatch):
        # sparse:0.25 at n = 14 has 3**14 = 4,782,969 configurations, over
        # the default budget: t = 0 alone needs none of them, t = 0.5 does
        p = parse_prior_spec("sparse:0.25")
        assert math.isfinite(phi_of_t(p, 14, 2.0, 0.5, 0.5, 0.0, 20, 1).mean)
        with pytest.raises(EnumerationBudgetError):
            phi_of_t(p, 14, 2.0, 0.5, 0.5, 0.5, 20, 1)
        # the closed-form column keeps its bits without the table
        mixed = _phi_t_draws(p, 8, 2.0, 0.5, 0.5, [0.0, 0.5], 20, 1)[:, 0]

        def refused(*args):
            raise AssertionError("the closed form fetched the enumeration table")

        monkeypatch.setattr(finite, "enumeration_table", refused)
        alone = _phi_t_draws(p, 8, 2.0, 0.5, 0.5, [0.0], 20, 1)[:, 0]
        assert [v.hex() for v in alone.tolist()] == [v.hex() for v in mixed.tolist()]


class TestSignFold:
    """The path priced on a sign-symmetric table's representatives agrees with the unfolded path."""

    SPECS = [("rademacher", 8), ("sparse:0.25", 6), ("uniform:21", 3), ("asym:0.7", 8), ("point:0.7", 6)]
    # (draws, block budget): the default, and the budget shrunk to the
    # configuration count, so that row-block edges fall inside the mirrored
    # rows
    BLOCKINGS = [(6, None), (5, "small")]

    @staticmethod
    def _close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        real = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), real)
        assert np.array_equal(got[~real], want[~real])
        assert np.all(np.abs(got[real] - want[real]) <= 1e-13 * np.abs(want[real]))

    @pytest.mark.parametrize("spec, n", SPECS)
    @pytest.mark.parametrize("draws, blocks", BLOCKINGS)
    def test_matches_unfolded(self, monkeypatch, spec, n, draws, blocks):
        p = parse_prior_spec(spec)
        lam, q, m, seed = 2.0, 0.5, 0.3, 41
        spike = sample_spike(p, n, 6)
        if blocks == "small":
            small_budget(monkeypatch, p, n)

        def run():
            return (
                _phi_t_draws(p, n, lam, q, m, DEFAULT_T_GRID, draws, seed),
                _phi_t_draws(p, n, lam, q, m, DEFAULT_T_GRID, draws, seed, restricted=(-0.25, 0.75), spike=spike),
                guerra_slope_check(p, n, lam, q, n_disorder=draws, seed=seed).params["min_slope"],
                phi_of_t(p, n, lam, q, m, 0.4, draws, seed, restricted=(0.0, 0.5), spike=spike).mean,
            )

        folded = run()
        monkeypatch.setattr(prior_module, "_sign_symmetric", lambda p: False)
        assert enumeration_table(p, n).mirrors == 0
        for got, want in zip(folded, run()):
            self._close(got, want)

    @pytest.mark.parametrize("spec, n", SPECS)
    def test_t_one_reproduces_free_entropy_estimator(self, spec, n):
        p = parse_prior_spec(spec)
        est_f = free_entropy_mc(p, n, 2.0, 12, 123)
        est_p = phi_of_t(p, n, 2.0, 0.7, 0.3, 1.0, 12, 123)
        assert (est_p.mean, est_p.stderr) == (est_f.mean, est_f.stderr)


class TestBlockedPath:
    """The blocked path against the per-draw, per-t reference combine of conftest.py."""

    SPECS = [("rademacher", 8), ("sparse:0.25", 6), ("uniform:21", 3), ("asym:0.7", 8), ("point:0.7", 6)]
    # (draws, _BLOCK_VALUES as the configuration count // divisor): the count
    # gives several row blocks, with edges inside the mirrored rows; an eighth
    # gives blocks of one or a few rows.  Five draws split into draw blocks
    # only for uniform:21, whose n = 3 caps a draw block at 3 draws; forty
    # split at every n here.
    BLOCKINGS = [(5, None), (5, 1), (5, 8), (40, 1)]

    @pytest.mark.parametrize("spec, n", SPECS)
    @pytest.mark.parametrize("draws, divisor", BLOCKINGS)
    def test_matches_per_draw_reference(self, monkeypatch, spec, n, draws, divisor):
        from conftest import reference_phi_t_draws

        p = parse_prior_spec(spec)
        lam, q, seed = 2.0, 0.5, 37
        spike = sample_spike(p, n, 6)
        if divisor is not None:
            small_budget(monkeypatch, p, n, divisor)
        cases = [
            (q, q, None, None),                 # guerra_slope_check's matched path
            (q, -0.4, (0.0, 0.5), spike),       # a fixed spike's window
        ]
        for q_c, m_c, window, spike_c in cases:
            got = _phi_t_draws(p, n, lam, q_c, m_c, DEFAULT_T_GRID, draws, seed, restricted=window, spike=spike_c)
            want = reference_phi_t_draws(p, n, lam, q_c, m_c, DEFAULT_T_GRID, draws, seed, window, spike_c)
            real = np.isfinite(want)
            assert np.array_equal(got[~real], want[~real]) and np.isfinite(got[real]).all()
            # 1e-13 relative; a value below 1 in magnitude keeps the absolute
            # rounding of its O(1) log-sum-exp terms, so it is held to 1e-13
            assert np.all(np.abs(got - want)[real] <= 1e-13 * np.maximum(np.abs(want[real]), 1.0))
        ref = reference_phi_t_draws(p, n, lam, q, q, DEFAULT_T_GRID, draws, seed)
        slopes = (np.diff(ref, axis=1) / np.diff(DEFAULT_T_GRID)).mean(axis=0)
        rep = guerra_slope_check(p, n, lam, q, n_disorder=draws, seed=seed)
        assert rep.params["min_slope"] == pytest.approx(slopes[rep.params["worst_segment"]], abs=1e-12)


class TestSnrColumns:
    """An SNR's column of a Gibbs pass does not depend on the other SNRs in the pass."""

    SPECS = [("rademacher", 8), ("sparse:0.25", 6), ("asym:0.7", 8), ("uniform:21", 3)]

    @pytest.mark.parametrize("spec, n", SPECS)
    @pytest.mark.parametrize("small", [False, True])
    def test_path_column_equals_its_own_pass(self, monkeypatch, spec, n, small):
        p = parse_prior_spec(spec)
        lam, q, m, draws, seed = 2.0, 0.5, 0.3, 7, 29
        if small:
            small_budget(monkeypatch, p, n)
        spike = sample_spike(p, n, 6)
        for window, spike_c in ((None, None), (None, spike), ((-0.25, 0.75), spike)):
            grid = _phi_t_draws(p, n, lam, q, m, DEFAULT_T_GRID, draws, seed, restricted=window, spike=spike_c)
            for c, t in enumerate(DEFAULT_T_GRID):
                alone = _phi_t_draws(p, n, lam, q, m, [t], draws, seed, restricted=window, spike=spike_c)
                assert np.array_equal(grid[:, c], alone[:, 0]), (window, spike_c is None, t)

    @pytest.mark.parametrize("spec, n", SPECS)
    def test_log_z_column_is_free_entropy_mc(self, spec, n):
        p = parse_prior_spec(spec)
        lams, draws, seed = (0.5, 1.0, 2.0, 3.5), 9, 17
        table, disorder = enumeration_table(p, n), finite._draws(p, n, seed, draws)
        log_z = finite._gibbs(table, None, lams, disorder)
        for c, lam in enumerate(lams):
            assert np.array_equal(log_z[:, c], finite._gibbs(table, None, [lam], disorder)[:, 0])
            assert finite._mc_estimate(log_z[:, c] / n, seed) == free_entropy_mc(p, n, lam, draws, seed)


class TestGuerraSlope:
    def test_zero_snr_slopes_vanish(self, priors):
        rep = guerra_slope_check(priors["rademacher"], 8, 0.0, 0.5, n_disorder=20, seed=1)
        assert rep.passed
        assert rep.params["min_slope"] == 0.0
        assert rep.stderr == 0.0

    def test_zero_q_trivial_bound(self, priors):
        rep = guerra_slope_check(priors["rademacher"], 10, 1.0, 0.0, n_disorder=100, seed=2)
        assert rep.passed

    def test_main_regime(self, priors):
        rep = guerra_slope_check(priors["rademacher"], 10, 2.0, 0.5, n_disorder=400, seed=5)
        assert rep.passed
        assert rep.slack >= 0.0

    def test_grid_validation(self, priors):
        with pytest.raises(InvalidArgumentError):
            guerra_slope_check(priors["rademacher"], 8, 1.0, 0.5, t_grid=(0.5,), n_disorder=5, seed=0)
        with pytest.raises(InvalidArgumentError):
            guerra_slope_check(
                priors["rademacher"], 8, 1.0, 0.5, t_grid=(0.8, 0.2), n_disorder=5, seed=0
            )
        with pytest.raises(InvalidArgumentError, match="n_disorder"):
            guerra_slope_check(priors["rademacher"], 8, 1.0, 0.5, n_disorder=0, seed=0)
        p = priors["rademacher"]
        for lam, q, m in ((math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5), (2.0, math.nan, 0.5),
                          (2.0, math.inf, 0.5), (2.0, 0.5, math.nan), (2.0, 0.5, -math.inf)):
            with pytest.raises(DomainError, match="must be finite"):
                phi_of_t(p, 6, lam, q, m, 0.5, 3, 1, spike=np.ones(6))
        with pytest.raises(DomainError, match="q must be finite"):
            phi_of_t(p, 6, 2.0, math.nan, 0.5, 0.5, 3, 1)
        for t in (1.5, -0.1):
            with pytest.raises(DomainError, match=r"t must lie in \[0, 1\]"):
                phi_of_t(p, 6, 2.0, 0.5, 0.5, t, 4, 1)
        with pytest.raises(DomainError, match=r"t must lie in \[0, 1\]"):
            guerra_slope_check(p, 6, 2.0, 0.5, t_grid=(0.0, 1.2), n_disorder=4, seed=1)
        with pytest.raises(DomainError, match="q must be finite"):
            guerra_slope_check(p, 8, 1.0, math.nan, n_disorder=5, seed=0)
        with pytest.raises(DomainError, match="lambda must be finite"):
            fp_upper_check(p, 8, math.nan, 0.0, 0.25, n_disorder=5, seed=0)

    @pytest.mark.parametrize("q, m", [(1e10, 0.0), (0.5, -1e10)])
    def test_side_terms_bounded(self, priors, q, m):
        # lambda passes the energy bound, but r = lambda q or s = lambda m
        # would overflow the side terms: channel._check_scale at extent max(q, |m|)
        p = priors["rademacher"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="the channel exponents reach"):
                phi_of_t(p, 4, 1e300, q, m, 0.5, 3, 1)
            with pytest.raises(DomainError, match="the channel exponents reach"):
                guerra_slope_check(p, 4, 1e300, max(q, abs(m)), n_disorder=3, seed=1)
            assert math.isfinite(phi_of_t(p, 4, 1e280, q, m, 0.5, 3, 1).mean)


class TestFpUpper:
    def test_zero_snr_exact(self, priors):
        # both sides reduce to the log prior mass of the window; slack >= 0 exactly
        rep = fp_upper_check(priors["rademacher"], 10, 0.0, 0.0, 0.25, n_disorder=10, seed=4)
        assert rep.passed
        assert rep.stderr == 0.0
        assert rep.slack >= 0.0

    def test_main_regime(self, priors):
        rep = fp_upper_check(priors["rademacher"], 12, 2.0, 0.0, 0.25, n_disorder=400, seed=3)
        assert rep.passed

    def test_singleton_window(self, priors):
        rep = fp_upper_check(
            priors["rademacher"], 10, 2.0, 1.0 - 1e-9, 1e-6, n_disorder=50, seed=8
        )
        assert rep.passed
        assert math.isfinite(rep.slack)

    def test_unreachable_window_skipped(self, priors):
        rep = fp_upper_check(priors["rademacher"], 8, 1.0, -3.0, 0.05, n_disorder=5, seed=6)
        assert rep.passed
        assert rep.params.get("skipped")

    def test_q_min_is_stationary(self, priors):
        # the spike fp_upper_check draws at seed 11; F_hat is F_bar at its empirical law
        n, lam, seed = 8, 2.0, 11
        checked = 0
        for name in ("rademacher", "sparse:0.25", "asym:0.7"):
            p = priors[name]
            spike = sample_spike(p, n, derive_seed(seed, 0, 2))
            values, counts = np.unique(spike, return_counts=True)
            q_max = p.bound**2 + 1.0
            q_dense = np.linspace(0.0, q_max, 401)
            for m in (-0.5 * second_moment(p), 0.0, 0.5 * second_moment(p)):
                rep = fp_upper_check(p, n, lam, m, 0.25, n_disorder=3, seed=seed)
                if rep.params.get("skipped"):
                    continue
                q_min, rhs_min = rep.params["q_min"], rep.params["rhs_min"]
                if 0.0 < q_min < q_max:
                    _, _, d_q = _f_bar_grad(p, lam, m, q_min, None, (values, counts / n))
                    assert abs(float(d_q)) <= 1e-12, (name, m, q_min, float(d_q))
                    checked += 1
                dense_min = min(f_hat(p, lam, m, float(q), spike) for q in q_dense)
                assert rhs_min <= dense_min + 1e-12, (name, m, rhs_min, dense_min)
        assert checked >= 1
