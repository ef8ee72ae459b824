"""RS potential, saddle formula, state evolution, information curves."""

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    InvalidArgumentError,
    critical_lambda,
    f_bar,
    f_bar_inner_min,
    f_hat,
    mmse_curve,
    mutual_information,
    parse_prior_spec,
    phi_rs,
    prior_from_json,
    psi,
    psi_prime,
    rs_potential,
    saddle,
    second_moment,
    state_evolution,
)
from replica_lab import rs
from replica_lab.channel import make_evaluator, psi_hat_grad
from replica_lab.interpolation import fp_upper_check
from replica_lab.priors import (
    make_prior,
    point_mass_prior,
    rademacher_prior,
    sparse_rademacher_prior,
)

from conftest import mc_log_cosh, mc_psi_bar


class TestRsPotential:
    def test_zero_q(self, ev, priors):
        for p in priors.values():
            for lam in (0.0, 1.0, 4.0):
                assert abs(rs_potential(p, lam, 0.0, ev)) <= 1e-14

    def test_zero_lambda(self, ev, priors):
        for p in priors.values():
            for q in (0.0, 0.3, 1.0):
                assert abs(rs_potential(p, 0.0, q, ev)) <= 1e-14

    def test_rademacher_against_mc(self, ev):
        # F(2, 1) = psi(2) - 1/2 with psi(2) = -1 + E log cosh(sqrt(2) z + 2)
        p = rademacher_prior()
        val = rs_potential(p, 2.0, 1.0, ev)
        m, se = mc_log_cosh(2.0, 2.0, n_samples=10**6, seed=21)
        assert abs(val - (m - 0.5)) <= 3.0 * se

    def test_domain_errors(self, ev, priors):
        p = priors["rademacher"]
        with pytest.raises(DomainError):
            rs_potential(p, -1.0, 0.5, ev)
        with pytest.raises(DomainError):
            rs_potential(p, 1.0, -0.5, ev)
        with pytest.raises(DomainError, match="m must be finite"):
            f_bar_inner_min(p, 2.0, float("nan"), ev)


def _tanh_fixed_point(lam, q0=0.9, tol=1e-12):
    """Independent oracle for the Rademacher overlap: q = E tanh(lam q + sqrt(lam q) z)."""
    e = make_evaluator(121)
    q = q0
    for _ in range(5000):
        q_next = float(e.weights @ np.tanh(lam * q + np.sqrt(lam * q) * e.nodes))
        if abs(q_next - q) <= tol:
            return q_next
        q = q_next
    return q


class TestPhiRs:
    def test_lambda_zero(self, ev, priors):
        for p in priors.values():
            res = phi_rs(p, 0.0, ev)
            assert res.value == pytest.approx(0.0, abs=1e-14)
            assert res.optimizer_q == 0.0

    def test_below_threshold_flat(self, ev):
        # dense-grid oracle at resolution 1e-5: at lambda = 0.5 the potential
        # is maximized at q = 0
        from replica_lab.rs import _rs_values

        p = rademacher_prior()
        qs = np.linspace(0.0, 1.0, 100001)
        vals = _rs_values(p, 0.5, qs, ev)
        assert vals.argmax() == 0
        res = phi_rs(p, 0.5, ev)
        assert abs(res.value) <= 1e-12
        assert res.optimizer_q <= 1e-6

    def test_above_threshold_matches_tanh_fixed_point(self, ev):
        p = rademacher_prior()
        res = phi_rs(p, 4.0, ev)
        assert res.value > 0.0
        assert res.optimizer_q == pytest.approx(_tanh_fixed_point(4.0), abs=1e-5)

    def test_stationarity_of_optimizer(self, ev, priors):
        for p in priors.values():
            for lam in (1.5, 2.0, 4.0, 6.0):
                res = phi_rs(p, lam, ev)
                if res.optimizer_q > 1e-4:
                    gap = abs(res.optimizer_q - 2.0 * psi_prime(ev, p, lam * res.optimizer_q))
                    assert gap <= 1e-5, (p.name, lam, gap)

    def test_value_nonnegative_and_optimizer_bounded(self, ev, priors):
        for p in priors.values():
            m2 = second_moment(p)
            for lam in (0.0, 0.5, 2.0, 6.0):
                res = phi_rs(p, lam, ev)
                assert res.value >= -1e-12
                assert -1e-9 <= res.optimizer_q <= m2 + 1e-9



def _local_max_loop(vals):
    """Grid local maxima, flat runs collapsed to their left end, one point at a time."""
    n = len(vals)
    idx = []
    for i in range(n):
        left_ok = i == 0 or vals[i] >= vals[i - 1]
        right_ok = i == n - 1 or vals[i] >= vals[i + 1]
        if left_ok and right_ok:
            if idx and idx[-1] == i - 1 and vals[i] == vals[i - 1]:
                continue
            idx.append(i)
    return idx


def _full_scan_phi_rs(p, lam, ev):
    """phi_rs as it was before the strided pass: every grid point priced."""
    from replica_lab.rs import (
        GRID_RESOLUTION,
        TIE_TOL,
        PotentialResult,
        _golden_max,
        _rs_values,
    )

    m2 = second_moment(p)
    if lam == 0.0 or m2 == 0.0:
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)])
    npts = max(2, int(round(m2 / GRID_RESOLUTION)) + 1)
    q_scan = np.linspace(0.0, m2, npts)
    vals = _rs_values(p, lam, q_scan, ev)
    if vals.max() - vals.min() <= 1e-13 * max(1.0, abs(vals.max())):
        v0 = rs_potential(p, lam, 0.0, ev)
        return PotentialResult(v0, 0.0, None, [(0.0, v0)])
    optima = []
    for i in _local_max_loop(vals):
        a, b = q_scan[max(i - 1, 0)], q_scan[min(i + 1, npts - 1)]
        q_c, v_c = _golden_max(lambda q: rs_potential(p, lam, q, ev), a, b)
        v_grid = rs_potential(p, lam, float(q_scan[i]), ev)
        if v_grid > v_c:
            q_c, v_c = float(q_scan[i]), v_grid
        optima.append((float(q_c), float(v_c)))
    best_val = max(v for _, v in optima)
    q_star, value = max(((q, v) for q, v in optima if v >= best_val - TIE_TOL), key=lambda t: t[0])
    return PotentialResult(value, q_star, None, sorted(optima))


class TestPhiRsMatchesFullScan:
    """phi_rs's strided pass and fine windows give the full grid scan's result bit for bit."""

    LAMBDAS = (0.3, 0.7, 0.99, 1.0, 1.02, 1.3, 2.0, 3.5, 7.0, 20.0, 64.0)

    @pytest.mark.parametrize(
        "spec",
        ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "sparse:0.02", "sparse:0.05", "point:0.7", "uniform:8"],
    )
    def test_lambda_grid(self, ev, spec):
        p = parse_prior_spec(spec)
        for lam in self.LAMBDAS:
            assert phi_rs(p, lam, ev) == _full_scan_phi_rs(p, lam, ev), (spec, lam)

    def test_local_max_indices_matches_loop(self):
        # plateaus, NaN (not evaluated) points and lengths down to one
        from replica_lab.rs import _local_max_indices

        rng = np.random.default_rng(5)
        for _ in range(2000):
            vals = rng.integers(0, 4, rng.integers(1, 30)).astype(float)
            vals[rng.random(vals.size) < 0.2] = np.nan
            assert _local_max_indices(vals) == _local_max_loop(vals), vals

    def test_two_local_optima(self, ev):
        # a local maximum next to q = 0 behind a dip narrower than the coarse
        # stride, and the two branches at a first-order transition
        p_02 = sparse_rademacher_prior(0.02)
        p_05 = sparse_rademacher_prior(0.05)
        for p, lam in ((p_02, 1.0), (p_05, critical_lambda(p_05, 1e-3, 0.01, ev))):
            want = _full_scan_phi_rs(p, lam, ev)
            assert len(want.local_optima) == 2, (p.name, lam)
            assert phi_rs(p, lam, ev) == want, (p.name, lam)


class TestFBar:
    def test_zero_lambda(self, ev, priors):
        for p in priors.values():
            assert abs(f_bar(p, 0.0, 0.3, 0.7, ev)) <= 1e-14

    def test_diagonal_matches_rs_potential_symmetric(self, ev, priors):
        for name in ("rademacher", "sparse:0.25", "uniform:21"):
            p = priors[name]
            for lam, q in ((1.0, 0.25), (2.0, 0.8)):
                assert f_bar(p, lam, q, q, ev) == pytest.approx(
                    rs_potential(p, lam, q, ev), abs=1e-12
                )

    def test_against_mc(self, ev):
        # F_bar(2, 0.5, 0.5) = psi_bar(1, 1) - 1/4 + 1/8
        p = rademacher_prior()
        val = f_bar(p, 2.0, 0.5, 0.5, ev)
        m, se = mc_psi_bar(p, 1.0, 1.0, n_samples=10**6, seed=31)
        assert abs(val - (m - 0.25 + 0.125)) <= 3.0 * se


class TestSaddle:
    def test_lambda_zero(self, ev, priors):
        for p in priors.values():
            res = saddle(p, 0.0, ev)
            assert res.value == 0.0
            assert res.optimizer_m == 0.0

    def test_equivalence_coarse(self, ev, priors):
        # the full lambda grid runs in the acceptance suite
        for name in ("rademacher", "asym:0.7"):
            for lam in (1.0, 3.0):
                gap = abs(saddle(priors[name], lam, ev).value - phi_rs(priors[name], lam, ev).value)
                assert gap <= 1e-4

    def test_symmetric_prior_reports_nonnegative_m(self, ev, priors):
        p = priors["rademacher"]
        res = saddle(p, 4.0, ev)
        assert res.optimizer_m >= 0.0
        # mirrored maximizer has the same value
        _, v_neg = f_bar_inner_min(p, 4.0, -res.optimizer_m, ev)
        assert v_neg == pytest.approx(res.value, abs=1e-9)

    def test_inner_minimizer_sign_symmetry(self, ev, priors):
        for name in ("rademacher", "uniform:21"):
            p = priors[name]
            for m in (0.2, 0.7):
                q_pos, _ = f_bar_inner_min(p, 2.0, m, ev)
                q_neg, _ = f_bar_inner_min(p, 2.0, -m, ev)
                assert q_pos == pytest.approx(q_neg, abs=1e-6)

    def test_optimizers_bounded(self, ev, priors):
        for p in priors.values():
            m2 = second_moment(p)
            res = saddle(p, 3.0, ev)
            assert abs(res.optimizer_m) <= m2 + 1e-9
            assert -1e-9 <= res.optimizer_q <= m2 + 1e-9

    def test_independent_of_earlier_calls(self, ev, priors):
        # no state outlives a call: a large-lambda saddle changes no later result
        lams = (0.5, 1.3, 2.6, 4.0, 6.0)
        for p in priors.values():
            before = [saddle(p, lam, ev) for lam in lams]
            saddle(p, 40.0, ev)
            assert [saddle(p, lam, ev) for lam in lams] == before, p.name

    def test_stationary_at_saddle(self, ev, priors):
        # both partial derivatives of F_bar vanish at an interior (m*, q_bar)
        for p in priors.values():
            m2 = second_moment(p)
            for lam in (0.5, 1.3, 2.6, 4.0, 6.0, 10.0, 20.0, 40.0):
                res = saddle(p, lam, ev)
                m, q = res.optimizer_m, res.optimizer_q
                assert abs(m) < m2, (p.name, lam, m)
                _, d_r, d_s = psi_hat_grad(ev, p, lam * q, lam * m * p.values)
                d_m = lam * float((p.weights * p.values) @ d_s) - lam * m
                d_q = lam * float(p.weights @ d_r) + lam * q / 2.0
                assert abs(d_m) <= 1e-9, (p.name, lam, d_m)
                assert abs(d_q) <= 1e-9, (p.name, lam, d_q)

    def test_small_m_star_just_above_transition(self, ev, priors):
        # m* well inside one coarse m step of the symmetric stationary point m = 0
        p = priors["rademacher"]
        for lam in (1.02, 1.05, 1.1):
            res, rs = saddle(p, lam, ev), phi_rs(p, lam, ev)
            assert 0.0 < rs.optimizer_q < 0.1
            assert res.optimizer_m == pytest.approx(rs.optimizer_q, abs=1e-6), lam
            assert abs(res.value - rs.value) <= 1e-12, lam
            # at m = 0, q = 0 is a stationary maximum of F_bar and the minimum lies just past it
            q0, v0 = f_bar_inner_min(p, lam, 0.0, ev)
            assert 0.0 < q0 < 0.2 and v0 < 0.0, (lam, q0, v0)

    def test_equivalence_large_lambda(self, ev, priors):
        for p in priors.values():
            for lam in (10.0, 20.0, 40.0):
                gap = abs(saddle(p, lam, ev).value - phi_rs(p, lam, ev).value)
                assert gap <= 1e-9, (p.name, lam, gap)


class TestSignFold:
    """A sign-symmetric prior's saddle on |x*| and the half m grid agrees with the unfolded one."""

    SPECS = ("rademacher", "sparse:0.25", "sparse:0.05", "uniform:21", "uniform:8")
    LAMBDAS = (0.5, 1.02, 1.3, 2.6, 4.0, 6.0, 10.0, 20.0, 40.0)

    @staticmethod
    def _agree(got, want, label):
        assert abs(got.value - want.value) <= 1e-13, label
        assert abs(abs(got.optimizer_m) - abs(want.optimizer_m)) <= 1e-12, label
        assert got.grid_resolution == want.grid_resolution, label
        m_got = [m for m, _ in got.local_optima]
        m_want = [m for m, _ in want.local_optima]
        assert len(m_got) == len(m_want), (label, m_got, m_want)
        assert np.allclose(m_got, m_want, rtol=0.0, atol=1e-12), (label, m_got, m_want)

    def test_matches_unfolded_saddle(self, ev, monkeypatch):
        priors = [parse_prior_spec(spec) for spec in self.SPECS]
        assert all(rs._sign_symmetric(p) for p in priors)
        folded = {(p.name, lam): saddle(p, lam, ev) for p in priors for lam in self.LAMBDAS}
        monkeypatch.setattr(rs, "_sign_symmetric", lambda p: False)
        for (name, lam), got in folded.items():
            self._agree(got, saddle(parse_prior_spec(name), lam, ev), (name, lam))

    def test_permuted_atoms_take_the_fold(self, ev):
        p = parse_prior_spec("uniform:8")
        atoms = [p.atoms[i] for i in np.random.default_rng(3).permutation(len(p.atoms))]
        shuffled = prior_from_json({"name": "shuffled", "atoms": [list(a) for a in atoms]})
        assert shuffled.atoms != p.atoms and rs._sign_symmetric(shuffled)
        for lam in (1.3, 6.0):
            self._agree(saddle(shuffled, lam, ev), saddle(p, lam, ev), lam)

    def test_fp_upper_matches_unfolded(self, ev, monkeypatch):
        # a spike's empirical law need not be symmetric: the fold rests on psi_hat's symmetry in s
        p = parse_prior_spec("uniform:8")

        def run():
            return [
                fp_upper_check(p, 4, 2.0, m, 0.25, n_disorder=3, seed=seed, ev=ev).params
                for m in (-0.5, 0.0, 0.3)
                for seed in (1, 2)
            ]

        folded = run()
        monkeypatch.setattr(rs, "_sign_symmetric", lambda p: False)
        for got, want in zip(folded, run()):
            assert "q_min" in got, got
            assert abs(got["q_min"] - want["q_min"]) <= 1e-13, (got, want)
            assert abs(got["rhs_min"] - want["rhs_min"]) <= 1e-13, (got, want)

    def test_asymmetric_priors_keep_the_unfolded_path(self):
        assert rs._sign_symmetric(make_prior([(1.0, 0.3), (0.0, 0.4), (-1.0, 0.3)]))
        for p in (
            parse_prior_spec("asym:0.7"),
            point_mass_prior(0.7),
            make_prior([(1.0, 0.2), (0.0, 0.4), (-1.0, 0.4)]),  # symmetric values, not weights
        ):
            assert not rs._sign_symmetric(p), p


class TestFHat:
    def test_matches_f_bar_for_point_spike_distribution(self, ev):
        # a spike listing each atom proportionally to its weight makes
        # f_hat the exact site average f_bar integrates over
        p = rademacher_prior()
        spike = np.array([1.0, -1.0, 1.0, -1.0])
        assert f_hat(p, 2.0, 0.5, 0.5, spike, ev) == pytest.approx(
            f_bar(p, 2.0, 0.5, 0.5, ev), abs=1e-12
        )


class TestStateEvolution:
    def test_lambda_zero_centered(self, ev, priors):
        tr = state_evolution(priors["rademacher"], 0.0, 0.9, 1e-10, 50, ev)
        assert tr.converged
        assert abs(tr.fixed_point) <= 1e-9
        assert abs(tr.iterates[1]) <= 1e-9  # one step kills q for centered priors

    def test_lambda_zero_uncentered(self, ev, priors):
        # 2 psi'(0) = (E X)^2 = 0.16 for the asymmetric binary prior
        tr = state_evolution(priors["asym:0.7"], 0.0, 0.5, 1e-10, 50, ev)
        assert tr.fixed_point == pytest.approx(0.16, abs=1e-8)

    def test_matches_phi_rs_optimizer(self, ev):
        p = rademacher_prior()
        tr = state_evolution(p, 4.0, 0.9, 1e-10, 500, ev)
        assert tr.converged
        assert tr.fixed_point == pytest.approx(phi_rs(p, 4.0, ev).optimizer_q, abs=1e-5)

    def test_below_threshold_contracts_to_zero(self, ev):
        tr = state_evolution(rademacher_prior(), 0.5, 0.9, 1e-8, 2000, ev)
        assert tr.converged
        assert abs(tr.fixed_point) <= 1e-6

    def test_iterates_in_range_and_self_consistent(self, ev, priors):
        for lam in (2.0, 4.0):
            p = priors["rademacher"]
            tr = state_evolution(p, lam, 0.9, 1e-8, 500, ev)
            m2 = second_moment(p)
            assert all(-1e-12 <= q <= m2 + 1e-9 for q in tr.iterates)
            assert abs(tr.fixed_point - 2.0 * psi_prime(ev, p, lam * tr.fixed_point)) <= 1e-8

    def test_validation(self, ev, priors):
        with pytest.raises(InvalidArgumentError):
            state_evolution(priors["rademacher"], 1.0, 5.0, 1e-8, 10, ev)
        with pytest.raises(InvalidArgumentError):
            state_evolution(priors["rademacher"], 1.0, 0.5, -1.0, 10, ev)
        for tol in (float("nan"), float("inf"), 0.0):
            with pytest.raises(InvalidArgumentError, match="tol must be finite and > 0"):
                state_evolution(priors["rademacher"], 1.0, 0.5, tol, 10, ev)
        for max_iter in (0, -3):
            with pytest.raises(InvalidArgumentError, match="max_iter must be >= 1"):
                state_evolution(priors["rademacher"], 1.0, 0.5, 1e-8, max_iter, ev)
        assert len(state_evolution(priors["rademacher"], 1.0, 0.5, 1e-8, 1, ev).iterates) == 2


class TestInformationCurves:
    def test_mi_zero_at_zero(self, ev, priors):
        for p in priors.values():
            assert abs(mutual_information(p, 0.0, ev)) <= 1e-14

    def test_mi_nonnegative_and_monotone(self, ev):
        p = rademacher_prior()
        grid = np.arange(0.0, 6.01, 0.5)
        vals = [mutual_information(p, float(lam), ev) for lam in grid]
        assert all(v >= -1e-10 for v in vals)
        assert all(b - a >= -1e-7 for a, b in zip(vals, vals[1:]))

    def test_mmse_endpoints(self, ev):
        p = rademacher_prior()
        curve = dict(mmse_curve(p, [0.0, 50.0], ev))
        assert curve[0.0] == pytest.approx(1.0, abs=1e-12)  # (E[X^2])^2 at lambda = 0
        assert curve[50.0] <= 0.01

    def test_mmse_nonincreasing(self, ev):
        p = rademacher_prior()
        vals = [v for _, v in mmse_curve(p, np.arange(0.0, 4.01, 0.5), ev)]
        assert all(b - a <= 1e-7 for a, b in zip(vals, vals[1:]))


class TestCriticalLambda:
    def test_rademacher_threshold(self, ev):
        lam_c = critical_lambda(rademacher_prior(), 1e-3, 0.01, ev)
        assert abs(lam_c - 1.0) <= 0.02

    def test_point_mass_immediate(self, ev):
        lam_c = critical_lambda(point_mass_prior(1.0), 1e-3, 0.01, ev)
        assert lam_c <= 0.01

    def test_sparse_first_order(self, ev):
        p = sparse_rademacher_prior(0.05)
        lam_c = critical_lambda(p, 1e-3, 0.01, ev)
        assert lam_c < 1.0
        res = phi_rs(p, lam_c, ev)
        assert len(res.local_optima) >= 2

    def test_validation(self, ev, priors):
        with pytest.raises(InvalidArgumentError):
            critical_lambda(priors["rademacher"], 0.5, 0.01, ev)
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="tol must be finite and > 0"):
                critical_lambda(priors["rademacher"], 1e-3, tol, ev)
