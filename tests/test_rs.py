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
    phi_rs,
    psi,
    psi_prime,
    rs_potential,
    saddle,
    second_moment,
    state_evolution,
)
from replica_lab.channel import make_evaluator, psi_hat_grad
from replica_lab.priors import (
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
        with pytest.raises(InvalidArgumentError):
            critical_lambda(priors["rademacher"], 1e-3, -1.0, ev)
