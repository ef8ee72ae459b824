"""RS potential, saddle formula, state evolution, information curves."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    InvalidArgumentError,
    NumericalError,
    compute_curve,
    critical_lambda,
    f_bar,
    f_bar_inner_min,
    f_hat,
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
from replica_lab import channel, rs
from replica_lab import priors as prior_module
from replica_lab.channel import make_evaluator, psi_hat_grad
from replica_lab.interpolation import fp_upper_check
from replica_lab.priors import (
    make_prior,
    point_mass_prior,
    rademacher_prior,
    sparse_rademacher_prior,
)

from conftest import (
    mc_log_cosh,
    mc_psi_bar,
    nested_polish,
    refine_always_critical_lambda,
)


class TestRsPotential:
    def test_zero_q(self, priors):
        for p in priors.values():
            for lam in (0.0, 1.0, 4.0):
                assert abs(rs_potential(p, lam, 0.0)) <= 1e-14

    def test_zero_lambda(self, priors):
        for p in priors.values():
            for q in (0.0, 0.3, 1.0):
                assert abs(rs_potential(p, 0.0, q)) <= 1e-14

    def test_rademacher_against_mc(self):
        # F(2, 1) = psi(2) - 1/2 with psi(2) = -1 + E log cosh(sqrt(2) z + 2)
        p = rademacher_prior()
        val = rs_potential(p, 2.0, 1.0)
        m, se = mc_log_cosh(2.0, 2.0, n_samples=10**6, seed=21)
        assert abs(val - (m - 0.5)) <= 3.0 * se

    def test_domain_errors(self, priors):
        p = priors["rademacher"]
        with pytest.raises(DomainError):
            rs_potential(p, -1.0, 0.5)
        with pytest.raises(DomainError):
            rs_potential(p, 1.0, -0.5)
        with pytest.raises(DomainError, match="m must be finite"):
            f_bar_inner_min(p, 2.0, float("nan"))

    def test_reject_non_finite(self, priors):
        # q and m must be finite
        p = priors["asym:0.7"]
        nan, inf = float("nan"), float("inf")
        spike = np.array([1.0, -1.0, 1.0])
        for q in (nan, inf):
            with pytest.raises(DomainError, match="q must be finite and >= 0"):
                rs_potential(p, 1.0, q)
            with pytest.raises(DomainError, match="q must be finite and >= 0"):
                f_bar(p, 1.0, 0.2, q)
            with pytest.raises(DomainError, match="q must be finite and >= 0"):
                f_hat(p, 1.0, 0.2, q, spike)
        for m in (nan, inf, -inf):
            with pytest.raises(DomainError, match="m must be finite"):
                f_bar(p, 1.0, m, 0.3)
            with pytest.raises(DomainError, match="m must be finite"):
                f_hat(p, 1.0, m, 0.3, spike)


class TestScaleBound:
    """channel._check_scale: lambda * extent * (K^2 + extent) <= EXPONENT_MAX, both sides.

    Inside the bound the solvers run without a RuntimeWarning; outside it
    every entry raises DomainError before the kernel overflows.
    """

    @staticmethod
    def _edge_lambda(p, extent):
        k = p.bound
        return channel.EXPONENT_MAX / (extent * (k * k + extent))

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "sparse:1e-300", "point:0.01"])
    def test_solvers_on_both_sides(self, ev, spec):
        p = parse_prior_spec(spec)
        m2 = second_moment(p)
        lam = self._edge_lambda(p, m2 + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (phi_rs, saddle, lambda p, lam, ev: state_evolution(p, lam, m2, ev=ev)):
                solve(p, 0.999 * lam, ev)
                with pytest.raises(DomainError, match="channel exponents reach"):
                    solve(p, 1.001 * lam, ev)

    @pytest.mark.parametrize("spec", ["point:1e200", "sparse:1e-320"])
    def test_atom_whose_square_overflows(self, ev, spec):
        # E[X^2] is inf rather than numpy's overflow warning, and the scale
        # check refuses it
        p = parse_prior_spec(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert second_moment(p) == float("inf")
            for solve in (phi_rs, saddle, lambda p, lam, ev: state_evolution(p, lam, 1.0, ev=ev)):
                with pytest.raises(DomainError, match="channel exponents reach"):
                    solve(p, 1.0, ev)

    def test_point_evaluations(self):
        p = parse_prior_spec("asym:0.7")
        with pytest.raises(DomainError, match="channel exponents reach"):
            rs_potential(p, 1e308, 10.0)
        with pytest.raises(DomainError, match="channel exponents reach"):
            f_bar(p, 1e200, 1e200, 0.5)
        with pytest.raises(DomainError, match="channel exponents reach"):
            f_hat(p, 1e200, 1e200, 0.5, [1.0])
        with pytest.raises(DomainError, match="channel exponents reach"):
            f_bar_inner_min(p, 1e200, 1e200)
        lam = self._edge_lambda(p, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(rs_potential(p, 0.999 * lam, 10.0))
            assert np.isfinite(f_bar(p, 0.999 * lam, -10.0, 10.0))
        with pytest.raises(DomainError, match="channel exponents reach"):
            rs_potential(p, 1.001 * lam, 10.0)

    def test_f_hat_spike_is_nonempty_and_finite(self):
        p = parse_prior_spec("asym:0.7")
        for spike in ([], [float("nan")], [1.0, float("inf")], [[1.0, -1.0]]):
            with pytest.raises(InvalidArgumentError, match="spike must be a nonempty 1-d list"):
                f_hat(p, 1.0, 0.2, 0.3, spike)
        # the spike's largest entry enters the bound as the tilt
        with pytest.raises(DomainError, match="channel exponents reach"):
            f_hat(p, 1.0, 0.2, 0.3, [1e308])


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
        # exactly psi(0) = 0 at lambda = 0, as saddle's, so that mi is 0 too
        for p in [*priors.values(), parse_prior_spec("point:0")]:
            res = phi_rs(p, 0.0, ev)
            assert res.value == 0.0 and res.optimizer_q == 0.0
            [row] = compute_curve(p, [0.0], ev)
            assert row["phi_rs"] == row["saddle"] == row["mi"] == 0.0, (p.name, row)

    @pytest.mark.parametrize(
        "spec, lam, resolution",
        [("rademacher", 0.0, 0.001), ("rademacher", 1e-14, 0.001), ("sparse:0.25", 1e-14, 0.001),
         ("point:0", 2.0, 0.0)],
    )
    def test_one_point_scan(self, ev, monkeypatch, spec, lam, resolution):
        # lambda = 0 and E[X^2] = 0 give exactly 0 and price nothing.  A
        # potential flat to 1e-13 (lambda = 1e-14) keeps q = 0 alone after
        # its scan, whose first point is q = 0, and refines the bracket
        # [0, 0], which prices q = 0 alone; sparse:0.25's F(1e-14, 0) is
        # 2**-53, so the value is the potential at 0, not a literal 0.0
        p = parse_prior_spec(spec)
        v = rs_potential(p, lam, 0.0)
        priced = _record_potential(monkeypatch)
        res = phi_rs(p, lam, ev)
        if lam == 0.0 or spec == "point:0":
            assert priced == []
            v = 0.0
        else:
            (coarse_q, coarse_f), _, (zero_q, zero_f) = priced
            assert coarse_q[0] == 0.0 and coarse_f[0].hex() == v.hex()
            assert zero_q.tolist() == [0.0] and [x.hex() for x in zero_f.tolist()] == [v.hex()]
        assert res.optimizer_q == 0.0 and res.optimizer_m is None
        assert res.value.hex() == v.hex()
        assert res.local_optima == [(0.0, v)]
        assert res.grid_resolution == resolution

    def test_below_threshold_flat(self, ev):
        # dense-grid oracle at resolution 1e-5: at lambda = 0.5 the potential
        # is maximized at q = 0
        from replica_lab.rs import _potential

        p = rademacher_prior()
        qs = np.linspace(0.0, 1.0, 100001)
        # in slices: the kernel's node tables take about 1 KB per point
        vals = np.concatenate([_potential(p, 0.5, part, ev) for part in np.array_split(qs, 8)])
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
    idx, prev = [], None
    for i in range(n):
        left_ok = i == 0 or vals[i] >= vals[i - 1]
        right_ok = i == n - 1 or vals[i] >= vals[i + 1]
        if left_ok and right_ok:
            # a candidate right after an equal candidate lies on its plateau
            if not (prev == i - 1 and vals[i] == vals[i - 1]):
                idx.append(i)
            prev = i
    return idx


def _sequential_golden_max(f, a, b):
    """Golden-section maximizer on [a, b] to REFINE_XTOL, one point per call of
    the scalar f: the search that rs._golden_max prices several steps at a
    time, and must match bit for bit.  Returns (x, f(x))."""
    from replica_lab.rs import _INVPHI, _INVPHI2, REFINE_XTOL

    h = b - a
    if h <= REFINE_XTOL:
        x = 0.5 * (a + b)
        return x, f(x)
    n = max(1, int(math.ceil(math.log(REFINE_XTOL / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def _record_potential(monkeypatch):
    """Record every rs._potential call from here on as (q, F), both 1-d arrays, in call order."""
    priced = []
    potential = rs._potential

    def recorded(p, lam, q, ev):
        value = potential(p, lam, q, ev)
        priced.append((np.atleast_1d(q), np.atleast_1d(value)))
        return value

    monkeypatch.setattr(rs, "_potential", recorded)
    return priced


def _full_scan_brackets(p, lam, ev):
    """The full grid scan's grid local maxima i with their brackets [q_{i-1}, q_{i+1}]:
    every grid point priced, and a potential flat to 1e-13 left with q = 0
    alone, its bracket [0, 0].  lambda and E[X^2] must be > 0."""
    q_scan = np.linspace(0.0, second_moment(p), rs.GRID_POINTS)
    vals = rs._potential(p, lam, q_scan, ev)
    if vals.max() - vals.min() <= 1e-13 * max(1.0, abs(vals.max())):
        return [(0, 0.0, 0.0)]
    last = q_scan.size - 1
    return [(i, q_scan[max(i - 1, 0)], q_scan[min(i + 1, last)]) for i in _local_max_loop(vals)]


def _full_scan_phi_rs(p, lam, ev):
    """phi_rs as it was before the strided pass: every grid point priced,
    every bracket refined one point per call."""
    from replica_lab.rs import GRID_POINTS, TIE_TOL, PotentialResult

    m2 = second_moment(p)
    step = float(f"{m2 / (GRID_POINTS - 1):.12g}")
    if lam == 0.0 or m2 == 0.0:
        return PotentialResult(0.0, 0.0, None, [(0.0, 0.0)], step)
    q_scan = np.linspace(0.0, m2, GRID_POINTS)
    optima = []
    for i, a, b in _full_scan_brackets(p, lam, ev):
        q_c, v_c = _sequential_golden_max(lambda q: rs_potential(p, lam, q), a, b)
        v_grid = rs_potential(p, lam, float(q_scan[i]))
        if v_grid > v_c:
            q_c, v_c = float(q_scan[i]), v_grid
        optima.append((float(q_c), float(v_c)))
    best_val = max(v for _, v in optima)
    q_star, value = max(((q, v) for q, v in optima if v >= best_val - TIE_TOL), key=lambda t: t[0])
    return PotentialResult(value, q_star, None, sorted(optima), step)


def test_phi_rs_grid_size_does_not_grow_with_the_prior_scale(ev, monkeypatch):
    # E[X^2] = 1e6: a grid of fixed step 1e-3 would price 1e9 points
    p = parse_prior_spec("point:1e3")
    priced = _record_potential(monkeypatch)
    res = phi_rs(p, 1.0, ev)
    scanned = np.concatenate([q for q, _ in priced[:2]])  # the scan's two calls, coarse and fine
    assert 0 < scanned.size <= rs.GRID_POINTS
    assert res.grid_resolution == 1e3
    assert res.optimizer_q == pytest.approx(second_moment(p), rel=1e-7)  # the flat top's rounding


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

    @pytest.mark.parametrize("vals, want", [([0.0, 1.0, 1.0, 1.0, 0.0], [1]), ([1.0, 1.0, 1.0], [0])])
    def test_local_max_indices_collapse_plateaus(self, vals, want):
        # a flat run of three or more is one local maximum, at its left end
        from replica_lab.rs import _local_max_indices

        assert _local_max_indices(np.array(vals)) == want
        assert _local_max_loop(vals) == want

    @pytest.mark.xfail(
        strict=True,
        reason="the strided pass misses a local maximum whose rise is narrower than a stride: "
        "phi_rs reports q* = 0 where the full scan finds q = 0.0228 and 0.0231",
    )
    def test_narrow_rise_between_coarse_points(self, ev):
        # a centered, asymmetric 4-atom prior with two nearly empty atoms far
        # out; at both lambdas the full scan's best local maximum (F = 6.1e-11
        # and 6.2e-7) sits inside one coarse interval away from the ends
        p = make_prior(
            [
                (8.603999246347641, 3.0615491849633406e-09),
                (-1.4583233741790123, 0.3170724574676668),
                (70.11768594975521, 2.613709719985621e-06),
                (0.6768106785669101, 0.682924925761064),
            ]
        )
        for lam in (0.47139061, 0.47610404):
            assert phi_rs(p, lam, ev) == _full_scan_phi_rs(p, lam, ev), lam

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.05", "sparse:0.02", "asym:0.7", "uniform:8"])
    def test_refined_optima_stay_in_their_brackets(self, ev, spec):
        # each local optimum lies in its grid local maximum's bracket, the
        # full scan's (test_lambda_grid holds phi_rs to it)
        p = parse_prior_spec(spec)
        for lam in (0.3, 0.75, 0.99, 1.0, 1.3, 2.0, 7.0):
            brackets = _full_scan_brackets(p, lam, ev)
            optima = phi_rs(p, lam, ev).local_optima
            assert len(optima) == len(brackets)
            for (q, _), (_, a, b) in zip(optima, brackets):
                assert a <= q <= b, (spec, lam, q, a, b)

    def test_two_local_optima(self, ev):
        # a local maximum next to q = 0 behind a dip narrower than the coarse
        # stride, and the two branches at a first-order transition
        p_02 = sparse_rademacher_prior(0.02)
        p_05 = sparse_rademacher_prior(0.05)
        for p, lam in ((p_02, 1.0), (p_05, critical_lambda(p_05, 1e-3, 0.01))):
            want = _full_scan_phi_rs(p, lam, ev)
            assert len(want.local_optima) == 2, (p.name, lam)
            assert phi_rs(p, lam, ev) == want, (p.name, lam)


class TestSpeculativeGolden:
    """rs._golden_max prices several golden steps per kernel call and returns
    the sequential search's (x, f(x)) bit for bit."""

    @staticmethod
    def _hex(x, fx):
        return float(x).hex(), float(fx).hex()

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "uniform:8", "uniform:21"])
    def test_matches_sequential_at_every_depth(self, ev, spec):
        # 2, 3, 8 and 21 atoms; random brackets from 3e-9 to a tenth of
        # [0, E[X^2]] wide and one no wider than REFINE_XTOL, so that the
        # step counts run from 0 to about 30, most not a multiple of a depth
        p = parse_prior_spec(spec)
        m2 = second_moment(p)
        rng = np.random.default_rng(17)
        counts = []
        for lam in (0.8, 2.5):
            brackets = [(0.3 * m2, 0.3 * m2 + 0.5 * rs.REFINE_XTOL)]
            for width in m2 * 10.0 ** rng.uniform(-8.5, -1.0, 5):
                a = rng.uniform(0.0, m2 - width)
                brackets.append((a, a + width))
            for a, b in brackets:
                priced = []
                want = _sequential_golden_max(
                    lambda q: priced.append(q) or float(rs._potential(p, lam, q, ev)), a, b
                )
                counts.append(max(len(priced) - 2, 0))
                for depth in range(1, 6):
                    x, fx = rs._golden_max(lambda q: rs._potential(p, lam, q, ev), a, b, depth)
                    assert self._hex(x, fx) == self._hex(*want), (spec, lam, a, b, depth)
        assert 0 in counts and any(n % 4 and n % 5 for n in counts), counts

    def test_matches_sequential_off_unimodal(self):
        # a sawtooth with a tooth every 1e-6 turns the comparisons both ways,
        # so that the replay walks every branch of the candidate tree
        def saw(q):
            return (q * 1e6) % 1.0

        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.uniform(0.0, 1.0)
            b = a + 10.0 ** rng.uniform(-9.0, 0.0)
            want = _sequential_golden_max(saw, a, b)
            for depth in range(1, 6):
                assert self._hex(*rs._golden_max(saw, a, b, depth)) == self._hex(*want), (a, b, depth)

    def test_first_call_prices_the_two_interior_points(self):
        calls = []

        def f(q):
            calls.append(q.size)
            return -((q - 0.3) ** 2)

        # a bracket of 0.2 takes 35 steps: 11 calls of three steps, then two
        rs._golden_max(f, 0.2, 0.4, 3)
        assert calls == [2] + [7] * 11 + [3]
        calls.clear()
        rs._golden_max(f, 0.2, 0.2 + 0.5 * rs.REFINE_XTOL, 3)
        assert calls == [1]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_tree_is_every_direction_sequence(self, depth):
        # the candidates are the points that golden steps along every
        # direction sequence of length 1 to depth, the first one given, price
        rng = np.random.default_rng(depth)
        for _ in range(20):
            a, h = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-8.0, 0.0)
            c, d = a + rs._INVPHI2 * h, a + rs._INVPHI * h
            for left in (True, False):
                want = set()
                for length in range(1, depth + 1):
                    for ways in itertools.product((True, False), repeat=length - 1):
                        state = (a, h, c, d)
                        for way in (left, *ways):
                            *state, x = rs._golden_step(*state, way)
                        want.add(x)
                tree = rs._golden_tree(a, h, c, d, left, depth)
                assert len(tree) == 2**depth - 1 and set(tree) == want, (a, h, left)

    @pytest.mark.parametrize(
        "spec, depth",
        [("rademacher", 4), ("asym:0.7", 4), ("sparse:0.25", 3), ("sparse:0.05", 3), ("uniform:8", 2), ("uniform:21", 1)],
    )
    def test_depth_of_the_catalog(self, ev, spec, depth):
        assert rs._golden_depth(parse_prior_spec(spec), ev) == depth

    def test_depth_minimizes_the_cost_model(self):
        # (R + 2**k - 1) / k per step with R = _KERNEL_FIXED / (A^2 G), the
        # least k on ties
        for atoms in (1, 2, 3, 5, 8, 13, 21, 40):
            p = make_prior([(float(v), 1.0 / atoms) for v in range(atoms)])
            for nodes in (2, 21, 61, 121, 400):
                ratio = channel._KERNEL_FIXED / (atoms * atoms * nodes)
                cost = [(ratio + 2**k - 1) / k for k in range(1, 20)]
                assert rs._golden_depth(p, make_evaluator(nodes)) == 1 + cost.index(min(cost)), (atoms, nodes)

    @pytest.mark.parametrize(
        "spec, lam, depth",
        [("rademacher", 2.0, 4), ("sparse:0.25", 2.0, 3), ("sparse:0.05", 0.75, 3), ("uniform:8", 2.0, 2),
         ("uniform:21", 1.5, 1), ("rademacher", 1e-14, 4)],
    )
    def test_kernel_calls_per_bracket(self, ev, monkeypatch, spec, lam, depth):
        # after the scan's two calls, a bracket whose sequential search takes
        # n steps costs 1 + ceil(n / depth) kernel calls, the first on its two
        # interior points (the grid point comes priced from the scan);
        # sparse:0.05 at 0.75 has two brackets, and the flat potential at
        # lambda = 1e-14 the zero-width one [0, 0]
        p = parse_prior_spec(spec)
        brackets = _full_scan_brackets(p, lam, ev)
        want = 0
        for _, a, b in brackets:
            priced = []
            _sequential_golden_max(lambda q: priced.append(q) or 0.0, a, b)
            want += 1 + math.ceil(max(len(priced) - 2, 0) / depth)
        calls = _record_potential(monkeypatch)
        assert len(phi_rs(p, lam, ev).local_optima) == len(brackets), (spec, lam)
        assert len(calls) == 2 + want, (spec, lam)

    @pytest.mark.parametrize(
        "spec, lam", [("rademacher", 2.0), ("sparse:0.05", 0.75), ("asym:0.7", 1.3), ("uniform:8", 2.0)]
    )
    def test_no_point_priced_twice(self, ev, monkeypatch, spec, lam):
        # the refinement takes each grid point's value from the scan, so the
        # points it prices are disjoint from the scan's (sparse:0.05 at 0.75
        # refines two brackets), and no call prices one float twice, though
        # _golden_tree's candidates repeat some (rademacher at 2)
        p = parse_prior_spec(spec)
        n_brackets = len(_full_scan_brackets(p, lam, ev))
        calls = _record_potential(monkeypatch)
        assert len(phi_rs(p, lam, ev).local_optima) == n_brackets, (spec, lam)
        priced = [q for q, _ in calls]
        scanned = np.concatenate(priced[:2])  # the scan's two calls, coarse and fine
        refined = np.concatenate(priced[2:])
        assert np.isin(scanned, np.linspace(0.0, second_moment(p), rs.GRID_POINTS)).all(), (spec, lam)
        assert np.unique(scanned).size == scanned.size, (spec, lam)
        assert all(np.unique(q).size == q.size for q in priced[2:]), (spec, lam)
        assert np.intersect1d(scanned, refined).size == 0, (spec, lam)

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "uniform:8"])
    def test_point_bits_do_not_depend_on_the_batch(self, ev, spec):
        # the property the speculation rests on, at the refinement's batch
        # shapes: one point (the scalar call and a 1-array), 3, 7 and 15
        p = parse_prior_spec(spec)
        q = np.random.default_rng(11).uniform(0.0, second_moment(p), 15)
        for lam in (0.7, 2.0, 5.0):
            single = [float(rs._potential(p, lam, float(x), ev)).hex() for x in q]
            for size in (1, 3, 7, 15):
                for start in range(0, q.size, size):
                    got = rs._potential(p, lam, q[start : start + size], ev).tolist()
                    assert [v.hex() for v in got] == single[start : start + size], (spec, lam, size)


class TestBracketedRoots:
    def test_secant_point_stays_inside_the_bracket(self):
        # the secant through these ends rounds to -4.4e-16, below a = 0; the
        # midpoint replaces it, so f is priced only inside [a, b]
        a, b = 0.0, 3.816367963014493
        fa, fb = -2.0308635616428357e-17, 95.24099231545912
        slope = (fb - fa) / b
        priced = []

        def f(_, x):
            if not ((a <= x) & (x <= b)).all():
                raise ValueError(f"priced outside [{a}, {b}]: {x}")
            priced.extend(x.tolist())
            return np.array([fa + slope * x])

        roots, _ = rs._bracketed_roots(f, [a], [b], [fa], [[fb]], 0.0)
        assert priced and a <= roots[0] <= b and abs(roots[0]) <= rs._ROOT_XTOL, roots


class TestFBar:
    def test_zero_lambda(self, priors):
        for p in priors.values():
            assert abs(f_bar(p, 0.0, 0.3, 0.7)) <= 1e-14

    def test_diagonal_matches_rs_potential_symmetric(self, priors):
        for name in ("rademacher", "sparse:0.25", "uniform:21"):
            p = priors[name]
            for lam, q in ((1.0, 0.25), (2.0, 0.8)):
                assert f_bar(p, lam, q, q) == pytest.approx(
                    rs_potential(p, lam, q), abs=1e-12
                )

    def test_against_mc(self):
        # F_bar(2, 0.5, 0.5) = psi_bar(1, 1) - 1/4 + 1/8
        p = rademacher_prior()
        val = f_bar(p, 2.0, 0.5, 0.5)
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
        _, v_neg = f_bar_inner_min(p, 4.0, -res.optimizer_m)
        assert v_neg == pytest.approx(res.value, abs=1e-9)

    def test_inner_minimizer_sign_symmetry(self, priors):
        for name in ("rademacher", "uniform:21"):
            p = priors[name]
            for m in (0.2, 0.7):
                q_pos, _ = f_bar_inner_min(p, 2.0, m)
                q_neg, _ = f_bar_inner_min(p, 2.0, -m)
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
            q0, v0 = f_bar_inner_min(p, lam, 0.0)
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
        assert all(prior_module._sign_symmetric(p) for p in priors)
        folded = {(p.name, lam): saddle(p, lam, ev) for p in priors for lam in self.LAMBDAS}
        monkeypatch.setattr(prior_module, "_sign_symmetric", lambda p: False)
        for (name, lam), got in folded.items():
            self._agree(got, saddle(parse_prior_spec(name), lam, ev), (name, lam))

    def test_permuted_atoms_take_the_fold(self, ev):
        p = parse_prior_spec("uniform:8")
        atoms = [p.atoms[i] for i in np.random.default_rng(3).permutation(len(p.atoms))]
        shuffled = prior_from_json({"name": "shuffled", "atoms": [list(a) for a in atoms]})
        assert shuffled.atoms != p.atoms and prior_module._sign_symmetric(shuffled)
        for lam in (1.3, 6.0):
            self._agree(saddle(shuffled, lam, ev), saddle(p, lam, ev), lam)

    def test_fp_upper_matches_unfolded(self, monkeypatch):
        # a spike's empirical law need not be symmetric: the fold rests on psi_hat's symmetry in s
        p = parse_prior_spec("uniform:8")

        def run():
            return [
                fp_upper_check(p, 4, 2.0, m, 0.25, n_disorder=3, seed=seed).params
                for m in (-0.5, 0.0, 0.3)
                for seed in (1, 2)
            ]

        folded = run()
        monkeypatch.setattr(prior_module, "_sign_symmetric", lambda p: False)
        for got, want in zip(folded, run()):
            assert "q_min" in got, got
            assert abs(got["q_min"] - want["q_min"]) <= 1e-13, (got, want)
            assert abs(got["rhs_min"] - want["rhs_min"]) <= 1e-13, (got, want)

    def test_asymmetric_priors_keep_the_unfolded_path(self):
        assert prior_module._sign_symmetric(make_prior([(1.0, 0.3), (0.0, 0.4), (-1.0, 0.3)]))
        for p in (
            parse_prior_spec("asym:0.7"),
            point_mass_prior(0.7),
            make_prior([(1.0, 0.2), (0.0, 0.4), (-1.0, 0.4)]),  # symmetric values, not weights
        ):
            assert not prior_module._sign_symmetric(p), p


class TestSaddleMatchesNestedPolish:
    """The joint (m, q) Newton polish finds the saddle that nested regula falsi on g'(m) finds."""

    LAMBDAS = (0.5, 1.02, 1.05, 1.1, 1.11, 1.13, 1.3, 2.0, 2.6, 4.0, 6.0, 10.0, 20.0, 40.0)

    @staticmethod
    def _agree(ev, monkeypatch, p, lams):
        joint = [saddle(p, lam, ev) for lam in lams]
        with monkeypatch.context() as mp:
            mp.setattr(rs, "_joint_polish", nested_polish)
            nested = [saddle(p, lam, ev) for lam in lams]
        for lam, got, want in zip(lams, joint, nested):
            label = (p.name, lam)
            assert abs(got.value - want.value) <= 1e-13, (label, got.value - want.value)
            assert abs(abs(got.optimizer_m) - abs(want.optimizer_m)) <= 1e-10, (label, got, want)
            assert abs(got.optimizer_q - want.optimizer_q) <= 1e-10, (label, got, want)
            assert len(got.local_optima) == len(want.local_optima), (label, got, want)

    @pytest.mark.parametrize(
        "spec", ["rademacher", "sparse:0.25", "sparse:0.05", "sparse:0.02", "asym:0.7",
                 "point:0.7", "uniform:8", "uniform:21"],
    )
    def test_lambda_grid(self, ev, monkeypatch, spec):
        self._agree(ev, monkeypatch, parse_prior_spec(spec), self.LAMBDAS)

    def test_first_order_transition(self, ev, monkeypatch):
        # sparse:0.05 has two outer candidates of nearly equal value at lambda_c
        p = parse_prior_spec("sparse:0.05")
        lam_c = critical_lambda(p)
        self._agree(ev, monkeypatch, p, (lam_c - 1e-3, lam_c + 1e-3))

    @pytest.mark.parametrize("q_start", [0.0, 0.02, 0.025, 0.05, 0.5])
    def test_start_on_another_inner_branch(self, ev, q_start):
        # sparse:0.01 at lambda = 0.7: in [0.0225, 0.0315] g' falls from
        # +1.3e-4 to -1.0e-2 across a jump of q_bar (0.009 -> 0.117 near
        # m = 0.0306), and the unstable SE fixed point m = q = 0.0251 is a
        # joint root whose q is not the inner minimizer there (that is 0.003).
        # Started from q near it, Newton converges to it; the guard must
        # refuse it and the bracket still end on the nested polish's root.
        p = parse_prior_spec("sparse:0.01")
        lam, q_max = 0.7, second_moment(p) + 1.0
        a, b = np.array([0.0225]), np.array([0.0315])
        y = rs._inner_min(p, lam, np.r_[a, b], q_max, ev)
        ya, yb = y[:, :1].copy(), y[:, 1:].copy()
        assert ya[0, 0] > 0.0 > yb[0, 0]
        want, y_want = nested_polish(p, lam, q_max, ev, a, b, ya, yb)
        ya[1] = yb[1] = q_start  # the start interpolates q between these
        got, y_got = rs._joint_polish(p, lam, q_max, ev, a, b, ya, yb)
        assert abs(got[0] - want[0]) <= 1e-12, (got, want)
        assert abs(y_got[1, 0] - y_want[1, 0]) <= 1e-10, (y_got, y_want)

    @pytest.mark.parametrize("name", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21"])
    def test_joint_path_runs(self, ev, priors, monkeypatch, name):
        # after the grid stage's one inner minimization, a saddle whose
        # Newton steps stay in their brackets makes one more per outer
        # candidate at most (the pricing), and fewer kernel calls than the
        # nested polish: a silent fallback to the nested path shows here
        p = priors[name]
        calls = {}

        def counting(mod, fn_name):
            fn = getattr(mod, fn_name)

            def wrapped(*args, **kwargs):
                calls[fn_name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, fn_name, wrapped)

        counting(channel, "_node_tables")
        counting(rs, "_inner_min")
        for lam in (2.0, 4.0):
            kernel = {}
            for polish in ("joint", "nested"):
                calls.update(_node_tables=0, _inner_min=0)
                with monkeypatch.context() as mp:
                    if polish == "nested":
                        mp.setattr(rs, "_joint_polish", nested_polish)
                    res = saddle(p, lam, ev)
                kernel[polish] = calls["_node_tables"]
                if polish == "joint":
                    polished = [m for m, _ in res.local_optima if m > 0.0 or not prior_module._sign_symmetric(p)]
                    assert 2 <= calls["_inner_min"] <= 1 + len(polished), (lam, calls, res)
            assert kernel["joint"] < kernel["nested"], (lam, kernel)

    @pytest.mark.parametrize("name", ["rademacher", "sparse:0.25", "uniform:21"])
    def test_midpoint_restart_just_above_transition(self, ev, monkeypatch, name):
        # at lambda = 1.02 the secant start sits next to the probe m, where g'
        # is about 1e-6, and Newton heads for the symmetric root outside the
        # bracket; restarted from the bracket's midpoint it converges there.
        # Regula falsi from the probe took 147-155 kernel calls and 9 inner
        # minimizations (test_lambda_grid checks the values at this lambda).
        p = parse_prior_spec(name)
        res, calls = self._counted_saddle(monkeypatch, p, 1.02, ev)
        assert calls["_node_tables"] <= 73 and calls["_inner_min"] <= 2, calls
        assert abs(res.value - phi_rs(p, 1.02, ev).value) <= 1e-4

    @pytest.mark.parametrize("name, lam", [("rademacher", 1.1), ("sparse:0.25", 1.11)])
    def test_bisection_just_above_transition(self, ev, monkeypatch, name, lam):
        # q_bar jumps inside the bracket above the probe, and Newton leaves it
        # from the midpoint restart too; bisection then takes 49-52 kernel
        # calls and 4 inner minimizations, where regula falsi crept up from
        # the probe in 91-94 and 6-7 (test_lambda_grid checks the values)
        p = parse_prior_spec(name)
        res, calls = self._counted_saddle(monkeypatch, p, lam, ev)
        assert calls["_node_tables"] <= 60 and calls["_inner_min"] <= 4, calls
        assert abs(res.value - phi_rs(p, lam, ev).value) <= 1e-4

    @staticmethod
    def _counted_saddle(monkeypatch, p, lam, ev):
        """saddle(p, lam) with its channel._node_tables and rs._inner_min calls counted."""
        calls = {"_node_tables": 0, "_inner_min": 0}
        for mod, fn_name in ((channel, "_node_tables"), (rs, "_inner_min")):
            fn = getattr(mod, fn_name)

            def wrapped(*args, _fn=fn, _name=fn_name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, fn_name, wrapped)
        return saddle(p, lam, ev), calls


class TestNumpySetOps:
    def test_grids_equal_numpy_set_ops(self, ev, monkeypatch):
        # rs builds its grids without np.unique, np.union1d and np.setdiff1d:
        # no probe is a grid point, so a sort inserts it as the union would
        for npts, stride in ((1001, 16), (1001, 10), (17, 16), (33, 16)):
            want = np.unique(np.r_[0:npts:stride, npts - 1])
            got = np.r_[0 : npts - 1 : stride, npts - 1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for q_max in (1.0, 2.0, 1.3125, 1e-300, 1e300, 5.0 / 3.0):
            row = np.linspace(0.0, q_max, rs._Q_POINTS)
            got = np.sort(np.r_[row, rs._PROBE * q_max])
            assert got.tobytes() == np.union1d(row, [rs._PROBE * q_max]).tobytes()
        # the saddle's own m grids, as its first inner minimization gets them
        inner_min = rs._inner_min
        for spec, half, probes in (("sparse:0.25", (0.0, 1.0, rs._M_POINTS // 2 + 1), [rs._PROBE]),
                                   ("asym:0.7", (-1.0, 1.0, rs._M_POINTS), [-rs._PROBE, rs._PROBE])):
            p = parse_prior_spec(spec)
            grids = []
            monkeypatch.setattr(rs, "_inner_min", lambda p, lam, m, *a: grids.append(m) or inner_min(p, lam, m, *a))
            saddle(p, 2.0, ev)
            want = second_moment(p) * np.union1d(np.linspace(*half), probes)
            assert grids[0].tobytes() == want.tobytes(), spec


class TestFHat:
    def test_matches_f_bar_for_point_spike_distribution(self):
        # a spike listing each atom proportionally to its weight makes
        # f_hat the exact site average f_bar integrates over
        p = rademacher_prior()
        spike = np.array([1.0, -1.0, 1.0, -1.0])
        assert f_hat(p, 2.0, 0.5, 0.5, spike) == pytest.approx(
            f_bar(p, 2.0, 0.5, 0.5), abs=1e-12
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

    def test_iterate_outside_the_range_raises(self, monkeypatch, ev, priors):
        # 2 psi' of 2.0 sends q to 4, outside [0, E[X^2]] = [0, 1]
        monkeypatch.setattr(rs, "_psi_prime_kernel", lambda *args: lambda r: 2.0)
        with pytest.raises(NumericalError, match=r"state evolution left \[0, 1.0\]"):
            state_evolution(priors["rademacher"], 2.0, 0.5, 1e-8, 50, ev)

    @pytest.mark.parametrize("spec", ["point:1e3", "point:1e70"])
    def test_range_slack_scales_with_second_moment(self, ev, spec):
        # 2 psi'(lambda E[X^2]) of a point mass is E[X^2] up to rounding on
        # the scale of E[X^2], which the range guard must take and the clip
        # bring back to E[X^2]; the stopping rule scales the same way, so an
        # iterate near 1e140 (point:1e70) converges as a unit-scale one does
        p = parse_prior_spec(spec)
        m2 = second_moment(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = state_evolution(p, 1.0, m2, 1e-8, 50, ev)
        assert all(0.0 <= q <= m2 for q in tr.iterates)
        assert tr.fixed_point == pytest.approx(m2, rel=1e-9)
        assert tr.converged and len(tr.iterates) < 50, (spec, len(tr.iterates))

    @pytest.mark.parametrize(
        "spec, lam", [("rademacher", 4.0), ("sparse:0.05", 0.75), ("point:1e3", 1.0), ("point:1e100", 1e-200)]
    )
    def test_kernel_sees_r_within_the_entry_bound(self, monkeypatch, ev, spec, lam):
        # every iterate is clipped into [0, E[X^2]], so r = lambda q stays at
        # most lambda E[X^2], which the entry's _check_scale bounds (point:1e100
        # at 1e-200 runs at r K^2 = 1e200 every step)
        p = parse_prior_spec(spec)
        m2 = second_moment(p)
        seen = []
        kernel = rs._psi_prime_kernel

        def recorded(*args):
            psi_prime_at = kernel(*args)
            return lambda r: seen.append(r) or psi_prime_at(r)

        monkeypatch.setattr(rs, "_psi_prime_kernel", recorded)
        steps = sum(len(state_evolution(p, lam, q0, 1e-8, 200, ev).iterates) - 1 for q0 in (0.0, 0.5 * m2, m2))
        assert len(seen) == steps
        assert 0.0 <= min(seen) and max(seen) <= lam * m2, (spec, max(seen), lam * m2)
        assert max(seen) * p.bound**2 <= channel.EXPONENT_MAX

    @pytest.mark.parametrize("lam", [0.74, 0.75])
    def test_iterates_are_psi_primes_recursion(self, ev, lam):
        # each iterate is min(max(2 psi_prime(lambda q), 0), E[X^2]) of the
        # one before, bit for bit: the kernel built once per run prices every
        # step as the public psi_prime does, on both sides of sparse:0.05's
        # lambda_c (about 0.746), where the iteration is slow and reaches
        # r = lambda q far below 1e-6
        p = sparse_rademacher_prior(0.05)
        m2 = second_moment(p)
        for q0 in (1e-3, m2):
            tr = state_evolution(p, lam, q0, 1e-8, 1000, ev)
            want = [q0]
            for _ in range(len(tr.iterates) - 1):
                want.append(min(max(2.0 * psi_prime(ev, p, lam * want[-1]), 0.0), m2))
            assert tr.converged and len(tr.iterates) > 20
            assert tr.iterates == want, (lam, q0)

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

    def test_non_integer_max_iter_refused(self, ev, priors):
        # a float count passes max_iter >= 1 but is no count of steps
        p = priors["rademacher"]
        for max_iter in (2.5, 3.0):
            with pytest.raises(InvalidArgumentError, match="max_iter must be an integer"):
                state_evolution(p, 1.0, 0.5, 1e-8, max_iter, ev)
        tr = state_evolution(p, 1.0, 0.5, 1e-8, np.int64(3), ev)
        assert tr.iterates == state_evolution(p, 1.0, 0.5, 1e-8, 3, ev).iterates
        assert len(tr.iterates) == 4


class TestInformationCurves:
    """compute_curve's mi and mmse columns: the numbers rs-curve writes."""

    def test_mi_zero_at_zero(self, ev, priors):
        for p in priors.values():
            assert abs(compute_curve(p, [0.0], ev)[0]["mi"]) <= 1e-14

    def test_mi_nonnegative_and_monotone(self, ev):
        p = rademacher_prior()
        grid = np.arange(0.0, 6.01, 0.5)
        vals = [row["mi"] for row in compute_curve(p, grid, ev)]
        assert all(v >= -1e-10 for v in vals)
        assert all(b - a >= -1e-7 for a, b in zip(vals, vals[1:]))

    def test_mmse_endpoints(self, ev):
        p = rademacher_prior()
        curve = {row["lambda"]: row["mmse"] for row in compute_curve(p, [0.0, 50.0], ev)}
        assert curve[0.0] == pytest.approx(1.0, abs=1e-12)  # (E[X^2])^2 at lambda = 0
        assert curve[50.0] <= 0.01

    def test_mmse_nonincreasing(self, ev):
        p = rademacher_prior()
        vals = [row["mmse"] for row in compute_curve(p, np.arange(0.0, 4.01, 0.5), ev)]
        assert all(b - a <= 1e-7 for a, b in zip(vals, vals[1:]))


def _hex(obj):
    """obj with each float as its float.hex, through dataclasses, dicts, lists and tuples."""
    if dataclasses.is_dataclass(obj):
        return _hex(dataclasses.astuple(obj))
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex(v) for v in obj]
    return float.hex(obj) if isinstance(obj, float) else obj


class TestRuleFromItsArrays:
    """A rule built from make_evaluator(61)'s nodes and weights is that rule:
    its node count, which sets the golden refinement's depth, is read from its
    nodes, so every solver gives the default rule's bits."""

    @pytest.mark.parametrize("name", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21"])
    def test_same_bits(self, ev, priors, name):
        p, rebuilt = priors[name], channel.ChannelEvaluator(nodes=ev.nodes, weights=ev.weights)
        lams = [0.5, 1.5, 3.0]
        for lam in lams:
            for solve in (phi_rs, saddle):
                assert _hex(solve(p, lam, rebuilt)) == _hex(solve(p, lam, ev)), (solve.__name__, lam)
            q0 = second_moment(p)
            assert _hex(state_evolution(p, lam, q0, ev=rebuilt)) == _hex(state_evolution(p, lam, q0, ev=ev))
        assert _hex(compute_curve(p, lams, rebuilt)) == _hex(compute_curve(p, lams, ev))


class TestCriticalLambda:
    def test_rademacher_threshold(self):
        lam_c = critical_lambda(rademacher_prior(), 1e-3, 0.01)
        assert abs(lam_c - 1.0) <= 0.02

    def test_point_mass_immediate(self):
        lam_c = critical_lambda(point_mass_prior(1.0), 1e-3, 0.01)
        assert lam_c <= 0.01

    def test_no_transition_raises(self):
        # q* stays 0 at every lambda when the only atom is 0
        with pytest.raises(NumericalError, match=r"no transition: .* up to lambda = 64\.0"):
            critical_lambda(point_mass_prior(0.0), 1e-3, 0.01)

    def test_sparse_first_order(self, ev):
        p = sparse_rademacher_prior(0.05)
        lam_c = critical_lambda(p, 1e-3, 0.01)
        assert lam_c < 1.0
        res = phi_rs(p, lam_c, ev)
        assert len(res.local_optima) >= 2

    def test_validation(self, priors):
        with pytest.raises(InvalidArgumentError):
            critical_lambda(priors["rademacher"], 0.5, 0.01)
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="tol must be finite and > 0"):
                critical_lambda(priors["rademacher"], 1e-3, tol)


class TestCriticalLambdaFromTheScan:
    """critical_lambda's roots against phi_rs's scan: within tol / 2 of the
    always-refine bisection, its own bracket, and at the lambda where
    phi_rs's optimizer switches sides of delta."""

    # q* passes every delta below continuously for these, and jumps across
    # some for the sparse priors from the first-order region (rho <= 0.09)
    CONTINUOUS = ["rademacher", "sparse:0.25", "uniform:21"] + [
        f"sparse:{rho}"
        for rho in (0.1, 0.12, 0.15, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 0.98)
    ]
    SPECS = CONTINUOUS + ["asym:0.7"] + [f"sparse:{rho}" for rho in (0.02, 0.03, 0.05, 0.07, 0.09)]

    @staticmethod
    def _switches(ev, p, lam_c, delta):
        below = phi_rs(p, lam_c * (1.0 - 1e-6), ev).optimizer_q
        above = phi_rs(p, lam_c * (1.0 + 1e-6), ev).optimizer_q
        return below <= delta < above

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_always_refine(self, ev, spec):
        p = parse_prior_spec(spec)
        for delta in (1e-3, 1e-2, 0.05):
            lam_c = critical_lambda(p, delta, 0.01)
            for tol in (0.01, 1e-3):
                assert critical_lambda(p, delta, tol) == lam_c, (spec, delta, tol)
                want = refine_always_critical_lambda(p, delta, tol, ev)
                assert abs(lam_c - want) <= tol / 2, (spec, delta, tol, lam_c, want)
            if lam_c > 0.0:
                assert self._switches(ev, p, lam_c, delta), (spec, delta, lam_c)
            if spec in self.CONTINUOUS:
                assert abs(2.0 * psi_prime(ev, p, lam_c * delta) - delta) <= 1e-12, (spec, delta)

    @pytest.mark.parametrize("spec", ["asym:0.7", "point:0.7"])
    def test_mean_above_delta_gives_zero(self, spec):
        # (E X)^2 > delta puts every fixed point above delta at every lambda > 0
        for delta in (1e-3, 1e-2, 0.05):
            assert critical_lambda(parse_prior_spec(spec), delta, 0.01) == 0.0

    def test_jump_above_the_crossing(self, ev):
        # a centered, skewed two-point prior: at delta = 0.1, phi_rs's optimizer
        # at the crossing 2 psi'(lambda delta) = delta still lies near 0, and
        # the upper branch takes over above it
        w, delta = 0.146, 0.1
        p = make_prior([(-math.sqrt((1.0 - w) / w), w), (math.sqrt(w / (1.0 - w)), 1.0 - w)])
        lam_c = critical_lambda(p, delta, 0.01)
        assert 2.0 * psi_prime(ev, p, lam_c * delta) > delta
        assert self._switches(ev, p, lam_c, delta), lam_c
        assert abs(lam_c - refine_always_critical_lambda(p, delta, 1e-3, ev)) <= 5e-4
