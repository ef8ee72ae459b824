"""Scalar-channel free entropies: quadrature accuracy, identities, derivatives."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    InvalidArgumentError,
    asymmetry_gap,
    psi,
    psi_bar,
    psi_hat,
    psi_prime,
)
from replica_lab import channel
from replica_lab import priors as prior_module
from replica_lab.channel import (
    EXPONENT_MAX,
    ChannelEvaluator,
    MAX_NODE_COUNT,
    _R_LIMIT,
    make_evaluator,
    psi_bar_array,
    psi_hat_array,
    psi_hat_grad,
)
from replica_lab.priors import (
    asymmetric_binary_prior,
    make_prior,
    parse_prior_spec,
    point_mass_prior,
    rademacher_prior,
    second_moment,
)

from conftest import broadcast_psi, broadcast_psi_hat, mc_log_cosh, mc_psi_bar, per_tilt_psi_bar


class TestEvaluator:
    def test_two_point_rule(self):
        e = make_evaluator(2)
        assert np.allclose(sorted(e.nodes), [-1.0, 1.0], atol=1e-14)
        assert np.allclose(e.weights, [0.5, 0.5], atol=1e-14)

    def test_gaussian_moments(self):
        e = make_evaluator(61)
        assert abs(e.weights.sum() - 1.0) <= 1e-12
        assert abs(e.weights @ e.nodes**2 - 1.0) <= 1e-12
        assert abs(e.weights @ e.nodes**4 - 3.0) <= 1e-10

    def test_polynomial_exactness(self):
        # degree <= 2n-1 exact; odd moments vanish, even are (k-1)!!
        e = make_evaluator(8)
        for k in range(16):
            exact = 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) * 1.0
            assert abs(e.weights @ e.nodes**k - exact) <= 1e-10 * max(1.0, exact)

    def test_node_count_validation(self):
        # rejected before any allocation: the over-limit counts never build a rule
        cases = [(count, f"node_count must be >= 2, got {count}") for count in (1, 0, -3)]
        cases += [(count, f"node_count must be an integer, got {count!r}") for count in (2.0, 2.5, "61")]
        cases += [(count, f"node_count must be <= {MAX_NODE_COUNT}, got {count}") for count in (MAX_NODE_COUNT + 1, 10**12)]
        for count, message in cases:
            with pytest.raises(InvalidArgumentError, match=re.escape(message)):
                make_evaluator(count)

    def test_numpy_integer_count(self):
        e, ref = make_evaluator(np.int64(61)), make_evaluator(61)
        assert e.node_count == 61 and type(e.node_count) is int
        assert np.array_equal(e.nodes, ref.nodes) and np.array_equal(e.weights, ref.weights)

    def test_node_count_read_from_the_nodes(self):
        # a rule's only fields are its arrays: one built from make_evaluator's
        # is that rule, node count and repr included
        ref = make_evaluator(61)
        e = ChannelEvaluator(nodes=ref.nodes, weights=ref.weights)
        assert [f.name for f in dataclasses.fields(ChannelEvaluator)] == ["nodes", "weights"]
        assert e.node_count == 61 and type(e.node_count) is int
        assert repr(e) == repr(ref) == "ChannelEvaluator(node_count=61)"

    def test_bit_identical_to_scipy_up_to_150(self):
        special = pytest.importorskip("scipy.special")
        for n in range(2, 151):
            nodes, weights = special.roots_hermitenorm(n)
            e = make_evaluator(n)
            assert np.array_equal(e.nodes, nodes), n
            assert np.array_equal(e.weights, weights / weights.sum()), n

    @pytest.mark.parametrize("n", [151, 201, 225, 241, 1000, MAX_NODE_COUNT])
    def test_eigenvector_weights_match_scipy(self, n):
        special = pytest.importorskip("scipy.special")
        nodes, weights = special.roots_hermitenorm(n)
        weights = weights / weights.sum()
        e = make_evaluator(n)
        assert np.abs(e.nodes - nodes).max() <= 1e-13
        assert np.abs(e.weights - weights).max() <= 1e-14
        log_cosh = lambda x, w: w @ np.log(np.cosh(3.0 * x))
        assert abs(log_cosh(e.nodes, e.weights) - log_cosh(nodes, weights)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 61, 121, 150, 151, 224, 225, 241, 1000])
    def test_rule_finite_and_symmetric(self, n):
        e = make_evaluator(n)
        assert np.all(np.isfinite(e.nodes)) and np.all(np.isfinite(e.weights))
        # eigenvector weights of the outermost nodes may underflow to 0
        assert np.all(e.weights >= 0) and np.all(np.diff(e.nodes) > 0)
        assert np.array_equal(e.nodes, -e.nodes[::-1])
        assert np.array_equal(e.weights, e.weights[::-1])
        assert abs(e.weights.sum() - 1.0) <= 1e-14


class TestPsiHat:
    def test_zero_arguments(self, ev, priors):
        for p in priors.values():
            assert abs(psi_hat(ev, p, 0.0, 0.0)) <= 1e-14

    def test_two_point_closed_form(self, ev):
        p = rademacher_prior()
        ref = make_evaluator(121)
        for r, s in ((1.0, 1.0), (0.5, -2.0), (2.0, -1.0)):
            closed = -r / 2.0 + float(ref.weights @ np.log(np.cosh(np.sqrt(r) * ref.nodes + s)))
            assert psi_hat(ev, p, r, s) == pytest.approx(closed, abs=1e-8)

    def test_against_mc_oracle(self, ev):
        p = rademacher_prior()
        val = psi_hat(ev, p, 1.0, 1.0)
        m, se = mc_log_cosh(1.0, 1.0, n_samples=10**6, seed=11)
        assert abs(val - m) <= 3.0 * se

    def test_point_mass_exact(self, ev):
        # E[sqrt(r) z c] = 0, so the value is s c - (r/2) c^2 exactly
        p = point_mass_prior(0.7)
        for r, s in ((0.0, 0.0), (1.0, 2.0), (4.0, -3.0)):
            assert psi_hat(ev, p, r, s) == pytest.approx(s * 0.7 - r / 2.0 * 0.49, abs=1e-12)

    def test_domain_error(self, ev, priors):
        with pytest.raises(DomainError):
            psi_hat(ev, priors["rademacher"], -0.1, 0.0)


class TestBlockedKernel:
    """psi_hat_array is bit-identical to the broadcast reference.

    Both sum the atoms in storage order, so every atom count must match; the
    call shapes are those of psi_hat, psi and psi_bar, a saddle-table chunk
    spanning many blocks, a general broadcast, and the small calls: two and
    three points (r of shape (k, 1) against s of shape (k, atoms)), one pair
    off zero and one triple from r = 0.  psi_bar_array(r, r) on the small calls and on
    a 0-d r, and psi_hat_grad's value on every case, are held to the same
    reference.
    """

    @pytest.mark.parametrize("nodes", [2, 61, 121])
    @pytest.mark.parametrize(
        "spec",
        ["point:0.7", "rademacher", "sparse:0.25", "uniform:8", "uniform:9", "uniform:21", "uniform:200"],
    )
    def test_matches_broadcast_reference(self, nodes, spec):
        e = make_evaluator(nodes)
        p = parse_prior_spec(spec)
        rng = np.random.default_rng(nodes)
        a = p.values.size
        # the reference holds points * nodes * atoms doubles: keep that under ~40 MB
        q = rng.uniform(0.0, 50.0, (max(1, min(65, 20_000 // a**2)), 1))
        q[1:2] = 0.0
        ns = max(3, 4000 // a)
        cases = {
            "scalar": (1.3, -0.4),
            "psi": (q, q * p.values),
            "table_chunk": (
                np.linspace(0.0, 50.0, 5)[:, None],
                np.linspace(-50.0, 50.0, ns)[None, :],
            ),
            "broadcast_5x7": (rng.uniform(0.0, 20.0, (5, 7)), rng.normal(0.0, 5.0, 7)),
        }
        small = {
            "two_points": np.array([1.3 - 1.3e-6, 1.3 + 1.3e-6]),
            "three_from_zero": np.array([0.0, 1e-6, 2e-6]),
        }
        for name, x in small.items():
            cases[name] = (x[:, None], x[:, None] * p.values)
        for name, (r, s) in cases.items():
            want = broadcast_psi_hat(e, p, r, s)
            got = psi_hat_array(e, p, r, s)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want), (name, float(np.max(np.abs(got - want))))
            value = psi_hat_grad(e, p, r, s)[0]
            assert np.shape(value) == np.shape(want) and np.array_equal(value, want), name
        for name, x in dict(small, zero_d=np.float64(1.7)).items():
            want = broadcast_psi(e, p, x)
            got = psi_bar_array(e, p, x, x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want), (name, float(np.max(np.abs(got - want))))

    @pytest.mark.parametrize("spec", ["uniform:8", "uniform:21", "uniform:200"])
    def test_single_point_at_two_nodes(self, spec):
        # the smallest block the kernel forms, (atoms, 1, 2): numpy sums an
        # (atoms, 1, 1) block pairwise, so this is where another order would show
        e = make_evaluator(2)
        p = parse_prior_spec(spec)
        rng = np.random.default_rng(0)
        points = [(0.0, 2.5)] + list(
            zip(rng.uniform(0.0, 50.0, 20).tolist(), rng.normal(0.0, 10.0, 20).tolist())
        )
        for r, s in points:
            want = broadcast_psi_hat(e, p, r, s)
            assert np.array_equal(psi_hat_array(e, p, r, s), want), (r, s)
            assert np.array_equal(psi_hat_grad(e, p, r, s)[0], want), (r, s)


class TestPsiHatGrad:
    """psi_hat_grad: psi_hat_array's value and the 61-node rule's own derivatives."""

    R_VALUES = (0.0, 1e-3, 0.5, 3.0, 12.0)
    S_VALUES = (-2.0, 0.0, 1.3, 7.0)

    def test_value_bit_identical(self, ev, priors):
        r = np.array(self.R_VALUES)[:, None]
        s = np.array(self.S_VALUES)
        for p in priors.values():
            value, d_r, d_s = psi_hat_grad(ev, p, r, s)
            assert np.array_equal(value, psi_hat_array(ev, p, r, s)), p.name
            assert d_r.shape == d_s.shape == value.shape == (r.size, s.size)
            assert psi_hat_grad(ev, p, 1.3, -0.4)[0] == psi_hat_array(ev, p, 1.3, -0.4)

    def test_matches_finite_differences(self, ev, priors):
        # central differences, one-sided (second order) at r = 0
        h = 1e-5
        for p in priors.values():

            def f(r, s):
                return float(psi_hat_array(ev, p, r, s))

            for r in self.R_VALUES:
                for s in self.S_VALUES:
                    _, d_r, d_s = psi_hat_grad(ev, p, r, s)
                    if r >= h:
                        fd_r = (f(r + h, s) - f(r - h, s)) / (2.0 * h)
                    else:
                        fd_r = (-3.0 * f(r, s) + 4.0 * f(r + h, s) - f(r + 2.0 * h, s)) / (2.0 * h)
                    fd_s = (f(r, s + h) - f(r, s - h)) / (2.0 * h)
                    assert abs(d_r - fd_r) <= 1e-8, (p.name, r, s, float(d_r), fd_r)
                    assert abs(d_s - fd_s) <= 1e-8, (p.name, r, s, float(d_s), fd_s)

    def test_d_r_continuous_at_zero(self, ev, priors):
        # the z <x> / (2 sqrt r) sum cancels as r -> 0+; d_r stays within O(r) of its limit
        cases = list(priors.values()) + [parse_prior_spec("sparse:0.05")]
        for p in cases:
            for s in (-2.0, 0.0, 0.5, 7.0):
                d_r0 = float(psi_hat_grad(ev, p, 0.0, s)[1])
                for r in (1e-24, 1e-20, 1e-16, 1e-13, 1e-11, 1e-10):
                    d_r = float(psi_hat_grad(ev, p, r, s)[1])
                    assert abs(d_r - d_r0) <= 1e-10 + 3.0 * r, (p.name, s, r, d_r - d_r0)


class TestPsi:
    def test_zero(self, ev, priors):
        for p in priors.values():
            assert abs(psi(ev, p, 0.0)) <= 1e-14

    def test_rademacher_symmetry_form(self, ev):
        # psi(r) = -r/2 + E log cosh(sqrt(r) z + r) by the x* -> -x* symmetry
        p = rademacher_prior()
        ref = make_evaluator(121)
        closed = -0.5 + float(ref.weights @ np.log(np.cosh(ref.nodes + 1.0)))
        assert psi(ev, p, 1.0) == pytest.approx(closed, abs=1e-8)
        m, se = mc_log_cosh(1.0, 1.0, n_samples=10**6, seed=13)
        assert abs(psi(ev, p, 1.0) - m) <= 3.0 * se

    def test_point_mass(self, ev):
        p = point_mass_prior(0.6)
        for r in (0.0, 1.0, 7.5):
            assert psi(ev, p, r) == pytest.approx(r * 0.36 / 2.0, abs=1e-12)

    def test_monotone_in_r(self, ev, priors):
        for p in priors.values():
            vals = [psi(ev, p, r) for r in np.arange(0.0, 10.01, 0.5)]
            assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))


class TestPsiBar:
    def test_matches_psi_on_diagonal(self, ev, priors):
        rng = np.random.default_rng(7)
        for p in priors.values():
            for r in rng.uniform(0.0, 8.0, 5):
                assert psi_bar(ev, p, float(r), float(r)) == pytest.approx(
                    psi(ev, p, float(r)), abs=1e-14
                )

    def test_zero(self, ev, priors):
        for p in priors.values():
            assert abs(psi_bar(ev, p, 0.0, 0.0)) <= 1e-14

    def test_reduces_to_log_sum_at_r_zero(self, ev, priors):
        # no z dependence at r = 0: psi_bar(0, s) = E_{x*} log sum_a w_a e^{s v_a x*}
        for p in priors.values():
            for s in (0.0, 1.3, -2.7):
                direct = sum(
                    w2 * math.log(sum(w * math.exp(s * v2 * v) for v, w in p.atoms))
                    for v2, w2 in p.atoms
                )
                assert psi_bar(ev, p, 0.0, s) == pytest.approx(direct, abs=1e-12)

    def test_positive_tilt_dominates(self, ev, priors):
        assert psi_bar(ev, priors["asym:0.7"], 1.0, 1.0) >= psi_bar(ev, priors["asym:0.7"], 1.0, -1.0)

    def test_point_bits_do_not_depend_on_the_batch(self, ev, priors):
        r = np.linspace(0.1, 6.0, 30)
        for p in priors.values():
            batched = psi_bar_array(ev, p, r, r)
            assert all(batched[k] == psi_bar_array(ev, p, r[k : k + 1], r[k : k + 1])[0] for k in range(r.size)), p.name


# a sign-symmetric prior whose atoms are stored out of order, so that its
# mirror map is no reversal
UNSORTED = [(0.5, 0.2), (-1.5, 0.15), (0.0, 0.1), (1.5, 0.15), (-0.5, 0.2), (2.0, 0.1), (-2.0, 0.1)]


class TestMirroredRoute:
    """psi_bar_array's mirrored route for a sign-symmetric prior on a mirrored
    rule gives the per-tilt route's (conftest.per_tilt_psi_bar) float.hex in
    every entry, and calls that it does not pay for take the per-tilt route."""

    SPECS = ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "sparse:0.05", "uniform:8", "unsorted"]

    @staticmethod
    def _prior(spec):
        return make_prior(UNSORTED, name="unsorted") if spec == "unsorted" else parse_prior_spec(spec)

    @staticmethod
    def _threshold(p, ev):
        """The least point count whose call takes the mirrored route."""
        return channel._MIRROR_FIXED // ((p.values.size // 2) * p.values.size * ev.node_count) + 1

    @staticmethod
    def _routes(monkeypatch):
        """A list that each psi_bar_array call appends its route to."""
        routes = []
        kernel = channel._node_tables

        def spy(*args, mirror=None, **kwargs):
            routes.append("per_tilt" if mirror is None else "mirrored")
            return kernel(*args, mirror=mirror, **kwargs)

        monkeypatch.setattr(channel, "_node_tables", spy)
        return routes

    @staticmethod
    def _hex(x):
        return [v.hex() for v in np.ravel(x).tolist()]

    def _check(self, e, p, r, s, routes=None):
        want = per_tilt_psi_bar(e, p, r, s)
        if routes is not None:
            routes.clear()  # the reference's own call
        got = psi_bar_array(e, p, r, s)
        assert type(got) is type(want) and np.shape(got) == np.shape(want), (np.shape(r), np.shape(s))
        assert self._hex(got) == self._hex(want), (p.name, np.shape(r), np.shape(s))

    def test_prior_mirror(self):
        def plan(p):
            order, tilts, flips = p.mirror
            order = np.arange(p.values.size)[order] if isinstance(order, slice) else order
            return order.tolist(), tilts.tolist(), flips.tolist()

        reverse = slice(None, None, -1)
        assert parse_prior_spec("sparse:0.25").mirror[0] == reverse
        assert plan(parse_prior_spec("sparse:0.25")) == ([2, 1, 0], [0, 1], [2])
        assert plan(parse_prior_spec("uniform:8")) == (list(range(8))[::-1], [4, 5, 6, 7], [3, 2, 1, 0])
        assert plan(rademacher_prior()) == ([1, 0], [0], [1])
        assert not isinstance(make_prior(UNSORTED).mirror[0], slice)
        assert plan(make_prior(UNSORTED)) == ([4, 3, 2, 1, 0, 6, 5], [0, 3, 5, 2], [4, 1, 6])
        assert plan(parse_prior_spec("point:0")) == ([0], [0], [])
        for spec in ("asym:0.7", "point:0.7"):
            assert parse_prior_spec(spec).mirror is None, spec
        assert make_prior([(1.0, 0.4), (-1.0, 0.6)]).mirror is None

    def test_rules_are_mirrored(self):
        assert all(make_evaluator(n).mirrored for n in (2, 3, 60, 61, 121, 151, 400))
        e = make_evaluator(61)
        nodes = e.nodes.copy()
        nodes[0] = np.nextafter(nodes[0], 0.0)
        assert not ChannelEvaluator(nodes=nodes, weights=e.weights).mirrored

    @pytest.mark.parametrize("nodes", [2, 61, 121])
    @pytest.mark.parametrize("spec", SPECS)
    def test_bits_on_both_sides_of_the_cost_rule(self, monkeypatch, nodes, spec):
        e = make_evaluator(nodes)
        p = self._prior(spec)
        rng = np.random.default_rng(nodes)
        symmetric = p.mirror is not None
        n = self._threshold(p, e) if symmetric else 64
        routes = self._routes(monkeypatch)
        for count in sorted({1, max(n - 1, 1), n, 3 * n}):
            x = rng.uniform(0.0, 40.0, count)
            x[0] = 0.0  # r = 0
            for s in (x, -x, np.zeros(count), -np.zeros(count), rng.normal(0.0, 8.0, count)):
                self._check(e, p, x, s, routes)
                mirrored = symmetric and count >= n
                assert routes == ["mirrored" if mirrored else "per_tilt"], (spec, count)

    @pytest.mark.parametrize("spec", SPECS)
    def test_bits_over_broadcast_shapes(self, ev, spec):
        p = self._prior(spec)
        rng = np.random.default_rng(1)
        cases = [
            (np.float64(1.7), np.float64(1.7)),
            (np.float64(0.0), np.float64(-0.0)),
            (2.5, rng.normal(0.0, 5.0, 300)),
            (rng.uniform(0.0, 20.0, (40, 1)), rng.normal(0.0, 5.0, (1, 30))),
            (rng.uniform(0.0, 20.0, (5, 7)), rng.normal(0.0, 5.0, 7)),
            (rng.uniform(0.0, 20.0, (3, 300)), np.float64(-0.0)),
        ]
        r = rng.uniform(0.0, 30.0, 2000)
        cases.append((np.stack([r, r]), np.stack([r, -r])))  # asymmetry_gap's call, many blocks
        for r, s in cases:
            self._check(ev, p, r, s)

    def test_unmirrored_rule_takes_the_per_tilt_route(self, monkeypatch, ev):
        nodes = ev.nodes.copy()
        nodes[0] = np.nextafter(nodes[0], 0.0)
        e = ChannelEvaluator(nodes=nodes, weights=ev.weights)
        x = np.linspace(0.0, 10.0, 500)
        routes = self._routes(monkeypatch)
        for spec in ("rademacher", "uniform:21"):
            self._check(e, parse_prior_spec(spec), x, x, routes)
            assert routes == ["per_tilt"], spec

    def test_sign_symmetry_switch_reaches_the_route(self, monkeypatch, ev):
        # priors._sign_symmetric is the one name that every symmetry decision
        # reads: turned off, a call that would take the mirrored route does not
        x = np.linspace(0.0, 10.0, 500)
        p = parse_prior_spec("uniform:21")
        routes = self._routes(monkeypatch)
        monkeypatch.setattr(prior_module, "_sign_symmetric", lambda p: False)
        self._check(ev, p, x, x, routes)
        assert routes == ["per_tilt"]

    def test_both_routes_call_psi_hat_array_once(self, monkeypatch, ev):
        # the benchmark's tracer counts kernel calls at channel.psi_hat_array,
        # so each psi_bar_array call passes through it once on either route
        x = np.linspace(0.0, 10.0, 500)
        routes = self._routes(monkeypatch)
        calls = []
        kernel = channel.psi_hat_array
        monkeypatch.setattr(channel, "psi_hat_array", lambda *a, **k: calls.append(k) or kernel(*a, **k))
        for spec, route in (("uniform:21", "mirrored"), ("asym:0.7", "per_tilt")):
            calls.clear()
            routes.clear()
            psi_bar_array(ev, parse_prior_spec(spec), x, x)
            assert calls == [{"planted": True}] and routes == [route], spec

    def test_asymmetric_prior_takes_the_per_tilt_route(self, monkeypatch, ev):
        x = np.linspace(0.0, 10.0, 500)
        routes = self._routes(monkeypatch)
        for p in (asymmetric_binary_prior(0.7), make_prior([(2.0, 0.25), (0.0, 0.5), (-2.0, 0.25 + 1e-12)])):
            self._check(ev, p, x, x, routes)
            assert routes == ["per_tilt"], p

    def test_peak_memory_of_a_large_call(self, ev):
        # the mirrored route writes into the one table the per-tilt route
        # fills, so its peak stays at or below the per-tilt route's
        import tracemalloc

        p = rademacher_prior()
        q = np.linspace(0.0, 1.0, 100_001)
        peaks = []
        for fn in (per_tilt_psi_bar, psi_bar_array):
            tracemalloc.start()
            fn(ev, p, 2.0 * q, 2.0 * q)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks


def _gibbs_mean_sq_oracle(ev, p, r):
    """(1/2) E_{x*, z} <x>^2 for the matched channel: the analytic psi'(r)."""
    v = p.values
    w = p.weights
    total = 0.0
    for v_star, w_star in p.atoms:
        a = np.sqrt(r) * ev.nodes[:, None] * v + r * v_star * v - r / 2.0 * v**2
        a -= a.max(axis=1, keepdims=True)
        num = (np.exp(a) * (w * v)).sum(axis=1)
        den = (np.exp(a) * w).sum(axis=1)
        total += w_star * float(ev.weights @ (num / den) ** 2)
    return 0.5 * total


class TestPsiPrime:
    def test_nonnegative_on_grid(self, ev, priors):
        for p in priors.values():
            for r in np.arange(0.0, 10.01, 1.0):
                assert psi_prime(ev, p, float(r)) >= -1e-9

    def test_matches_gibbs_oracle_two_point(self):
        # the rule's derivative against (1/2) E <x>^2, which equals psi' for
        # the Gaussian integral but not for the rule: under one converged
        # rule the two agree, so the comparison isolates the chain rule from
        # quadrature error
        e = make_evaluator(201)
        for p in (rademacher_prior(), asymmetric_binary_prior(0.7)):
            for r in (0.5, 1.0, 3.0):
                assert psi_prime(e, p, r) == pytest.approx(
                    _gibbs_mean_sq_oracle(e, p, r), abs=1e-8
                )

    def test_rademacher_asymptote(self, ev):
        # psi(r) ~ r/2 for two-point priors at large r
        p = rademacher_prior()
        assert 0.49 <= psi_prime(ev, p, 50.0) <= 0.5
        # and so does psi_hat_grad's chain rule at (r, r x*), which psi_prime
        # computes in one block
        _, d_r, d_s = psi_hat_grad(ev, p, 50.0, 50.0 * p.values)
        assert 0.49 <= float(p.weights @ (d_r + p.values * d_s)) <= 0.5

    @pytest.mark.parametrize(
        "spec", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "sparse:0.05", "point:1e3"]
    )
    def test_within_rounding_of_the_rules_derivative(self, ev, spec):
        # the docstring's accuracy claim: psi_prime against the chain rule
        # through psi_hat_grad, sum_x* w (d_r + x* d_s) at the tilts s = r x*,
        # within 2e-15 max(1, E[X^2]) (1 + r^-1/2) (r^-1/2 taken at _R_LIMIT
        # below it, where both take the limit form), at r = 0, below and just
        # above _R_LIMIT, where the z-sum's cancellation is amplified most,
        # and up to r = 50
        p = parse_prior_spec(spec)
        scale = max(1.0, second_moment(p))
        for r in (0.0, 1e-12, _R_LIMIT, 2e-11, 1e-7, 0.3, 1.0, 2.5, 6.0, 20.0, 50.0):
            _, d_r, d_s = psi_hat_grad(ev, p, r, r * p.values)
            exact = float(p.weights @ (d_r + p.values * d_s))
            bound = 2e-15 * scale * (1.0 + max(r, _R_LIMIT) ** -0.5)
            assert abs(psi_prime(ev, p, r) - exact) <= bound, (r, psi_prime(ev, p, r), exact)

    def test_point_mass_constant(self, ev):
        p = point_mass_prior(0.8)
        for r in (0.0, 0.5, 5.0):
            assert psi_prime(ev, p, r) == pytest.approx(0.32, abs=1e-8)

    def test_at_zero_equals_mean_squared_over_two(self, ev, priors):
        for p in priors.values():
            m1 = float(p.weights @ p.values)
            assert psi_prime(ev, p, 0.0) == pytest.approx(m1 * m1 / 2.0, abs=1e-9)


class TestAsymmetryGap:
    def test_symmetric_prior_zero(self, ev, priors):
        for name in ("rademacher", "sparse:0.25", "uniform:21"):
            for r in (0.0, 1.0, 4.0):
                assert abs(asymmetry_gap(ev, priors[name], r)) <= 1e-10

    def test_zero_r(self, ev, priors):
        for p in priors.values():
            assert abs(asymmetry_gap(ev, p, 0.0)) <= 1e-14

    def test_asym_gap_positive_and_mc(self, ev, priors):
        p = priors["asym:0.7"]
        gap = asymmetry_gap(ev, p, 2.0)
        assert gap >= 0.0
        plus, se_p = mc_psi_bar(p, 2.0, 2.0, n_samples=10**6, seed=3)
        minus, se_m = mc_psi_bar(p, 2.0, -2.0, n_samples=10**6, seed=4)
        assert abs(gap - (plus - minus)) <= 3.0 * math.hypot(se_p, se_m)

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "point:0.7"])
    def test_array_equals_scalar_calls(self, ev, spec):
        # one call over an r array gives each r's scalar gap bit for bit,
        # whatever the array's shape
        p = parse_prior_spec(spec)
        r = np.arange(0.0, 10.0 + 1e-12, 0.25)
        want = np.array([asymmetry_gap(ev, p, float(x)) for x in r])
        for shape in (r.shape, (r.size, 1), (1, r.size)):
            got = asymmetry_gap(ev, p, r.reshape(shape))
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert got.ravel().tobytes() == want.tobytes()
        assert type(asymmetry_gap(ev, p, 2.0)) is float

    def test_array_refuses_any_bad_entry(self, priors):
        # the least and the largest r are checked, wherever they sit
        p = priors["asym:0.7"]
        for bad in (-1e-12, -2.0, float("nan"), float("inf")):
            for at in (0, 3, -1):
                r = np.linspace(0.0, 5.0, 7)
                r[at] = bad
                with pytest.raises(DomainError, match="r must be finite and >= 0"):
                    asymmetry_gap(None, p, r)
        k = p.bound
        r = np.array([0.0, 1.001 * EXPONENT_MAX / (k * k), 1.0])
        with pytest.raises(DomainError, match="the channel exponents reach"):
            asymmetry_gap(None, p, r)


class TestDoublingStability:
    def test_doubling_on_consumed_domain(self, priors):
        """Measured 61 -> 121 node stability where the solvers evaluate psi_bar.

        Near the origin the rule is converged to ~1e-9; along the planted
        diagonal (|s| ~ r, the arguments reached by every optimizer) the
        two-point priors degrade gradually to ~1e-6 at large r, which the
        equivalence checks tolerate because both formulas share the bias.
        """
        e61, e121 = make_evaluator(61), make_evaluator(121)
        for p in priors.values():
            for r in (0.0, 0.25, 0.5, 1.0, 1.5):
                for s in (-1.5, -1.0, 0.0, 0.5, 1.0, 1.5):
                    d = abs(
                        float(psi_bar_array(e61, p, r, s)) - float(psi_bar_array(e121, p, r, s))
                    )
                    assert d <= 3e-9, (p.name, r, s, d)
            for r in (2.0, 5.0, 12.0, 50.0):
                for s in (r, -r, 2 * r):
                    a = float(psi_bar_array(e61, p, r, s))
                    b = float(psi_bar_array(e121, p, r, s))
                    assert abs(a - b) <= 2e-6, (p.name, r, s, abs(a - b))

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "plain Gauss-Hermite cannot hold a 1e-9 doubling bound over the whole "
            "box r <= 50, |s| <= 50 for two-point priors: near s = 0 and large r "
            "the log-sum integrand's analyticity strip shrinks like pi/(sqrt(r) dv), "
            "so the 61-node error at (r, s) = (50, 0) is ~1e-2 and ~1000 nodes "
            "would be needed; many-atom priors and the near-diagonal tilts the "
            "solvers consume are unaffected (see the passing restricted check)"
        ),
    )
    def test_doubling_on_full_box(self, priors):
        e61, e121 = make_evaluator(61), make_evaluator(121)
        worst = 0.0
        for p in priors.values():
            for r in (0.0, 1.0, 5.0, 20.0, 50.0):
                for s in (-50.0, -5.0, 0.0, 5.0, 50.0):
                    from replica_lab.channel import psi_hat_array

                    d = abs(float(psi_hat_array(e61, p, r, s)) - float(psi_hat_array(e121, p, r, s)))
                    worst = max(worst, d)
        assert worst <= 1e-9


class TestScalarEntries:
    """psi_hat, psi_bar and psi are a domain check plus one array-kernel call."""

    def test_first_call_emits_no_warning(self):
        # a run-time doubling check once warned here, on the first call per
        # process and prior only, so the outcome depended on call order
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        script = (
            "from replica_lab import parse_prior_spec, psi\n"
            "print(psi(None, parse_prior_spec('rademacher'), 20.0))\n"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    def test_reject_negative_r(self, priors):
        # r must be finite and >= 0 in every scalar entry, s finite in psi_hat and psi_bar
        p = priors["asym:0.7"]
        nan, inf = float("nan"), float("inf")
        for r in (-1e-12, -0.5, -2.0, nan, inf, -inf):
            for call in (
                lambda: psi_hat(None, p, r, 0.5),
                lambda: psi_bar(None, p, r, 0.5),
                lambda: psi(None, p, r),
                lambda: psi_prime(None, p, r),
                lambda: asymmetry_gap(None, p, r),
            ):
                with pytest.raises(DomainError, match="r must be finite and >= 0"):
                    call()
        for s in (nan, inf, -inf):
            for call in (lambda: psi_hat(None, p, 1.0, s), lambda: psi_bar(None, p, 1.0, s)):
                with pytest.raises(DomainError, match="s must be finite"):
                    call()

    @pytest.mark.parametrize("spec", ["rademacher", "asym:0.7", "point:1e100"])
    def test_exponent_bound_on_both_sides(self, spec):
        # r K^2 and the tilt's |s| K (|s| K^2 for psi_bar's s x*) against
        # EXPONENT_MAX: inside, every scalar entry runs without a RuntimeWarning;
        # outside, each raises DomainError before the kernel overflows
        p = parse_prior_spec(spec)
        k = max(abs(v) for v, _ in p.atoms)
        r_edge = EXPONENT_MAX / (k * k)
        calls = (
            lambda c: psi_hat(None, p, c * r_edge, 0.0),
            lambda c: psi_hat(None, p, 0.0, c * EXPONENT_MAX / k),
            lambda c: psi_bar(None, p, c * r_edge, 0.0),
            lambda c: psi_bar(None, p, 0.0, -c * r_edge),
            lambda c: psi(None, p, c * r_edge),
            lambda c: psi_prime(None, p, c * r_edge),
            lambda c: asymmetry_gap(None, p, c * r_edge),
        )
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert math.isfinite(call(0.999))
            with pytest.raises(DomainError, match="the channel exponents reach"):
                call(1.001)

    @pytest.mark.parametrize("node_count", [None, 61, 121])
    def test_equal_array_kernels(self, priors, node_count):
        ev = None if node_count is None else make_evaluator(node_count)
        for p in priors.values():
            for r, s in ((0.0, 0.0), (0.7, -1.3), (5.0, 5.0), (20.0, 20.0), (50.0, -3.0)):
                assert psi_hat(ev, p, r, s) == float(psi_hat_array(ev, p, r, s))
                assert psi_bar(ev, p, r, s) == float(psi_bar_array(ev, p, r, s))
                assert psi(ev, p, r) == float(psi_bar_array(ev, p, r, r))
