"""The verify suite's assembly: which checks run, in which order, under which budget."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from replica_lab import (
    DomainError,
    InvalidArgumentError,
    VerificationReport,
    asymmetry_gap,
    channel,
    nishimori_check,
    rs,
    verify,
    parse_prior_spec,
    run_suite,
    second_moment,
)
from replica_lab.verify import se_fixed_point_check, tilt_asymmetry_check


class TestRunSuite:
    def test_budget_reaches_every_enumerating_check(self, priors):
        # n = 10 needs 2^10 = 1024 configurations: over a budget of 1000, no
        # enumerating check runs and the refusal follows the four RS checks
        reports = run_suite(priors["rademacher"], 10, 2, 0, budget=1000)
        assert [r.check for r in reports] == [
            "tilt_asymmetry", "saddle_equivalence", "se_fixed_point", "se_fixed_point",
            "enumeration_budget",
        ]
        assert reports[-1].params["required"] == 1024
        assert all(r.passed for r in reports[:4])

    def test_q_star_at_two_is_priced_twice(self, priors, monkeypatch):
        # once for the saddle check's curve and once for the lambda = 2 SE
        # check, whose q* the Guerra check at q*(2) reuses
        lams = []
        phi_rs = rs.phi_rs

        def recorded(p, lam, *args):
            lams.append(lam)
            return phi_rs(p, lam, *args)

        monkeypatch.setattr(rs, "phi_rs", recorded)
        monkeypatch.setattr(verify, "phi_rs", recorded)
        reports = run_suite(priors["rademacher"], 4, 2, 0)
        assert "enumeration_budget" not in [r.check for r in reports]
        assert lams.count(2.0) == 2
        guerra = [r for r in reports if r.check == "guerra_slope"]
        assert guerra[2].params["q"] == reports[2].params["q_star"]

    def test_one_disorder_draw_is_refused(self, priors):
        # at one draw every standard error is 0: asym:0.7 at n = 6 would fail
        # all three Nishimori checks and a Guerra check on noise alone.  The
        # public checks still take one draw.
        p = priors["asym:0.7"]
        with pytest.raises(InvalidArgumentError, match="n_disorder must be >= 2, got 1"):
            run_suite(p, 6, 1, 0)
        assert nishimori_check(p, 6, 1.0, 1, 0).stderr == 0.0

    def test_one_site_refused_before_any_rs_check(self, priors, monkeypatch):
        # the enumerating checks refuse n = 1, so the suite refuses it before
        # it prices the four RS checks
        def priced(*args, **kwargs):
            raise AssertionError("an RS check was priced")

        for name in ("asymmetry_gap", "compute_curve", "phi_rs", "state_evolution"):
            monkeypatch.setattr(verify, name, priced)
        for spec in ("rademacher", "uniform:21"):
            with pytest.raises(InvalidArgumentError, match=r"^n must be >= 2, got 1$"):
                run_suite(parse_prior_spec(spec), 1, 3, 0)

    def test_verdict_is_sign_of_slack(self, priors):
        reports = run_suite(priors["asym:0.7"], 6, 20, 0)
        assert len(reports) == 14
        for r in reports:
            assert r.passed == (r.slack >= 0), (r.check, r.slack, r.passed)


class TestPriorScale:
    """The deterministic tolerances on the prior's scale s = max(1, E[X^2])."""

    @pytest.mark.parametrize("spec", ["point:1e20", "point:1e70"])
    def test_large_prior_passes_on_rounding(self, spec):
        # the compared values reach s^2 (free entropies, log Z) or s (q*):
        # absolute tolerances failed these checks on rounding alone
        p = parse_prior_spec(spec)
        s = p.values[0] ** 2
        saddle, se = verify.saddle_equivalence_check(p), se_fixed_point_check(p, 2.0)
        kl = verify.kl_identity_check(p, 4, 2.0, 3, 1)
        assert (saddle.allowance, se.allowance, kl.allowance) == (1e-4 * s * s, 1e-5 * s, 1e-10 * s * s)
        assert saddle.passed and se.passed and kl.passed

    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21"])
    def test_catalog_tolerances_unchanged(self, spec):
        # every catalog prior has E[X^2] = 1, so s = 1 and no bit moves
        p = parse_prior_spec(spec)
        assert second_moment(p).hex() == "0x1.0000000000000p+0"
        reports = (verify.saddle_equivalence_check(p), se_fixed_point_check(p, 2.0),
                   verify.kl_identity_check(p, 4, 2.0, 3, 1))
        assert [r.allowance for r in reports] == [1e-4, 1e-5, 1e-10]


class TestSeFixedPoint:
    def test_unconverged_fails_with_negative_slack(self, priors):
        # next to the transition SE does not converge within its 2000 steps
        # while its last iterate lies within 1e-5 of q*
        for name in ("rademacher", "sparse:0.25"):
            rep = se_fixed_point_check(priors[name], 1.005)
            assert not rep.params["converged"]
            assert not rep.passed
            assert rep.slack == float("-inf")
            assert rep.passed == (rep.slack >= 0)


class TestTiltAsymmetry:
    @pytest.mark.parametrize("spec", ["rademacher", "sparse:0.25", "asym:0.7", "uniform:21", "point:0.7"])
    def test_one_kernel_call_with_the_gaps_bits(self, ev, monkeypatch, spec):
        # the r grid in one call on the default rule, its least gap
        # asymmetry_gap's bit for bit
        p = parse_prior_spec(spec)
        want = min(asymmetry_gap(ev, p, float(r)) for r in np.arange(0.0, 10.0 + 1e-12, 0.25))
        calls = []
        kernel = channel.psi_hat_array
        monkeypatch.setattr(channel, "psi_hat_array", lambda *a, **k: calls.append(1) or kernel(*a, **k))
        rep = tilt_asymmetry_check(p)
        assert len(calls) == 1
        assert rep.params["min_gap"].hex() == want.hex()
        assert rep.params["r_max"] == 10.0 and rep.passed

    def test_exponent_bound_at_r_max(self):
        with pytest.raises(DomainError, match="channel exponents reach"):
            tilt_asymmetry_check(parse_prior_spec("point:1e160"))


def test_from_slack_verdict_at_the_boundary():
    # the verdict is the sign of the slack, zero of either sign passing and
    # a nan slack failing
    for slack, passed in ((0.0, True), (-0.0, True), (5e-324, True), (-5e-324, False),
                          (float("inf"), True), (float("-inf"), False), (float("nan"), False)):
        rep = VerificationReport.from_slack("c", {"k": 1}, slack, 0.5, 2.0)
        assert rep.passed is passed, slack
        assert (rep.check, rep.params, rep.stderr, rep.allowance) == ("c", {"k": 1}, 0.5, 2.0)
    assert VerificationReport.from_slack("c", {}, -1.0).to_dict() == {
        "check": "c", "params": {}, "slack": -1.0, "stderr": 0.0, "allowance": 0.0, "pass": False}


def test_no_numpy_ma_import():
    # a plain np.unique (so np.union1d and np.setdiff1d) imports numpy.ma on
    # first use, about 11 ms per process; none of these paths makes one
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    script = (
        "import sys\n"
        "from replica_lab import parse_prior_spec, phi_rs, run_suite, saddle, state_evolution\n"
        "for spec in ('rademacher', 'sparse:0.25', 'asym:0.7'):\n"
        "    p = parse_prior_spec(spec)\n"
        "    phi_rs(p, 2.0), saddle(p, 2.0), saddle(p, 1.02), state_evolution(p, 2.0, 0.5)\n"
        "    run_suite(p, 4, 3, 0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
