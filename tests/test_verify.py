"""The verify suite's assembly: which checks run, in which order, under which budget."""

from replica_lab import run_suite
from replica_lab.verify import se_fixed_point_check


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

    def test_verdict_is_sign_of_slack(self, priors):
        reports = run_suite(priors["asym:0.7"], 6, 20, 0)
        assert len(reports) == 14
        for r in reports:
            assert r.passed == (r.slack >= 0), (r.check, r.slack, r.passed)


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
