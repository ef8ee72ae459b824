"""The verify suite's assembly: which checks run, in which order, under which budget."""

from replica_lab import run_suite


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
