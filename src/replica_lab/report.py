"""Pass/fail records for inequality and identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    slack is oriented so that the check passes iff slack >= 0: for an
    inequality LHS <= RHS it is RHS - LHS after adding the stated allowance;
    for an identity |difference| <= allowance it is allowance - |difference|.
    stderr is the Monte Carlo standard error entering the allowance (0 for
    deterministic checks) and allowance is the total additive slack granted
    (calibration constants plus 3 stderr), surfaced so reports stay honest
    about what was forgiven.
    """

    check: str
    params: dict = field(default_factory=dict)
    slack: float = 0.0
    stderr: float = 0.0
    allowance: float = 0.0
    passed: bool = False

    @classmethod
    def from_slack(cls, check: str, params: dict, slack: float, stderr: float = 0.0,
                   allowance: float = 0.0) -> VerificationReport:
        """The report whose verdict is the sign of its slack: passed iff slack >= 0."""
        return cls(check=check, params=params, slack=float(slack), stderr=float(stderr),
                   allowance=float(allowance), passed=bool(slack >= 0.0))

    def to_dict(self) -> dict:
        """Plain record; writers spell non-finite floats (cli._json_clean, cli._fmt)."""
        return {
            "check": self.check,
            "params": dict(sorted(self.params.items())),
            "slack": self.slack,
            "stderr": self.stderr,
            "allowance": self.allowance,
            "pass": bool(self.passed),
        }
