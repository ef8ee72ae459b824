"""Exception types shared across the package, and its scalar range checks."""

import math
import operator


class InvalidPriorError(ValueError):
    """Raised when a prior cannot be constructed from the given atoms."""


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain (e.g. r < 0)."""


class InvalidArgumentError(ValueError):
    """Raised for structurally invalid arguments (sizes, counts, ranges)."""


class EnumerationBudgetError(RuntimeError):
    """Raised when exact enumeration would exceed the configuration budget.

    Carries the number of configurations that would be required so callers
    can decide whether to raise the budget or fall back to sampling.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exact enumeration needs {required} configurations, "
            f"budget is {budget}"
        )


class NumericalError(RuntimeError):
    """Raised when an iteration leaves its provably valid range."""


def _check_nonnegative(name: str, x) -> float:
    """x as a float; DomainError unless it is finite and >= 0."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {x}")
    return x


def _check_positive(name: str, x) -> None:
    """InvalidArgumentError unless x is finite and > 0."""
    if not 0.0 < float(x) < math.inf:
        raise InvalidArgumentError(f"{name} must be finite and > 0, got {x}")


def _check_integer(name: str, x) -> None:
    """InvalidArgumentError unless x is an integer (an int or a numpy integer, not a float)."""
    try:
        operator.index(x)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {x!r}") from None


def _check_count(name: str, x, least: int = 1) -> None:
    """InvalidArgumentError unless x is an integer >= least: the package's one count rule."""
    _check_integer(name, x)
    if x < least:
        raise InvalidArgumentError(f"{name} must be >= {least}, got {x}")


def _check_finite(name: str, x) -> float:
    """x as a float; DomainError unless it is finite."""
    x = float(x)
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite, got {x}")
    return x
