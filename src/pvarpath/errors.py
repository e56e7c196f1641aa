"""Exception types and the exponent and branching checks shared across the package."""

import math
import numbers


class ValidationError(ValueError):
    """An input violates an operation's precondition or a data invariant."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


def check_exponent(p) -> None:
    """Raise ``ValidationError`` unless the variation exponent p is finite and > 1
    (a NaN fails every comparison, so ``p <= 1`` alone lets it through)."""
    if not (math.isfinite(p) and p > 1):
        raise ValidationError(f"exponent p must be finite and > 1, got {p}")


def check_branching(q) -> None:
    """Raise ``ValidationError`` unless the branching factor q is an integer >= 2
    (a bool is refused, and so is an integral float such as 3.0)."""
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 2:
        raise ValidationError(f"branching factor q must be an integer >= 2, got {q}")
