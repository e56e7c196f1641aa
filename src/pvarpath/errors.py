"""Exception types and the exponent check shared across the package."""

import math


class ValidationError(ValueError):
    """An input violates an operation's precondition or a data invariant."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


def check_exponent(p) -> None:
    """Raise ``ValidationError`` unless the variation exponent p is finite and > 1
    (a NaN fails every comparison, so ``p <= 1`` alone lets it through)."""
    if not (math.isfinite(p) and p > 1):
        raise ValidationError(f"exponent p must be finite and > 1, got {p}")
