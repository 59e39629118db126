"""Exception types shared across the package, and the finite-number check."""

import math


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or value range."""


class SchemaError(ValueError):
    """A data file does not conform to its documented schema."""


def require_finite(what: str, *values: float | None) -> None:
    """Raise InvalidInputError if a value is NaN or infinite; None is skipped."""
    for value in values:
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"{what} values must be finite, got {values}")
