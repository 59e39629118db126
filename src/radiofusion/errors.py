"""Exception types shared across the package, and the finite-number check."""

import math


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or value range."""


class InvalidGeometryError(InvalidInputError):
    """An antenna array or sample matrix has degenerate dimensions."""


class BehindCameraError(ValueError):
    """A localization projects to a non-positive point-to-plane distance."""


class SchemaError(ValueError):
    """A data file does not conform to its documented schema."""


def require_finite(what: str, *values: float | None) -> None:
    """Raise InvalidInputError if a value is NaN or infinite; None is skipped."""
    for value in values:
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"{what} values must be finite, got {values}")
