"""Exception types shared across the package, and the one integer rule of its payloads."""

from __future__ import annotations


class GroupMismatchError(ValueError):
    """Operands live on different groups."""


class DimensionMismatchError(ValueError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class FrameConditionError(ValueError):
    """A stability precondition (frame or Riesz) is violated.

    Carries the determinant infimum that failed the test so callers can
    report how far the system is from stability, and, where known, the
    coordinates ``xi`` of the character at which that infimum is attained.
    """

    def __init__(self, message: str, *, delta: float | None = None,
                 tol: float | None = None, xi: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.delta = delta
        self.tol = tol
        self.xi = xi


class SingularCharacterError(ValueError):
    """A per-character matrix is singular; lists the offending characters."""

    def __init__(self, message: str, characters: list[tuple[int, ...]]) -> None:
        super().__init__(message)
        self.characters = characters


class CapExceededError(RuntimeError):
    """A dense brute-force computation would exceed the configured size cap."""


class SchemaError(ValueError):
    """A scenario configuration or a JSON payload failed validation."""


def json_integer(value, where: str, least: int = 0) -> int:
    """A JSON integer >= ``least``: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SchemaError(f"{where}: expected an integer >= {least}, got {value!r}")
    return value
