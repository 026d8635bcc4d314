"""Exception types shared across the package, and the rules of its JSON payloads: a class's
``from_json_dict`` checks each object's keys, integers and numbers with the functions below,
which raise :class:`SchemaError` with a message that starts with the ``where`` they are given.
"""

from __future__ import annotations

import math

import numpy as np


class GroupMismatchError(ValueError):
    """Operands live on different groups."""


class DimensionMismatchError(ValueError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class FrameConditionError(ValueError):
    """A stability precondition (frame or Riesz) is violated: every stability refusal.

    Carries the determinant infimum (or smallest eigenvalue) that failed the test,
    and the coordinates ``xi`` of the character that caused the refusal.  Only
    :mod:`.frames` builds these.
    """

    def __init__(self, message: str, *, delta: float | None = None,
                 tol: float | None = None, xi: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.delta = delta
        self.tol = tol
        self.xi = xi


class SingularCharacterError(FrameConditionError):
    """A per-character matrix is singular; lists the offending characters, the first as ``xi``."""

    def __init__(self, message: str, characters: list[tuple[int, ...]]) -> None:
        super().__init__(message, xi=characters[0])
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


def _require_keys(data: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _int_list(value, where: str) -> tuple[int, ...]:
    """A non-empty list of JSON integers >= 1: moduli and strides."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a non-empty list of integers")
    return tuple(json_integer(v, where, least=1) for v in value)


def _finite(value, where: str, expected: str = "finite numbers", least: float = -math.inf) -> float:
    """A JSON number as a finite float >= ``least``: no bool, NaN, inf or int beyond the doubles."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the doubles
            number = math.inf
        if math.isfinite(number) and number >= least:
            return number
    raise SchemaError(f"{where}: expected {expected}, got {value!r}")


def _complex_values(data: dict, shape: tuple[int, ...], where: str) -> np.ndarray:
    """``re`` and ``im`` of a checked payload object, nested lists of ``shape`` finite numbers,
    as the real and imaginary parts of one complex array: each keeps its sign of zero."""
    def read(value, name: str, depth: int = 0) -> list:
        if not isinstance(value, list) or len(value) != shape[depth]:
            raise SchemaError(f"{where}: expected {name} as nested lists of shape {shape}")
        if depth + 1 < len(shape):
            return [read(v, name, depth + 1) for v in value]
        expected = f"finite numbers in {name}"
        return [_finite(v, where, expected) for v in value]

    re = read(data["re"], "re")
    im = read(data["im"], "im") if "im" in data else 0.0
    values = np.empty(shape, dtype=np.complex128)
    values.real, values.imag = re, im
    return values
