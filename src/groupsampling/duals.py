"""Left inverses of convolution systems: pseudo-inverse, full family, square inverse.

A left inverse in the transfer domain, B^(xi) A^(xi) = I at every character,
turns the translate frame of a system into a dual-frame pair and is the whole
reconstruction story: convolving samples with the left inverse recovers the
expansion coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError
from .frames import (NORMAL_EQUATIONS_MIN_RATIO, RANK_RTOL, FrameDiagnostics, _spectrum,
                     diagnostics, require_frame)
from .systems import SequenceMatrix, TransferMatrix, from_transfer, transfer


@dataclass(frozen=True, eq=False)
class LeftInverse:
    """A left inverse held in both domains: per-character matrices and sequences.

    Stability verdicts read only the transfer; the sequences are its inverse
    transform, computed on first access and kept.
    """

    transfer: TransferMatrix
    kind: str

    @cached_property
    def coefficients(self) -> SequenceMatrix:
        return from_transfer(self.transfer)

    def to_json_dict(self) -> dict:
        data = self.coefficients.to_json_dict()
        data["kind"] = self.kind
        data["transfer"] = self.transfer.to_json_dict()
        return data


def _pseudo_inverse_matrices(a: SequenceMatrix, diag: FrameDiagnostics) -> np.ndarray:
    t = transfer(a)
    beta_scale = max(diag.beta, np.finfo(float).tiny) ** a.cols
    if diag.delta / beta_scale > NORMAL_EQUATIONS_MIN_RATIO:
        return np.linalg.solve(_spectrum(t)[0], np.conj(t.matrices.transpose(0, 2, 1)))
    return np.linalg.pinv(t.matrices, rcond=RANK_RTOL)


def moore_penrose(a: SequenceMatrix, tol: float | None = None) -> LeftInverse:
    """Canonical left inverse [A^* A^]^{-1} A^* per character.

    Uses the explicit normal-equation solve while the system is well
    conditioned and falls back to a rank-tolerant SVD pseudo-inverse close to
    degeneracy.  Requires the frame condition and reports the failing
    determinant infimum otherwise.
    """
    diag = require_frame(a, tol)
    mats = _pseudo_inverse_matrices(a, diag)
    return LeftInverse(TransferMatrix(a.group, mats), "moore_penrose")


def left_inverse_family(a: SequenceMatrix, c: TransferMatrix,
                        tol: float | None = None) -> LeftInverse:
    """Family member A^dag + C (I - A^ A^dag); every choice of C is a left inverse."""
    if c.group != a.group:
        raise DimensionMismatchError("family parameter lives on a different dual group")
    if (c.rows, c.cols) != (a.cols, a.rows):
        raise DimensionMismatchError(
            f"family parameter must be {a.cols}x{a.rows}, got {c.rows}x{c.cols}")
    diag = require_frame(a, tol)
    t = transfer(a).matrices
    dag = _pseudo_inverse_matrices(a, diag)
    eye = np.eye(a.rows)
    mats = dag + np.matmul(c.matrices, eye - np.matmul(t, dag))
    return LeftInverse(TransferMatrix(a.group, mats), "family")


def verify_left_inverse(a: SequenceMatrix, b: LeftInverse | SequenceMatrix) -> float:
    """Max over characters of the entrywise deviation of B^ A^ from the identity."""
    tb = b.transfer if isinstance(b, LeftInverse) else transfer(b)
    if tb.group != a.group:
        raise DimensionMismatchError("left inverse lives on a different dual group")
    if tb.cols != a.rows:
        raise DimensionMismatchError(
            f"cannot multiply {tb.rows}x{tb.cols} by {a.rows}x{a.cols}")
    product = np.matmul(tb.matrices, transfer(a).matrices)
    residual = product - np.eye(a.cols)
    return float(np.abs(residual).max())


def square_inverse(a: SequenceMatrix, tol: float | None = None) -> LeftInverse:
    """Exact per-character inverse of a square system; its dual is a Riesz basis."""
    if a.rows != a.cols:
        raise DimensionMismatchError(
            f"square inverse needs a square system, got {a.rows}x{a.cols}")
    diagnostics(a, tol).require_invertible(
        "transfer matrix is singular at character {xi} "
        "(|det|={abs_det:.3e}, threshold {threshold:.3e})")
    mats = np.linalg.inv(transfer(a).matrices)
    return LeftInverse(TransferMatrix(a.group, mats), "square")
