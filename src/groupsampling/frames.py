"""Frame and Riesz diagnostics in the transfer domain, and the one stability policy.

For a system A, the translates of the adjoint columns form a frame of the
N-component sequence space exactly when the determinant of the per-character
spectral Gram A^(xi)* A^(xi) stays away from zero; a square system is a Riesz
basis when no A^(xi) is singular.  Because the groups here are finite, the
essential infimum/supremum over the dual group are plain minima/maxima over
all characters.  The thresholds and verdicts of the stability policy live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapExceededError, DimensionMismatchError, FrameConditionError,
                     SingularCharacterError)
from .groups import GroupSpec
from .systems import SequenceMatrix, TransferMatrix, VectorSequence, from_transfer, transfer

DEFAULT_ORACLE_CAP = 4096

# Stability policy.  Default frame threshold on delta: DEFAULT_FRAME_RTOL * beta;
# an explicit tol is an absolute threshold on delta, and sqrt(tol) the one on
# each |det A^(xi)| of a square system.
DEFAULT_FRAME_RTOL = 1e-10
# Pseudo-inverse by the normal equations while delta / beta^N is above this,
# by the rank-tolerant SVD otherwise.
NORMAL_EQUATIONS_MIN_RATIO = 1e-8
# Rank cutoff relative to the largest value: singular values of A^(xi) in the
# SVD pseudo-inverse; in ``models``, fiber Gram eigenvalues and |phi^(xi)|^2.
RANK_RTOL = 1e-12
# Largest entrywise deviation of B^(xi) A^(xi) from I that a procedure accepts.
LEFT_INVERSE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class FrameDiagnostics:
    """Spectral summary of a convolution system over all characters.

    ``delta`` and the frame verdict come from the Gram eigenvalues.  The Riesz
    verdict and singular characters of a square system come from |det A^(xi)|:
    at a singular character its LU round-off is about eps * beta^(N/2), while
    the eigenvalue product, which squares the conditioning, keeps eps * beta^N.
    """

    group: GroupSpec
    rows: int
    cols: int
    alpha: float            # min over characters of the smallest Gram eigenvalue
    beta: float             # max over characters of the largest Gram eigenvalue
    delta: float            # min over characters of det(spectral Gram)
    is_frame: bool          # delta > tol
    is_riesz: bool          # square with no singular character
    tol: float              # effective tolerance used for the verdicts
    eigenvalues: np.ndarray  # (order, cols) ascending per character
    abs_dets: np.ndarray | None  # (order,) |det A^(xi)|, square systems only; read-only
    worst_xi: tuple[int, ...]  # coordinates of the character where delta is attained

    def singular_characters(self) -> list[tuple[int, ...]]:
        """Characters whose |det A^(xi)| is not above sqrt(tol), in index order."""
        if self.abs_dets is None:
            raise DimensionMismatchError(
                f"singular characters need a square system, got {self.rows}x{self.cols}")
        coords = self.group.coords_array
        return [tuple(int(c) for c in coords[k])
                for k in np.nonzero(self.abs_dets <= math.sqrt(self.tol))[0]]

    def require_invertible(self, message: str) -> None:
        """Raise :class:`SingularCharacterError` formatting ``message`` at the first one.

        The placeholders are ``xi``, its ``abs_det`` and the ``threshold`` sqrt(tol)."""
        offenders = self.singular_characters()
        if offenders:
            abs_det = self.abs_dets[self.group.element(offenders[0]).index]
            raise SingularCharacterError(message.format(
                xi=offenders[0], abs_det=abs_det, threshold=math.sqrt(self.tol)), offenders)

    def to_json_dict(self) -> dict:
        coords = self.group.coords_array
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "delta": self.delta,
            "is_frame": self.is_frame,
            "is_riesz": self.is_riesz,
            "tol": self.tol,
            "per_xi": [
                {"xi": [int(c) for c in coords[k]], "eigs": self.eigenvalues[k].tolist()}
                for k in range(self.group.order)
            ],
        }


def _spectral_gram(t: np.ndarray) -> np.ndarray:
    return np.matmul(np.conj(t.transpose(0, 2, 1)), t)


def _spectrum(t: TransferMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The spectral Gram, its raw ascending eigenvalues and, if square, |det A^(xi)|.

    Computed on first use and kept read-only on the transfer matrix, which is
    immutable and cached on its system, so every verdict and dual on one system
    shares one Gram, one eigen-solve and one determinant pass.
    """
    if t._spectrum is None:
        gram = _spectral_gram(t.matrices)
        eigs = np.linalg.eigvalsh(gram)
        abs_dets = np.abs(np.linalg.det(t.matrices)) if t.rows == t.cols else None
        for arr in (gram, eigs, abs_dets):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(t, "_spectrum", (gram, eigs, abs_dets))
    return t._spectrum


def diagnostics(a: SequenceMatrix, tol: float | None = None) -> FrameDiagnostics:
    """Frame/Riesz verdicts from per-character Hermitian eigenvalues.

    The determinant is formed as the product of eigenvalues of the positive
    semidefinite spectral Gram, which keeps it nonnegative by construction.
    A square system also gets |det A^(xi)| from the LU factors of each
    transfer matrix.  Both come from the spectrum cached on the system's
    transfer (:func:`_spectrum`): ``eigenvalues`` is a fresh clamped copy on
    every call, while ``abs_dets`` is the shared read-only array.  With
    ``tol=None`` the verdict threshold defaults to a scale-aware
    ``DEFAULT_FRAME_RTOL * beta``.
    """
    if tol is not None and tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    _, raw, abs_dets = _spectrum(transfer(a))
    eigs = np.maximum(raw, 0.0)
    alpha = float(eigs[:, 0].min())
    beta = float(eigs[:, -1].max())
    dets = eigs.prod(axis=1)
    worst = int(np.argmin(dets))
    delta = float(dets[worst])
    effective_tol = float(tol) if tol is not None else DEFAULT_FRAME_RTOL * beta
    return FrameDiagnostics(
        group=a.group,
        rows=a.rows,
        cols=a.cols,
        alpha=alpha,
        beta=beta,
        delta=delta,
        is_frame=delta > effective_tol,
        is_riesz=abs_dets is not None and bool(abs_dets.min() > math.sqrt(effective_tol)),
        tol=effective_tol,
        eigenvalues=eigs,
        abs_dets=abs_dets,
        worst_xi=tuple(int(c) for c in a.group.coords_array[worst]),
    )


def require_frame(a: SequenceMatrix, tol: float | None = None) -> FrameDiagnostics:
    """:func:`diagnostics`, raising :class:`FrameConditionError` unless ``is_frame``.

    The error carries ``delta``, the effective ``tol`` and the character ``xi``
    where ``delta`` is attained.
    """
    diag = diagnostics(a, tol)
    if not diag.is_frame:
        raise FrameConditionError(
            f"sampling system is not stable: determinant infimum "
            f"delta={diag.delta:.6e} not above tolerance {diag.tol:.6e}",
            delta=diag.delta, tol=diag.tol, xi=diag.worst_xi)
    return diag


def translate_analysis_matrix(a: SequenceMatrix) -> np.ndarray:
    """Dense analysis matrix of the translate family of the adjoint columns.

    Row (m, h) against column (n, g) holds a_{m,n}(h - g), so that the matrix
    applied to a flattened vector produces all inner products against the
    translated family.
    """
    diff = a.group.differences(slice(None), slice(None))  # (h, g)
    mat = a.values[np.arange(a.rows)[:, None, None, None], np.arange(a.cols)[:, None],
                   diff[:, None, :]]  # (M, h, N, g)
    return mat.reshape(a.rows * a.group.order, a.cols * a.group.order)


def oracle_frame_bounds(a: SequenceMatrix, cap: int = DEFAULT_ORACLE_CAP) -> tuple[float, float]:
    """Extreme squared singular values of the dense translate analysis matrix.

    Brute-force cross-check for :func:`diagnostics`: under the package's
    transform convention (unnormalized forward, 1/|H| inverse) they equal its
    ``alpha`` and ``beta``.  Refuses to build matrices beyond ``cap``
    rows/columns.
    """
    order = a.group.order
    if order * max(a.rows, a.cols) > cap:
        raise CapExceededError(
            f"translate Gram needs {order * max(a.rows, a.cols)} rows, cap is {cap}")
    mat = translate_analysis_matrix(a)
    svals = np.linalg.svd(mat, compute_uv=False)
    upper = float(svals[0] ** 2) if svals.size else 0.0
    # the domain has cols*order dimensions; missing singular values are zeros
    lower = float(svals[-1] ** 2) if mat.shape[0] >= mat.shape[1] else 0.0
    return (lower, upper)


def check_determinant_sandwich(a: SequenceMatrix, slack: float = 1e-9) -> bool:
    """Check alpha^N <= delta <= alpha * beta^(N-1) with relative slack."""
    d = diagnostics(a)
    n = a.cols
    pad = slack * max(1.0, d.beta) ** n
    lower_ok = d.alpha ** n <= d.delta + pad
    upper_ok = d.delta <= d.alpha * d.beta ** (n - 1) + pad
    return bool(lower_ok and upper_ok)


def kernel_witness(a: SequenceMatrix) -> VectorSequence:
    """Unit-norm coefficients annihilated (up to round-off) by a degenerate system.

    Concentrates the null eigenvector of the spectral Gram at the character
    where its determinant is smallest; when delta is zero the resulting
    samples vanish, witnessing that recovery cannot succeed.
    """
    gram, eigs, _ = _spectrum(transfer(a))
    k0 = int(np.argmin(eigs[:, 0]))
    _, vecs = np.linalg.eigh(gram[k0])
    null_vec = vecs[:, 0]
    xhat = np.zeros((a.group.order, a.cols), dtype=np.complex128)
    xhat[k0] = null_vec
    spectral = TransferMatrix(a.group, xhat[:, :, None])
    x_cols = from_transfer(spectral)  # N x 1 system; its columns are the coefficients
    vec = VectorSequence(a.group, x_cols.values[:, 0, :])
    return vec * (1.0 / vec.norm())
