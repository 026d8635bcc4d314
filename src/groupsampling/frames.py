"""Frame and Riesz diagnostics of translate families in the transfer domain.

For a system A, the translates of the adjoint columns form a frame of the
N-component sequence space exactly when the determinant of the per-character
spectral Gram A^(xi)* A^(xi) stays away from zero.  Because the groups here
are finite, the essential infimum/supremum over the dual group are plain
minima/maxima over all characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .groups import GroupSpec
from .systems import SequenceMatrix, TransferMatrix, VectorSequence, from_transfer, transfer

# Frame bounds read off the transfer matrices coincide with the extreme
# eigenvalues of the brute-force translate Gram matrix under the package's
# transform convention (unnormalized forward, 1/|H| inverse); the conversion
# constant between the two computations is therefore exactly one.  It is kept
# explicit so the equality is stated and tested rather than implicit.
GRAM_BOUND_SCALE = 1.0

DEFAULT_ORACLE_CAP = 4096

# Relative scale of the default frame tolerance (times beta).
_DEFAULT_REL_TOL = 1e-10


def _riesz_tol(tol: float) -> float:
    return math.sqrt(tol) if tol > 0 else 0.0


@dataclass(frozen=True)
class FrameDiagnostics:
    """Spectral summary of a convolution system over all characters."""

    group: GroupSpec
    rows: int
    cols: int
    alpha: float            # min over characters of the smallest Gram eigenvalue
    beta: float             # max over characters of the largest Gram eigenvalue
    delta: float            # min over characters of det(spectral Gram)
    is_frame: bool
    is_riesz: bool
    tol: float              # effective tolerance used for the verdicts
    eigenvalues: np.ndarray  # (order, cols) ascending per character
    min_abs_det: float | None  # min |det A^(xi)| over characters (square systems)

    def riesz_tol(self) -> float:
        """Square-root-scale tolerance used for determinant-based verdicts."""
        return _riesz_tol(self.tol)

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


def _spectral_eigenvalues(t: TransferMatrix) -> np.ndarray:
    gram = np.matmul(np.conj(t.matrices.transpose(0, 2, 1)), t.matrices)
    eigs = np.linalg.eigvalsh(gram)
    return np.maximum(eigs, 0.0)


def diagnostics(a: SequenceMatrix, tol: float | None = None) -> FrameDiagnostics:
    """Frame/Riesz verdicts from per-character Hermitian eigenvalues.

    The determinant is formed as the product of eigenvalues of the positive
    semidefinite spectral Gram, which keeps it nonnegative by construction.
    With ``tol=None`` the verdict threshold defaults to a scale-aware
    ``1e-10 * beta``.
    """
    if tol is not None and tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    t = transfer(a)
    eigs = _spectral_eigenvalues(t)
    alpha = float(eigs[:, 0].min())
    beta = float(eigs[:, -1].max())
    dets = eigs.prod(axis=1)
    delta = float(dets.min())
    effective_tol = float(tol) if tol is not None else _DEFAULT_REL_TOL * beta
    min_abs_det = None
    is_riesz = False
    if a.rows == a.cols:
        min_abs_det = float(np.abs(np.linalg.det(t.matrices)).min())
        is_riesz = min_abs_det > _riesz_tol(effective_tol)
    return FrameDiagnostics(
        group=a.group,
        rows=a.rows,
        cols=a.cols,
        alpha=alpha,
        beta=beta,
        delta=delta,
        is_frame=delta > effective_tol,
        is_riesz=is_riesz,
        tol=effective_tol,
        eigenvalues=eigs,
        min_abs_det=min_abs_det,
    )


def translate_analysis_matrix(a: SequenceMatrix) -> np.ndarray:
    """Dense analysis matrix of the translate family of the adjoint columns.

    Row (m, h) against column (n, g) holds a_{m,n}(h - g), so that the matrix
    applied to a flattened vector produces all inner products against the
    translated family.
    """
    g = a.group
    order = g.order
    mat = np.empty((a.rows * order, a.cols * order), dtype=np.complex128)
    for h in range(order):
        row = g.subtraction_row(h)  # indices of h - g'
        block = a.values[:, :, row]  # (M, N, order)
        mat[h::order, :] = block.reshape(a.rows, a.cols * order)
    return mat


def oracle_frame_bounds(a: SequenceMatrix, cap: int = DEFAULT_ORACLE_CAP) -> tuple[float, float]:
    """Extreme squared singular values of the dense translate analysis matrix.

    Brute-force cross-check for :func:`diagnostics`; refuses to build matrices
    beyond ``cap`` rows/columns.
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
    return (GRAM_BOUND_SCALE * lower, GRAM_BOUND_SCALE * upper)


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
    t = transfer(a)
    gram = np.matmul(np.conj(t.matrices.transpose(0, 2, 1)), t.matrices)
    eigs = np.linalg.eigvalsh(gram)
    k0 = int(np.argmin(eigs[:, 0]))
    _, vecs = np.linalg.eigh(gram[k0])
    null_vec = vecs[:, 0]
    xhat = np.zeros((a.group.order, a.cols), dtype=np.complex128)
    xhat[k0] = null_vec
    spectral = TransferMatrix(a.group, xhat[:, :, None])
    x_cols = from_transfer(spectral)  # N x 1 system; its columns are the coefficients
    vec = VectorSequence(a.group, x_cols.values[:, 0, :])
    return vec * (1.0 / vec.norm())
