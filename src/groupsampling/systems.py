"""Matrix convolution systems between product sequence spaces and their transfer matrices.

A system is an M x N grid of sequences on a common group; it acts on N-component
vector sequences by componentwise convolution and summation.  Its transfer
matrix collects the entrywise Fourier transforms into one complex M x N matrix
per character.

Transfer matrices are cached on the owning system and propagated through
adjoints, compositions and inverse transforms, so structural identities such
as "the transfer of the adjoint is the conjugate transpose" hold exactly as
complex doubles rather than up to a fresh transform's round-off.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, GroupMismatchError
from .groups import GroupElement, GroupSequence, GroupSpec, exact_inner, exact_norm_sq


class VectorSequence:
    """An element of the N-fold product of sequence spaces over one group."""

    __slots__ = ("group", "values")

    def __init__(self, group: GroupSpec, values) -> None:
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != group.order or arr.shape[0] < 1:
            raise ValueError(
                f"expected (N, {group.order}) values for group {group.moduli}, "
                f"got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("VectorSequence is immutable")

    @classmethod
    def from_components(cls, components: list[GroupSequence]) -> VectorSequence:
        if not components:
            raise ValueError("need at least one component")
        group = components[0].group
        for c in components[1:]:
            if c.group != group:
                raise GroupMismatchError("components live on different groups")
        return cls(group, np.stack([c.values for c in components]))

    @classmethod
    def zeros(cls, group: GroupSpec, n: int) -> VectorSequence:
        return cls(group, np.zeros((n, group.order)))

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    def component(self, n: int) -> GroupSequence:
        return GroupSequence(self.group, self.values[n])

    def shift(self, t: GroupElement | int) -> VectorSequence:
        idx = t if isinstance(t, int) else t.index
        return VectorSequence(self.group, self.values[:, self.group.translation_perm(idx)])

    def norm_sq(self) -> float:
        return exact_norm_sq(self.values)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: VectorSequence) -> complex:
        if self.group != other.group or self.n_components != other.n_components:
            raise GroupMismatchError("inner product needs matching spaces")
        return exact_inner(self.values, other.values)

    def __add__(self, other: VectorSequence) -> VectorSequence:
        if self.group != other.group or self.n_components != other.n_components:
            raise GroupMismatchError("cannot add vectors from different spaces")
        return VectorSequence(self.group, self.values + other.values)

    def __sub__(self, other: VectorSequence) -> VectorSequence:
        if self.group != other.group or self.n_components != other.n_components:
            raise GroupMismatchError("cannot subtract vectors from different spaces")
        return VectorSequence(self.group, self.values - other.values)

    def __mul__(self, scalar: complex) -> VectorSequence:
        return VectorSequence(self.group, self.values * scalar)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "components": [
                {"re": row.real.tolist(), "im": row.imag.tolist()} for row in self.values
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> VectorSequence:
        group = GroupSpec(tuple(data["moduli"]))
        rows = [np.asarray(c["re"], dtype=float) + 1j * np.asarray(c["im"], dtype=float)
                for c in data["components"]]
        return cls(group, np.stack(rows))


class TransferMatrix:
    """Per-character complex matrices: one rows x cols matrix for each character."""

    __slots__ = ("group", "matrices")

    def __init__(self, group: GroupSpec, matrices) -> None:
        arr = np.asarray(matrices, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != group.order:
            raise ValueError(
                f"expected ({group.order}, M, N) matrices, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrices", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TransferMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.matrices.shape[1]

    @property
    def cols(self) -> int:
        return self.matrices.shape[2]

    def at(self, xi: GroupElement | int) -> np.ndarray:
        idx = xi if isinstance(xi, int) else xi.index
        return self.matrices[idx]

    def conj_transpose(self) -> TransferMatrix:
        return TransferMatrix(self.group, np.conj(self.matrices.transpose(0, 2, 1)))

    def matmul(self, other: TransferMatrix) -> TransferMatrix:
        if self.group != other.group:
            raise GroupMismatchError("transfer matrices on different dual groups")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return TransferMatrix(self.group, np.matmul(self.matrices, other.matrices))

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "rows": self.rows,
            "cols": self.cols,
            "re": self.matrices.real.tolist(),
            "im": self.matrices.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> TransferMatrix:
        group = GroupSpec(tuple(data["moduli"]))
        arr = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        if arr.shape != (group.order, int(data["rows"]), int(data["cols"])):
            raise ValueError("transfer matrix payload shape mismatch")
        return cls(group, arr)


class SequenceMatrix:
    """An M x N grid of sequences over one group, acting by matrix convolution."""

    __slots__ = ("group", "values", "_transfer")

    def __init__(self, group: GroupSpec, values) -> None:
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[2] != group.order:
            raise ValueError(
                f"expected (M, N, {group.order}) entries, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("system needs at least one row and one column")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_transfer", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SequenceMatrix is immutable")

    @classmethod
    def from_entries(cls, entries: list[list[GroupSequence]]) -> SequenceMatrix:
        group = entries[0][0].group
        rows = []
        for row in entries:
            for e in row:
                if e.group != group:
                    raise GroupMismatchError("entries live on different groups")
            rows.append(np.stack([e.values for e in row]))
        return cls(group, np.stack(rows))

    @classmethod
    def identity(cls, group: GroupSpec, n: int) -> SequenceMatrix:
        values = np.zeros((n, n, group.order), dtype=np.complex128)
        for i in range(n):
            values[i, i, 0] = 1.0
        return cls(group, values)

    @classmethod
    def zeros(cls, group: GroupSpec, m: int, n: int) -> SequenceMatrix:
        return cls(group, np.zeros((m, n, group.order)))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def entry(self, m: int, n: int) -> GroupSequence:
        return GroupSequence(self.group, self.values[m, n])

    def column(self, m: int) -> VectorSequence:
        """The m-th column as a vector sequence (rows many components)."""
        return VectorSequence(self.group, self.values[:, m, :])

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                {"re": self.values[m, n].real.tolist(),
                 "im": self.values[m, n].imag.tolist()}
                for m in range(self.rows) for n in range(self.cols)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> SequenceMatrix:
        group = GroupSpec(tuple(data["moduli"]))
        m, n = int(data["rows"]), int(data["cols"])
        entries = data["entries"]
        if len(entries) != m * n:
            raise ValueError(f"expected {m * n} entries, got {len(entries)}")
        values = np.empty((m, n, group.order), dtype=np.complex128)
        for k, e in enumerate(entries):
            re = np.asarray(e["re"], dtype=float)
            im = np.asarray(e.get("im", np.zeros_like(re)), dtype=float)
            values[k // n, k % n] = re + 1j * im
        return cls(group, values)


def _exact_matrix_convolve(a_values: np.ndarray, x_values: np.ndarray,
                           group: GroupSpec) -> np.ndarray:
    """Brute-force matrix convolution with exactly rounded per-point sums.

    out[m, h] = sum over (n, h') of a[m, n, h - h'] * x[n, h'].  Each output
    point is one correctly rounded sum, so any regrouping of the same index
    set (for instance the coset regrouping used for finite-index sampling)
    produces bitwise identical samples.
    """
    m_rows = a_values.shape[0]
    out = np.empty((m_rows, group.order), dtype=np.complex128)
    xr, xi = x_values.real, x_values.imag
    for h in range(group.order):
        gathered = a_values[:, :, group.subtraction_row(h)]
        ar, ai = gathered.real, gathered.imag
        rr, ii = ar * xr, ai * xi
        ri, ir = ar * xi, ai * xr
        for m in range(m_rows):
            re = math.fsum(np.concatenate([rr[m].ravel(), (-ii[m]).ravel()]).tolist())
            im = math.fsum(np.concatenate([ri[m].ravel(), ir[m].ravel()]).tolist())
            out[m, h] = complex(re, im)
    return out


def apply(a: SequenceMatrix, x: VectorSequence) -> VectorSequence:
    """Matrix convolution: component m of the result is sum_n a_{m,n} * x_n."""
    if a.group != x.group:
        raise GroupMismatchError("system and vector live on different groups")
    if a.cols != x.n_components:
        raise DimensionMismatchError(
            f"system has {a.cols} columns but vector has {x.n_components} components")
    return VectorSequence(a.group, _exact_matrix_convolve(a.values, x.values, a.group))


def transfer(a: SequenceMatrix) -> TransferMatrix:
    """Entrywise forward transform, one complex matrix per character (cached)."""
    if a._transfer is None:
        mats = np.moveaxis(a.group.fft(a.values), -1, 0)
        object.__setattr__(a, "_transfer", TransferMatrix(a.group, mats))
    return a._transfer


def from_transfer(t: TransferMatrix) -> SequenceMatrix:
    """Entrywise inverse transform; the result caches the given transfer."""
    result = SequenceMatrix(t.group, t.group.ifft(np.moveaxis(t.matrices, 0, -1)))
    object.__setattr__(result, "_transfer", t)
    return result


def adjoint_system(a: SequenceMatrix) -> SequenceMatrix:
    """The adjoint system: entry (n, m) is the involution of entry (m, n).

    Its transfer matrix is set to the conjugate transpose of the source's, so
    the frequency-domain adjoint identity holds exactly as complex doubles.
    """
    perm = a.group.negation_perm
    values = np.conj(a.values[:, :, perm]).transpose(1, 0, 2)
    result = SequenceMatrix(a.group, values)
    object.__setattr__(result, "_transfer", transfer(a).conj_transpose())
    return result


def compose(b: SequenceMatrix, a: SequenceMatrix) -> SequenceMatrix:
    """System composition: per-character product of transfers, inverse-transformed."""
    if b.group != a.group:
        raise GroupMismatchError("cannot compose systems on different groups")
    if b.cols != a.rows:
        raise DimensionMismatchError(
            f"cannot compose {b.rows}x{b.cols} with {a.rows}x{a.cols}")
    return from_transfer(transfer(b).matmul(transfer(a)))
