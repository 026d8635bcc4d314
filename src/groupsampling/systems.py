"""Matrix convolution systems between product sequence spaces and their transfer matrices.

A system is an M x N grid of sequences on a common group; it acts on N-component
vector sequences by componentwise convolution and summation.  Its transfer
matrix collects the entrywise Fourier transforms into one complex M x N matrix
per character.

Transfer matrices are cached on the owning system and propagated through
adjoints, compositions and inverse transforms, so structural identities such
as "the transfer of the adjoint is the conjugate transpose" hold exactly as
complex doubles rather than up to a fresh transform's round-off.  A transfer
matrix in turn keeps its per-character spectrum once ``frames`` has computed
it, so every stability verdict on one system shares one eigen-solve.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatchError, GroupMismatchError, SchemaError, _complex_values,
                     _int_list, _require_keys, json_integer)
from .groups import (GroupArray, GroupElement, GroupSequence, GroupSpec, _exact_convolve,
                     _same_space, _Sequence)


class VectorSequence(_Sequence):
    """An element of the N-fold product of sequence spaces over one group: coefficients, a
    sample set (``SampleSet``) or an analysis table (``FunctionOnG``), one sector per window."""

    __slots__ = ()  # values: the stack rule, GroupArray._shaped

    @classmethod
    def from_components(cls, components: list[GroupSequence]) -> VectorSequence:
        if not components:
            raise ValueError("need at least one component")
        for c in components[1:]:
            _same_space(components[0], c, "components live on different groups")
        return cls(components[0].group, np.stack([c.values for c in components]))

    @classmethod
    def zeros(cls, group: GroupSpec, n: int) -> VectorSequence:
        return cls(group, np.zeros((n, group.order)))

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    def component(self, n: int) -> GroupSequence:
        return GroupSequence(self.group, self.values[n])

    def at(self, point: GroupElement | int, sector: int = 0) -> complex:
        """The value of one component (a sector of a function table) at a point."""
        idx = self.group.index_of(point)
        if not 0 <= sector < self.n_components:
            raise ValueError(f"sector {sector} outside the {self.n_components} sectors")
        return complex(self.values[sector, idx])

    def flat(self) -> np.ndarray:
        """The values of a single component: a one-window function table."""
        if self.n_components != 1:
            raise ValueError(f"values have {self.n_components} sectors; pick one explicitly")
        return self.values[0]

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "components": [
                {"re": row.real.tolist(), "im": row.imag.tolist()} for row in self.values
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "vector") -> VectorSequence:
        """Read :meth:`to_json_dict`'s payload."""
        _require_keys(data, {"moduli", "components"}, {"moduli", "components"}, where)
        group = GroupSpec(_int_list(data["moduli"], f"{where}.moduli"))
        components = data["components"]
        if not isinstance(components, list) or not components:
            raise SchemaError(f"{where}.components: expected a non-empty list")
        rows = []
        for k, c in enumerate(components):
            at = f"{where}.components[{k}]"
            _require_keys(c, {"re", "im"}, {"re", "im"}, at)
            rows.append(_complex_values(c, (group.order,), at))
        return cls(group, np.stack(rows))


class TransferMatrix(GroupArray):
    """Per-character complex matrices: one rows x cols matrix for each character."""

    # _spectrum: None until ``frames`` stores the read-only spectrum of the matrices
    __slots__ = _caches = ("_spectrum",)

    @staticmethod
    def _shaped(arr: np.ndarray, group: GroupSpec) -> np.ndarray:
        if arr.ndim != 3 or arr.shape[0] != group.order:
            raise ValueError(
                f"expected ({group.order}, M, N) matrices, got shape {arr.shape}")
        return arr

    matrices = GroupArray.values  # the values, (order, rows, cols): one matrix per character

    @property
    def rows(self) -> int:
        return self.matrices.shape[1]

    @property
    def cols(self) -> int:
        return self.matrices.shape[2]

    def at(self, xi: GroupElement | int) -> np.ndarray:
        return self.matrices[self.group.index_of(xi)]

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
    def from_json_dict(cls, data: dict, where: str = "transfer") -> TransferMatrix:
        """Read :meth:`to_json_dict`'s payload."""
        keys = {"moduli", "rows", "cols", "re", "im"}
        _require_keys(data, keys, keys, where)
        group = GroupSpec(_int_list(data["moduli"], f"{where}.moduli"))
        m, n = (json_integer(data[k], f"{where}.{k}", least=1) for k in ("rows", "cols"))
        return cls(group, _complex_values(data, (group.order, m, n), where))


class SequenceMatrix(GroupArray):
    """An M x N grid of sequences over one group, acting by matrix convolution."""

    __slots__ = _caches = ("_transfer",)

    @staticmethod
    def _shaped(arr: np.ndarray, group: GroupSpec) -> np.ndarray:
        if arr.ndim != 3 or arr.shape[2] != group.order or 0 in arr.shape[:2]:
            raise ValueError(f"expected (M, N, {group.order}) entries with M, N >= 1, "
                             f"got shape {arr.shape}")
        return arr

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
    def from_json_dict(cls, data: dict, where: str = "system") -> SequenceMatrix:
        """Read :meth:`to_json_dict`'s payload (each entry's ``im`` optional)."""
        keys = {"moduli", "rows", "cols", "entries"}
        _require_keys(data, keys, keys, where)
        group = GroupSpec(_int_list(data["moduli"], f"{where}.moduli"))
        m, n = (json_integer(data[k], f"{where}.{k}", least=1) for k in ("rows", "cols"))
        entries = data["entries"]
        if not isinstance(entries, list) or len(entries) != m * n:
            raise SchemaError(f"{where}.entries: expected a list of {m * n} entries")
        values = np.empty((m, n, group.order), dtype=np.complex128)
        for k, e in enumerate(entries):
            at = f"{where}.entries[{k}]"
            _require_keys(e, {"re", "im"}, {"re"}, at)
            values[k // n, k % n] = _complex_values(e, (group.order,), at)
        return cls(group, values)


def apply(a: SequenceMatrix, x: VectorSequence) -> VectorSequence:
    """Matrix convolution: component m of the result is sum_n a_{m,n} * x_n."""
    if a.group != x.group:
        raise GroupMismatchError("system and vector live on different groups")
    if a.cols != x.n_components:
        raise DimensionMismatchError(
            f"system has {a.cols} columns but vector has {x.n_components} components")
    return VectorSequence(a.group, _exact_convolve(a.values, x.values, a.group))


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
