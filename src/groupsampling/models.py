"""Concrete unitary-representation scenarios generating the sampled subspaces.

Two scenarios are provided:

* translation on the sequence space of a finite abelian group, where the
  representation is U(t) x = x(. - t) and the sampled subspace is spanned by
  subgroup translates of a generator set;
* the quasi-regular representation of a finite rotation group acting on a
  square torus, U(s, gamma) f(t) = f(gamma^T (t - s)), which reduces to the
  translation scenario with one rotated generator per rotation.

Inner products use counting measure: <f, g> = sum f * conj(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CapExceededError, DimensionMismatchError, FrameConditionError,
                     GroupMismatchError)
from .frames import RANK_RTOL
from .groups import (GroupElement, GroupSequence, GroupSpec, ProductSubgroup, convolve,
                     dft, involution)
from .systems import SequenceMatrix, VectorSequence

DEFAULT_GRAM_CAP = 4096

_ROTATION_SETS = {
    "C1": ((1, 0, 0, 1),),
    "C2": ((1, 0, 0, 1), (-1, 0, 0, -1)),
    "C4": ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)),
}


class FunctionOnG:
    """A function table on a finite group, optionally with rotation sectors.

    Translation scenarios produce single-sector tables indexed by the group;
    semidirect scenarios produce one sector per rotation, so the domain is
    group x rotations.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: GroupSpec, values) -> None:
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != group.order:
            raise ValueError(
                f"expected (sectors, {group.order}) values, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FunctionOnG is immutable")

    @property
    def sectors(self) -> int:
        return self.values.shape[0]

    def at(self, point: GroupElement, sector: int = 0) -> complex:
        return complex(self.values[sector, point.index])

    def flat(self) -> np.ndarray:
        if self.sectors != 1:
            raise ValueError("function has rotation sectors; pick one explicitly")
        return self.values[0]

    def __sub__(self, other: FunctionOnG) -> FunctionOnG:
        if self.group != other.group or self.sectors != other.sectors:
            raise GroupMismatchError("functions live on different domains")
        return FunctionOnG(self.group, self.values - other.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.group.moduli),
            "sectors": [
                {"re": row.real.tolist(), "im": row.imag.tolist()} for row in self.values
            ],
        }


@dataclass(eq=False)
class TranslationModel:
    """Translation representation on a finite abelian group.

    Holds the analysis window, the sampling subgroup and the generator set of
    the invariant subspace.  Construction validates shapes and stores the
    window's spectral report; the Riesz-sequence bounds of the generator
    translates are computed on demand and enforced where procedures need them.
    """

    ambient: GroupSpec
    phi: GroupSequence
    subgroup: ProductSubgroup
    generators: tuple[GroupSequence, ...]

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if not self.generators:
            raise ValueError("need at least one generator")
        if self.phi.group != self.ambient:
            raise GroupMismatchError("window is not on the ambient group")
        if self.subgroup.parent != self.ambient:
            raise GroupMismatchError("sampling subgroup is not inside the ambient group")
        for g in self.generators:
            if g.group != self.ambient:
                raise GroupMismatchError("generator is not on the ambient group")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @cached_property
    def window_bounds(self) -> tuple[float, float]:
        """Frame bounds of the window translates over the whole group.

        These are the extreme values of |phi^|^2 over all characters; the
        family spans the full space exactly when the lower bound is positive.
        """
        mags = np.abs(dft(self.phi).values) ** 2
        return (float(mags.min()), float(mags.max()))

    @property
    def window_spans_everything(self) -> bool:
        return self.window_bounds[0] > 0.0

    def to_json_dict(self) -> dict:
        return {
            "type": "translation",
            "moduli": list(self.ambient.moduli),
            "H_strides": list(self.subgroup.strides),
            "phi": self.phi.to_json_dict(),
            "generators": [g.to_json_dict() for g in self.generators],
        }


def analysis_transform(model: TranslationModel, f: GroupSequence) -> FunctionOnG:
    """Correlation against window translates: F(t) = sum_s f(s) conj(phi(s - t))."""
    if f.group != model.ambient:
        raise GroupMismatchError("input is not on the ambient group")
    return FunctionOnG(model.ambient, convolve(f, involution(model.phi)).values)


def synthesize(model: TranslationModel, x: VectorSequence) -> GroupSequence:
    """Assemble f = sum_n sum_h x_n(h) T_{embed(h)} generator_n."""
    habs = model.subgroup.abstract_group
    if x.group != habs:
        raise GroupMismatchError("coefficients are not on the abstract sampling group")
    if x.n_components != model.n_generators:
        raise DimensionMismatchError(
            f"model has {model.n_generators} generators but coefficients have "
            f"{x.n_components} components")
    total = np.zeros(model.ambient.order, dtype=np.complex128)
    emb = model.subgroup.embedding_indices
    for n, gen in enumerate(model.generators):
        upsampled = np.zeros(model.ambient.order, dtype=np.complex128)
        upsampled[emb] = x.values[n]
        total = total + convolve(GroupSequence(model.ambient, upsampled), gen).values
    return GroupSequence(model.ambient, total)


def sample_matrix(model: TranslationModel, probes: list[GroupSequence]) -> SequenceMatrix:
    """System entries a_{m,n}(h) = <generator_n, T_{embed(h)} probe_m>."""
    if not probes:
        raise ValueError("need at least one probe")
    for p in probes:
        if p.group != model.ambient:
            raise GroupMismatchError("probe is not on the ambient group")
    habs = model.subgroup.abstract_group
    emb = model.subgroup.embedding_indices
    values = np.empty((len(probes), model.n_generators, habs.order), dtype=np.complex128)
    for m, probe in enumerate(probes):
        flipped = involution(probe)
        for n, gen in enumerate(model.generators):
            values[m, n] = convolve(gen, flipped, at=emb)
    return SequenceMatrix(habs, values)


def _translate_gram(model: TranslationModel, cap: int) -> tuple[np.ndarray, ...]:
    """Generator translates (columns, generator-major), their Gram and its eigenvalues."""
    emb = model.subgroup.embedding_indices
    habs_order = model.subgroup.abstract_group.order
    size = habs_order * model.n_generators
    if size > cap:
        raise CapExceededError(f"Gram matrix would be {size}x{size}, cap is {cap}")
    cols = np.empty((model.ambient.order, size), dtype=np.complex128)
    for n, gen in enumerate(model.generators):
        for k in range(habs_order):
            cols[:, n * habs_order + k] = gen.shift(int(emb[k])).values
    gram = cols.conj().T @ cols
    return cols, gram, np.linalg.eigvalsh(gram)


def _rank_deficient(eigs: np.ndarray) -> bool:
    """Smallest of ascending Gram eigenvalues not above ``RANK_RTOL`` times the largest."""
    return bool(eigs[0] <= RANK_RTOL * max(eigs[-1], np.finfo(float).tiny))


def riesz_sequence_check(model: TranslationModel,
                         cap: int = DEFAULT_GRAM_CAP) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram matrix of the generator translates."""
    _, _, eigs = _translate_gram(model, cap)
    return (float(eigs[0]), float(eigs[-1]))


def coefficients_of(model: TranslationModel, f: GroupSequence,
                    cap: int = DEFAULT_GRAM_CAP) -> VectorSequence:
    """Expansion coefficients of a member of the generated subspace.

    Solves the Gram system of the generator translates; requires the family
    to be a Riesz sequence.  For f outside the subspace this returns the
    coefficients of the orthogonal projection.
    """
    if f.group != model.ambient:
        raise GroupMismatchError("input is not on the ambient group")
    cols, gram, eigs = _translate_gram(model, cap)
    if _rank_deficient(eigs):
        raise FrameConditionError(
            f"generator translates are not a Riesz sequence "
            f"(Gram eigenvalues span [{eigs[0]:.3e}, {eigs[-1]:.3e}])",
            delta=float(eigs[0]))
    rhs = cols.conj().T @ f.values
    coeffs = np.linalg.solve(gram, rhs)
    return VectorSequence(model.subgroup.abstract_group,
                          coeffs.reshape(model.n_generators, -1))


@dataclass(frozen=True)
class ReproducingKernel:
    """Kernel table k(u, v) of the window-correlation function space."""

    group: GroupSpec
    matrix: np.ndarray  # (order, order), k[u, v]

    def reproduce(self, f: FunctionOnG) -> FunctionOnG:
        """Evaluate u -> sum_v f(v) k(u, v)."""
        if f.group != self.group:
            raise GroupMismatchError("function lives on a different group")
        return FunctionOnG(self.group, (self.matrix @ f.values.T).T)

    def residual(self, f: FunctionOnG) -> float:
        return (self.reproduce(f) - f).max_abs()


def reproducing_kernel(model: TranslationModel) -> ReproducingKernel:
    """Kernel k(u, v) = <window(v), S^{-1} window(u)> via the dense frame operator.

    Requires the window translates to span the whole space (positive lower
    window bound); otherwise the frame operator is singular.
    """
    order = model.ambient.order
    psi = np.empty((order, order), dtype=np.complex128)
    for t in range(order):
        psi[:, t] = model.phi.shift(t).values
    frame_op = psi @ psi.conj().T
    eigs, vecs = np.linalg.eigh(frame_op)
    if _rank_deficient(eigs):
        raise FrameConditionError(
            f"window frame operator is singular (eigenvalues span "
            f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]); the window translates do not "
            f"span the whole space", delta=float(eigs[0]))
    inv = (vecs / eigs) @ vecs.conj().T
    inv = 0.5 * (inv + inv.conj().T)
    kernel = psi.conj().T @ inv @ psi
    return ReproducingKernel(model.ambient, kernel.T.copy())


@dataclass(eq=False)
class SemidirectModel:
    """Quasi-regular representation of torus translations twisted by rotations.

    The torus is a square product of two equal cyclic factors; the rotation
    group is one of C1, C2 (half turn) or C4 (quarter turns), stored as 2x2
    integer matrices acting on coordinates modulo the side length.  The
    sampling lattice must use equal strides so every rotation maps it onto
    itself.
    """

    torus: GroupSpec
    gamma_label: str
    lattice: ProductSubgroup
    phi: GroupSequence
    varphi: GroupSequence
    rotations: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.torus.ndim != 2 or self.torus.moduli[0] != self.torus.moduli[1]:
            raise ValueError(
                f"torus must be a square two-dimensional group, got {self.torus.moduli}")
        if self.gamma_label not in _ROTATION_SETS:
            raise ValueError(f"unknown rotation group {self.gamma_label!r}; "
                             f"choose one of {sorted(_ROTATION_SETS)}")
        mats = tuple(np.array(flat, dtype=np.int64).reshape(2, 2)
                     for flat in _ROTATION_SETS[self.gamma_label])
        for m in mats:
            m.setflags(write=False)
        self.rotations = mats
        if self.lattice.parent != self.torus:
            raise GroupMismatchError("lattice is not inside the torus")
        if self.lattice.strides[0] != self.lattice.strides[1]:
            raise ValueError(
                f"lattice strides must be equal for rotation invariance, "
                f"got {self.lattice.strides}")
        if self.phi.group != self.torus or self.varphi.group != self.torus:
            raise GroupMismatchError("window and base generator must live on the torus")
        self._check_lattice_invariance()

    def _check_lattice_invariance(self) -> None:
        lattice_points = set(self.lattice.embedding_indices.tolist())
        coords = self.torus.coords_array[sorted(lattice_points)]
        for gamma in self.rotations:
            rotated = self.torus.ravel(coords @ gamma.T)
            if set(rotated.tolist()) != lattice_points:
                raise ValueError("a rotation does not map the lattice onto itself")

    @property
    def n_rotations(self) -> int:
        return len(self.rotations)

    def rotation_index(self, gamma) -> int:
        """Index of a rotation given as an index or a 2x2 integer matrix."""
        if isinstance(gamma, (int, np.integer)):
            if not 0 <= int(gamma) < self.n_rotations:
                raise ValueError(f"rotation index {gamma} outside the group "
                                 f"{self.gamma_label}")
            return int(gamma)
        arr = np.asarray(gamma, dtype=np.int64)
        for i, m in enumerate(self.rotations):
            if arr.shape == (2, 2) and np.array_equal(arr, m):
                return i
        raise ValueError(f"rotation {arr.tolist()} is not in the group {self.gamma_label}")

    def to_json_dict(self) -> dict:
        return {
            "type": "semidirect",
            "moduli": list(self.torus.moduli),
            "Gamma": self.gamma_label,
            "H_strides": list(self.lattice.strides),
            "phi": self.phi.to_json_dict(),
            "varphi": self.varphi.to_json_dict(),
        }


def rotate_sequence(model: SemidirectModel, gamma, f: GroupSequence) -> GroupSequence:
    """Pure rotation: (U(0, gamma) f)(t) = f(gamma^T t)."""
    idx = model.rotation_index(gamma)
    if f.group != model.torus:
        raise GroupMismatchError("sequence is not on the torus")
    src = model.torus.ravel(model.torus.coords_array @ model.rotations[idx])
    return GroupSequence(model.torus, f.values[src])


def quasi_regular_apply(model: SemidirectModel, shift, gamma,
                        f: GroupSequence) -> GroupSequence:
    """(U(s, gamma) f)(t) = f(gamma^T (t - s)); a pure index permutation."""
    idx = model.rotation_index(gamma)
    if f.group != model.torus:
        raise GroupMismatchError("sequence is not on the torus")
    if isinstance(shift, GroupElement):
        if shift.group != model.torus:
            raise GroupMismatchError("shift is not a torus element")
        s = np.asarray(shift.coords)
    else:
        s = np.asarray(tuple(int(c) for c in shift))
    src = model.torus.ravel((model.torus.coords_array - s) @ model.rotations[idx])
    return GroupSequence(model.torus, f.values[src])


def compose_group_law(model: SemidirectModel, a: tuple, b: tuple) -> tuple:
    """Group law on (shift, rotation-index) pairs: (s1 + g1 s2, g1 g2)."""
    (s1, g1), (s2, g2) = a, b
    i1, i2 = model.rotation_index(g1), model.rotation_index(g2)
    c1 = np.asarray(s1.coords if isinstance(s1, GroupElement) else tuple(s1))
    c2 = np.asarray(s2.coords if isinstance(s2, GroupElement) else tuple(s2))
    coords = c1 + model.rotations[i1] @ c2
    product = model.rotations[i1] @ model.rotations[i2]
    return (model.torus.element(tuple(int(c) for c in coords)),
            model.rotation_index(product))


@dataclass(eq=False)
class SemidirectReduction:
    """Translation-scenario data equivalent to a semidirect model.

    Generators are the rotated copies of the base generator, one per rotation;
    coefficients on the semidirect group (stored lattice-point-major as an
    array of shape (lattice order, rotations)) regroup into one component per
    rotation and back.
    """

    source: SemidirectModel
    model: TranslationModel

    def regroup(self, coefficients: np.ndarray) -> VectorSequence:
        arr = np.asarray(coefficients, dtype=np.complex128)
        kdim = self.model.subgroup.abstract_group.order
        n = self.model.n_generators
        if arr.shape != (kdim, n):
            raise DimensionMismatchError(
                f"expected coefficients of shape ({kdim}, {n}), got {arr.shape}")
        return VectorSequence(self.model.subgroup.abstract_group, arr.T)

    def ungroup(self, x: VectorSequence) -> np.ndarray:
        if x.group != self.model.subgroup.abstract_group:
            raise GroupMismatchError("coefficients are not on the abstract lattice")
        if x.n_components != self.model.n_generators:
            raise DimensionMismatchError("component count does not match the rotations")
        return x.values.T.copy()


def semidirect_reduce(model: SemidirectModel) -> SemidirectReduction:
    """Rewrite the semidirect scenario as a translation scenario on the torus."""
    generators = tuple(rotate_sequence(model, i, model.varphi)
                       for i in range(model.n_rotations))
    translation = TranslationModel(
        ambient=model.torus,
        phi=model.phi,
        subgroup=model.lattice,
        generators=generators,
    )
    return SemidirectReduction(source=model, model=translation)


def semidirect_analysis(model: SemidirectModel, f: GroupSequence) -> FunctionOnG:
    """Full correlation table F(s, gamma) = <f, U(s, gamma) phi>, one sector per rotation."""
    if f.group != model.torus:
        raise GroupMismatchError("input is not on the torus")
    rows = []
    for i in range(model.n_rotations):
        window = rotate_sequence(model, i, model.phi)
        rows.append(convolve(f, involution(window)).values)
    return FunctionOnG(model.torus, np.stack(rows))
