"""Concrete unitary-representation scenarios generating the sampled subspaces.

Two scenarios are provided:

* translation on the sequence space of a finite abelian group, where the
  representation is U(t) x = x(. - t) and the sampled subspace is spanned by
  subgroup translates of a generator set, whose Gram splits into one N x N
  fiber Gram per character of the subgroup; the model keeps the alias matrices,
  whose spectrum ``frames`` caches, and their pseudo-inverses, the fiber solves;
* the quasi-regular representation of a finite rotation group acting on a
  square torus, U(s, gamma) f(t) = f(gamma^T (t - s)) = (T_s R_gamma f)(t),
  which reduces to a translation model with one rotated generator and one
  rotated window per rotation, whose analysis has one sector per window.  The
  action permutes the torus points: the model gathers its windows and
  generators through its one table, ``rotation_perms``.

Inner products use counting measure: <f, g> = sum f * conj(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapExceededError, DimensionMismatchError, GroupMismatchError
from .duals import _pseudo_inverse
from .frames import DEFAULT_ORACLE_CAP, _rank_deficient, _spectrum, require_rank
from .groups import (GroupElement, GroupSequence, GroupSpec, ProductSubgroup, _same_group,
                     convolve, involution)
from .systems import SequenceMatrix, TransferMatrix, VectorSequence

_ROTATION_SETS = {
    "C1": ((1, 0, 0, 1),),
    "C2": ((1, 0, 0, 1), (-1, 0, 0, -1)),
    "C4": ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)),
}


# a function table on the group, one sector per analysis window: a one-window model's
# table has one sector, a semidirect reduction's one per rotation (domain group x rotations)
FunctionOnG = VectorSequence


@dataclass(frozen=True, eq=False)
class TranslationModel:
    """Translation representation on a finite abelian group.

    Holds the analysis windows, the sampling subgroup and the generator set of
    the invariant subspace.  ``phi`` is one window, or an (R, order) stack of R
    windows whose analysis has one sector each.  Construction validates shapes;
    the windows' spectra, the fibers (alias matrices), their Riesz bounds and their
    pseudo-inverses (``coefficient_operator``) need no signal, so each is kept from its
    first use.
    """

    ambient: GroupSpec
    phi: GroupSequence | VectorSequence
    subgroup: ProductSubgroup
    generators: tuple[GroupSequence, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
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

    def generator_translates(self, points: np.ndarray) -> np.ndarray:
        """(N, len(points), order) values of each generator translated by each ambient point."""
        diff = self.ambient.differences(slice(None), points)  # index of g - p
        return np.stack([gen.values for gen in self.generators])[:, diff.T]

    @cached_property
    def fibers(self) -> TransferMatrix:
        """The (|H|, index, N) alias matrices T over H; row a of T[k] holds the generators'
        transforms at the a-th alias of character k.  The Gram of the generator translates
        is a convolution on H, so the transform over H splits it into one N x N fiber Gram
        T* T / index per character (Bownik, J. Funct. Anal. 177, 2000)."""
        spectra = self.ambient.fft(np.stack([gen.values for gen in self.generators]))
        return TransferMatrix(self.subgroup.abstract_group,
                              spectra[:, self.subgroup.alias_indices].transpose(1, 2, 0))

    @cached_property
    def riesz_bounds(self) -> tuple[float, float, int]:
        """Extreme fiber Gram eigenvalues, and the character of H where the smallest is attained."""
        eigs = _spectrum(self.fibers)[1] / self.subgroup.index
        return float(eigs[:, 0].min()), float(eigs[:, -1].max()), int(np.argmin(eigs[:, 0]))

    @cached_property
    def coefficient_operator(self) -> np.ndarray:
        """Read-only (|H|, N, index) fiber pseudo-inverses T^dagger: one per character of H."""
        op = _pseudo_inverse(self.fibers)
        op.setflags(write=False)
        return op

    @cached_property
    def window_spectra(self) -> np.ndarray:
        """Read-only (windows, order) conjugated transforms of the windows."""
        spectra = np.conj(self.ambient.fft(self.phi.values.reshape(-1, self.ambient.order)))
        spectra.setflags(write=False)
        return spectra

    @cached_property
    def window_spectrum(self) -> np.ndarray:
        """sum_i |phi_i^(xi)|^2 per character: the eigenvalues of the window frame operator."""
        return (np.abs(self.window_spectra) ** 2).sum(axis=0)

    @property
    def window_bounds(self) -> tuple[float, float]:
        """Frame bounds of the window translates over the whole group.

        These are the extreme values of |phi^|^2 over all characters; the
        family spans the full space when the lower bound passes the rank rule.
        """
        return (float(self.window_spectrum.min()), float(self.window_spectrum.max()))

    @property
    def window_spans_everything(self) -> bool:
        """The verdict of :func:`reproducing_kernel`: the rank rule on :attr:`window_bounds`."""
        return not _rank_deficient(*self.window_bounds)

    def to_json_dict(self) -> dict:
        if self.phi.values.size != self.ambient.order:
            raise DimensionMismatchError("a stack of windows: only one-window models serialize")
        return {
            "type": "translation",
            "moduli": list(self.ambient.moduli),
            "H_strides": list(self.subgroup.strides),
            "phi": GroupSequence(self.ambient, self.phi.values).to_json_dict(),
            "generators": [g.to_json_dict() for g in self.generators],
        }


def analysis_transform(model: TranslationModel, f: GroupSequence) -> FunctionOnG:
    """Correlation against window translates, F_i(t) = sum_s f(s) conj(phi_i(s - t)), one
    sector per window, from one exact convolution of f stacked against the windows."""
    if f.group != model.ambient:
        raise GroupMismatchError("input is not on the ambient group")
    stack = type(model.phi)(model.ambient, np.broadcast_to(f.values, model.phi.values.shape))
    return FunctionOnG(model.ambient, convolve(stack, involution(model.phi)).values)


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


def riesz_sequence_check(model: TranslationModel,
                         cap: int = DEFAULT_ORACLE_CAP) -> tuple[float, float]:
    """Extreme eigenvalues of the dense Gram matrix of the generator translates.

    Brute-force oracle for the fiber Grams of :func:`coefficients_of`; refuses
    Gram matrices with more than ``cap`` columns.
    """
    size = model.subgroup.abstract_group.order * model.n_generators
    if size > cap:
        raise CapExceededError(f"Gram matrix would be {size}x{size}, cap is {cap}")
    cols = model.generator_translates(model.subgroup.embedding_indices).reshape(size, -1).T
    eigs = np.linalg.eigvalsh(cols.conj().T @ cols)
    return (float(eigs[0]), float(eigs[-1]))


def _coefficient_spectra(model: TranslationModel, f: GroupSequence) -> np.ndarray:
    """(|H|, N) transforms over H of the expansion coefficients: the kept fiber solves of f^."""
    if f.group != model.ambient:
        raise GroupMismatchError("input is not on the ambient group")
    require_rank("generator translates are not a Riesz sequence (Gram eigenvalues span {span})",
                 model.subgroup.abstract_group, *model.riesz_bounds)
    fhat = model.ambient.fft(f.values)[model.subgroup.alias_indices, None]  # (k, alias, 1)
    return np.matmul(model.coefficient_operator, fhat)[:, :, 0]


def coefficients_of(model: TranslationModel, f: GroupSequence) -> VectorSequence:
    """Expansion coefficients of a member of the generated subspace.

    Inverse-transforms :func:`_coefficient_spectra`, which applies the fiber solves kept on
    the model and tests on every call that the generator translates are a Riesz sequence,
    whose bounds are the extreme fiber eigenvalues.  For f outside the subspace this
    returns the coefficients of its orthogonal projection.
    """
    habs = model.subgroup.abstract_group
    return VectorSequence(habs, habs.ifft(_coefficient_spectra(model, f).T))


@dataclass(frozen=True)
class ReproducingKernel:
    """Kernel k(u, v) of the window-correlation function space.

    :func:`reproducing_kernel` only returns it when the window translates span
    the whole space, so the kernel is the identity and no table is stored.
    """

    group: GroupSpec

    @property
    def matrix(self) -> np.ndarray:
        """The (order, order) table k[u, v], built on each access."""
        return np.eye(self.group.order, dtype=np.complex128)

    def reproduce(self, f: FunctionOnG) -> FunctionOnG:
        """Evaluate u -> sum_v f(v) k(u, v): a copy of f."""
        if f.group != self.group:
            raise GroupMismatchError("function lives on a different group")
        return FunctionOnG(self.group, f.values)

    def residual(self, f: FunctionOnG) -> float:
        return (self.reproduce(f) - f).max_abs()


def reproducing_kernel(model: TranslationModel) -> ReproducingKernel:
    """Kernel k(u, v) = <window(v), S^{-1} window(u)> of the window frame operator S.

    S is a convolution with eigenvalues |phi^(xi)|^2, which must stay away from
    zero.  Then the translates, one per group element, span the whole space, so
    the kernel projects onto all of it: with psi the invertible matrix of
    translates, psi* (psi psi*)^{-1} psi = I, returned without forming S.
    """
    if len(model.window_spectra) != 1:
        raise DimensionMismatchError("the kernel of several windows is a projection, not I")
    require_rank("window frame operator is singular (eigenvalues span {span}); the window "
                 "translates do not span the whole space", model.ambient, *model.window_bounds,
                 int(np.argmin(model.window_spectrum)))
    return ReproducingKernel(model.ambient)


@dataclass(frozen=True, eq=False)
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
        mats = np.array(_ROTATION_SETS[self.gamma_label], dtype=np.int64).reshape(-1, 2, 2)
        mats.setflags(write=False)  # so is each matrix, a view of it
        object.__setattr__(self, "rotations", tuple(mats))
        if self.lattice.parent != self.torus:
            raise GroupMismatchError("lattice is not inside the torus")
        if self.lattice.strides[0] != self.lattice.strides[1]:
            raise ValueError(
                f"lattice strides must be equal for rotation invariance, "
                f"got {self.lattice.strides}")
        if self.phi.group != self.torus or self.varphi.group != self.torus:
            raise GroupMismatchError("window and base generator must live on the torus")

    @property
    def n_rotations(self) -> int:
        return len(self.rotations)

    @cached_property
    def rotation_perms(self) -> np.ndarray:
        """Read-only (rotations, order) gather table: row i holds the index of gamma_i^T t."""
        t = self.torus.coords_array.T  # one column per point: numpy loops over the points
        perms = np.stack([self.torus.ravel((m.T @ t).T) for m in self.rotations])
        perms.setflags(write=False)
        return perms

    @cached_property
    def generators(self) -> tuple[GroupSequence, ...]:
        """The base generator rotated into each sector: the generators of the reduction."""
        return tuple(GroupSequence(self.torus, v) for v in self.varphi.values[self.rotation_perms])

    @cached_property
    def windows(self) -> VectorSequence:
        """The window rotated into each sector: the windows of the reduction."""
        return VectorSequence(self.torus, self.phi.values[self.rotation_perms])

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


def rotate_sequence(model: SemidirectModel, gamma, f: GroupSequence) -> GroupSequence:
    """Pure rotation: (U(0, gamma) f)(t) = f(gamma^T t)."""
    return quasi_regular_apply(model, (0, 0), gamma, f)


def quasi_regular_apply(model: SemidirectModel, shift, gamma,
                        f: GroupSequence) -> GroupSequence:
    """(U(s, gamma) f)(t) = f(gamma^T (t - s)): the rotation's table row gathered at t - s."""
    idx = model.rotation_index(gamma)
    _same_group(f.group, model.torus, "sequence is not on the torus")
    if not isinstance(shift, GroupElement):
        shift = model.torus.element(tuple(shift))
    src = model.rotation_perms[idx][model.torus.translation_perm(shift)]
    return GroupSequence(model.torus, f.values[src])


def compose_group_law(model: SemidirectModel, a: tuple, b: tuple) -> tuple:
    """Group law on (shift, rotation-index) pairs: (s1 + g1 s2, g1 g2)."""
    (s1, g1), (s2, g2) = a, b
    i1, i2 = model.rotation_index(g1), model.rotation_index(g2)
    c1 = np.asarray(s1.coords if isinstance(s1, GroupElement) else tuple(s1))
    c2 = np.asarray(s2.coords if isinstance(s2, GroupElement) else tuple(s2))
    r1 = model.rotations[i1]
    return (model.torus.element(tuple(c1 + r1 @ c2)),
            model.rotation_index(r1 @ model.rotations[i2]))


@dataclass(frozen=True, eq=False)
class SemidirectReduction:
    """A semidirect model and the translation model it reduces to.

    The translation model's generators are the rotated copies of the base
    generator and its windows the rotated copies of the window, one per
    rotation, so coefficient component i is the rotation-i sector of the
    semidirect group's coefficients.
    """

    source: SemidirectModel
    model: TranslationModel


def semidirect_reduce(model: SemidirectModel) -> SemidirectReduction:
    """Rewrite the semidirect scenario as a translation scenario on the torus."""
    translation = TranslationModel(
        ambient=model.torus,
        phi=model.windows,
        subgroup=model.lattice,
        generators=model.generators,
    )
    return SemidirectReduction(source=model, model=translation)


def semidirect_analysis(model: SemidirectModel, f: GroupSequence) -> FunctionOnG:
    """Full correlation table F(s, gamma) = <f, U(s, gamma) phi>, one sector per rotation:
    the analysis of the reduction, whose windows are the rotated windows."""
    return analysis_transform(semidirect_reduce(model).model, f)
