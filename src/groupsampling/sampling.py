"""End-to-end sampling pipeline: generalized samples, duals, reconstruction.

A sampling procedure couples a translation scenario with a stable convolution
system over the sampling subgroup.  Samples are the system applied to
expansion coefficients; reconstruction convolves them with a left inverse and
resynthesizes, or equivalently sums translated sampling functions, whose sum
gathers the samples' spectra over H at the restriction of each character of G.

Also covers the single-generator (Shannon-type) special case, regrouping over
a finite-index subgroup of the sampling group, the square-system
interpolation property, and the rotation-twisted scenario on a torus, which
never leaves the transfer domain: c^(k) is the model's kept fiber solve of the
signal's transform, its samples are A^(k) c^(k) per character k, and its
kernels' spectra are made with the sampling functions, so a signal costs one
transform each way.  A model with R windows reconstructs R sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .duals import (LeftInverse, _deviations, left_inverse_family, moore_penrose,
                    square_inverse, verify_left_inverse)
from .errors import DimensionMismatchError, GroupMismatchError
from .frames import LEFT_INVERSE_RESIDUAL_TOL, FrameDiagnostics, diagnostics, require_frame
from .groups import GroupSequence, ProductSubgroup
from .models import (FunctionOnG, SemidirectModel, TranslationModel, _coefficient_spectra,
                     analysis_transform, sample_matrix, synthesize)
from .systems import SequenceMatrix, TransferMatrix, VectorSequence, apply, transfer

SampleSet = VectorSequence


@dataclass(frozen=True, eq=False)
class SamplingFunctions:
    """Reconstruction kernels: one function on the ambient group per sample channel.

    ``betas`` are the synthesized dual columns and ``kernel_spectra`` the read-only
    (channels, windows, order) window spectra times the betas' transforms, made with them.
    """

    model: TranslationModel
    betas: tuple[GroupSequence, ...]
    kernel_spectra: np.ndarray

    @cached_property
    def functions(self) -> tuple[FunctionOnG, ...]:
        """The S_m, correlations of the betas with the windows, computed on first read."""
        return tuple(analysis_transform(self.model, beta) for beta in self.betas)


@dataclass(frozen=True, eq=False)
class SamplingProcedure:
    """A validated sampling procedure: model, system, diagnostics, left inverse."""

    model: TranslationModel
    system: SequenceMatrix
    diag: FrameDiagnostics
    dual: LeftInverse

    @property
    def n_channels(self) -> int:
        return self.system.rows

    @cached_property
    def sampling_functions(self) -> SamplingFunctions:
        return build_sampling_functions(self)


LEFT_INVERSE_KINDS = ("moore_penrose", "mp", "family", "square")  # "mp" = "moore_penrose"


def _resolve_dual(system: SequenceMatrix, left_inverse: str,
                  c: TransferMatrix | None, tol: float | None) -> LeftInverse:
    if left_inverse not in LEFT_INVERSE_KINDS:
        raise ValueError(f"unknown left inverse kind {left_inverse!r}")
    if left_inverse == "family":
        if c is None:
            raise ValueError("family left inverse needs the parameter matrices")
        return left_inverse_family(system, c, tol)
    if left_inverse == "square":
        return square_inverse(system, tol)
    return moore_penrose(system, tol)


def make_procedure(model: TranslationModel,
                   system: SequenceMatrix | None = None,
                   probes: list[GroupSequence] | None = None,
                   left_inverse: str = "moore_penrose",
                   c: TransferMatrix | None = None,
                   tol: float | None = None) -> SamplingProcedure:
    """Build and validate a sampling procedure.

    The system is either given directly over the abstract sampling group or
    derived from probe elements via :func:`sample_matrix`.  Raises when the
    frame condition fails or the chosen left inverse misses the identity.
    """
    if (system is None) == (probes is None):
        raise ValueError("provide exactly one of system or probes")
    if system is None:
        system = sample_matrix(model, probes)
    habs = model.subgroup.abstract_group
    if system.group != habs:
        raise GroupMismatchError("system does not live on the abstract sampling group")
    if system.cols != model.n_generators:
        raise DimensionMismatchError(
            f"system has {system.cols} columns but the model has "
            f"{model.n_generators} generators")
    diag = require_frame(system, tol)
    dual = _resolve_dual(system, left_inverse, c, tol)
    residual = verify_left_inverse(system, dual)
    if residual >= LEFT_INVERSE_RESIDUAL_TOL:
        worst = system.group.element_at(int(np.argmax(_deviations(system, dual))))
        raise diag.refusal(f"left inverse residual {residual:.3e} exceeds "
                           f"{LEFT_INVERSE_RESIDUAL_TOL:.0e}", worst.coords)
    return SamplingProcedure(model=model, system=system, diag=diag, dual=dual)


def take_samples(proc: SamplingProcedure, x: VectorSequence) -> SampleSet:
    """Generalized samples: the system applied to expansion coefficients."""
    return apply(proc.system, x)


def reconstruct_coefficients(proc: SamplingProcedure, samples: SampleSet) -> VectorSequence:
    """Recover coefficients by convolving samples with the left inverse."""
    if samples.n_components != proc.n_channels:
        raise DimensionMismatchError(
            f"expected {proc.n_channels} sample channels, got {samples.n_components}")
    return apply(proc.dual.coefficients, samples)


def build_sampling_functions(proc: SamplingProcedure) -> SamplingFunctions:
    """Reconstruction kernels S_m: correlations of the synthesized dual columns."""
    betas = tuple(synthesize(proc.model, proc.dual.coefficients.column(m))
                  for m in range(proc.n_channels))
    spectra = proc.model.ambient.fft(np.stack([b.values for b in betas]))
    kernels = proc.model.window_spectra[None] * spectra[:, None]
    kernels.setflags(write=False)
    return SamplingFunctions(model=proc.model, betas=betas, kernel_spectra=kernels)


def _sum_translates(proc: SamplingProcedure, sample_spectra: np.ndarray,
                    kernel_spectra) -> np.ndarray:
    """The sampling formula sum_m sum_h s_m(h) T_{embed(h)} K_m as one inverse transform.

    Samples placed on the lattice have at each character of G their transform over H at its
    restriction, so the (M, |H|) ``sample_spectra`` are gathered by restriction, multiply the
    M ``kernel_spectra``, each (..., |G|) (leading axes are a batch), and are summed over M in
    order, one kernel at a time, so that no (..., M, |G|) product is held.
    """
    spread = sample_spectra[:, proc.model.subgroup.restriction_indices]
    terms = (kernel * s for kernel, s in zip(kernel_spectra, spread))
    return proc.model.ambient.ifft(sum(terms, next(terms)))


def reconstruct_function(proc: SamplingProcedure, samples: SampleSet) -> FunctionOnG:
    """Sum of the sampling functions translated over the lattice, weighted by the samples."""
    if samples.n_components != proc.n_channels:
        raise DimensionMismatchError(
            f"expected {proc.n_channels} sample channels, got {samples.n_components}")
    if samples.group != proc.system.group:
        raise GroupMismatchError("samples are not on the abstract sampling group")
    g = proc.model.ambient
    kernels = g.fft(np.stack([s.values for s in proc.sampling_functions.functions]))
    return FunctionOnG(g, _sum_translates(proc, samples.group.fft(samples.values), kernels))


def shannon_procedure(model: TranslationModel, tol: float | None = None) -> SamplingProcedure:
    """Pointwise-sampling procedure for a single-generator model.

    The system is the scalar correlation of the generator against the window;
    stability requires its transform to stay away from zero at every
    character, and the characters where it vanishes are reported otherwise.
    """
    if model.n_generators != 1:
        raise DimensionMismatchError(
            f"pointwise-only sampling needs a single generator, got "
            f"{model.n_generators}")
    if len(model.window_spectra) != 1:
        raise DimensionMismatchError("pointwise-only sampling needs a single window")
    system = sample_matrix(model, [GroupSequence(model.ambient, model.phi.values)])
    diagnostics(system, tol).require_invertible(
        "pointwise sampling is unstable: the correlation transform vanishes "
        "at character {xi} (|value|={abs_det:.3e}); consider "
        "adding sample channels over a finite-index subgroup")
    return make_procedure(model, system=system, left_inverse="square", tol=tol)


@dataclass(frozen=True, eq=False)
class FiniteIndexReduction:
    """A model rewritten over a finite-index subgroup of its sampling group.

    The inner subgroup cuts the abstract sampling group; each original
    generator splits into one copy per coset representative (generator-major,
    coset-minor ordering), translated by the embedded representative.
    """

    base: TranslationModel
    inner: ProductSubgroup           # subgroup of the abstract sampling group
    model: TranslationModel          # regrouped model over the composed subgroup

    def regroup_coefficients(self, x: VectorSequence) -> VectorSequence:
        """x_{nl}(r) = x_n(rep_l + embed(r)); a pure re-indexing."""
        habs = self.base.subgroup.abstract_group
        if x.group != habs or x.n_components != self.base.n_generators:
            raise DimensionMismatchError("coefficients do not match the base model")
        rabs = self.inner.abstract_group
        return VectorSequence(rabs, x.values[:, self.inner.coset_indices].reshape(-1, rabs.order))

    def ungroup_coefficients(self, x: VectorSequence) -> VectorSequence:
        """Inverse re-indexing back to the base sampling group."""
        habs = self.base.subgroup.abstract_group
        n_base = self.base.n_generators
        if x.group != self.inner.abstract_group or x.n_components != n_base * self.inner.index:
            raise DimensionMismatchError("coefficients do not match the regrouped model")
        back = np.argsort(self.inner.coset_indices, axis=None)  # point -> (coset, r)
        return VectorSequence(habs, x.values.reshape(n_base, -1)[:, back])

    def regroup_system(self, a: SequenceMatrix) -> SequenceMatrix:
        """Columns split per coset: entry (m, nl)(v) = a_{m,n}(embed(v) - rep_l)."""
        habs = self.base.subgroup.abstract_group
        if a.group != habs or a.cols != self.base.n_generators:
            raise DimensionMismatchError("system does not match the base model")
        cosets = self.inner.coset_indices
        idx = habs.differences(cosets[0], cosets[:, 0]).T  # (l, v): embed(v) - rep_l
        return SequenceMatrix(self.inner.abstract_group,
                              a.values[:, :, idx].reshape(a.rows, a.cols * self.inner.index, -1))

    def downsample(self, samples: VectorSequence) -> VectorSequence:
        """Restrict sample sequences over the base group to the inner subgroup."""
        if samples.group != self.base.subgroup.abstract_group:
            raise GroupMismatchError("samples are not on the base sampling group")
        return VectorSequence(self.inner.abstract_group,
                              samples.values[:, self.inner.embedding_indices])


def finite_index_model(model: TranslationModel, inner_strides) -> FiniteIndexReduction:
    """Split the model's generators over the cosets of a finite-index subgroup."""
    inner = ProductSubgroup(model.subgroup.abstract_group, inner_strides)
    shifts = model.subgroup.embedding_indices[inner.coset_indices[:, 0]]  # embed(rep_l)
    translates = model.generator_translates(shifts).reshape(-1, model.ambient.order)
    regrouped = TranslationModel(
        ambient=model.ambient,
        phi=model.phi,
        subgroup=model.subgroup.refine(inner.strides),
        generators=tuple(GroupSequence(model.ambient, v) for v in translates),
    )
    return FiniteIndexReduction(base=model, inner=inner, model=regrouped)


def finite_index_procedure(model: TranslationModel, inner_strides,
                           system: SequenceMatrix | None = None,
                           probes: list[GroupSequence] | None = None,
                           left_inverse: str = "moore_penrose",
                           c: TransferMatrix | None = None,
                           tol: float | None = None) -> SamplingProcedure:
    """Sampling procedure over a finite-index subgroup of the sampling group.

    Needs at least generators * cosets sample channels; the returned
    procedure's model is the regrouped one from :func:`finite_index_model`.
    """
    red = finite_index_model(model, inner_strides)
    needed = model.n_generators * red.inner.index
    if system is not None or probes is not None:
        channels = system.rows if system is not None else len(probes)
        if channels < needed:
            raise DimensionMismatchError(
                f"need at least {needed} sample channels for {model.n_generators} "
                f"generators regrouped over {red.inner.index} cosets; got {channels}")
    return make_procedure(red.model, system=system, probes=probes,
                          left_inverse=left_inverse, c=c, tol=tol)


def interpolation_check(proc: SamplingProcedure) -> float:
    """Deviation of the sample functionals on translated kernels from Kronecker deltas.

    Only meaningful for square Riesz systems, where sampling functionals and
    sampling functions are biorthogonal across translates.
    """
    if proc.system.rows != proc.system.cols:
        raise DimensionMismatchError(
            f"interpolation needs a square system, got "
            f"{proc.system.rows}x{proc.system.cols}")
    if not proc.diag.is_riesz:
        raise proc.diag.refusal("interpolation needs a Riesz system (invertible at every "
                                "character)", proc.diag.singular_characters()[0])
    n = proc.system.rows
    worst = 0.0
    for n_prime in range(n):
        responses = apply(proc.system, proc.dual.coefficients.column(n_prime))
        target = np.zeros((n, proc.system.group.order))
        target[n_prime, 0] = 1.0
        worst = max(worst, float(np.abs(responses.values - target).max()))
    return worst


def _same_values(a, b) -> bool:
    """Same object, or equal values: a window and a stack of one are the same window."""
    return a is b or np.array_equal(a.values.ravel(), b.values.ravel())


def semidirect_sample_and_reconstruct(model: SemidirectModel,
                                      proc: SamplingProcedure,
                                      f: GroupSequence) -> FunctionOnG:
    """Reconstruct the full correlation table F(s, gamma) from lattice samples.

    The procedure must be built on the reduction of the model: its windows and
    generators are the model's rotated windows and generators (the same objects,
    or equal values).  Samples are taken only at the lattice with the trivial
    rotation; the reconstruction evaluates every torus point in every rotation
    sector, as :func:`reconstruct_function` does.  Only ``f`` is transformed: the fiber
    solves are kept on the procedure's model, the kernels' spectra on its sampling functions.
    """
    if proc.model.ambient != model.torus or proc.model.subgroup != model.lattice:
        raise GroupMismatchError("procedure was not built on this model's reduction")
    if proc.model.n_generators != model.n_rotations:
        raise DimensionMismatchError(
            "procedure generators do not match the rotation group")
    if not (_same_values(proc.model.phi, model.windows)
            and (proc.model.generators is model.generators
                 or all(map(_same_values, proc.model.generators, model.generators)))):
        raise GroupMismatchError("procedure was not built on this model's reduction")
    # samples: s^(k) = A^(k) c^(k) at each character k of H
    c_hat = _coefficient_spectra(proc.model, f)
    s_hat = np.matmul(transfer(proc.system).matrices, c_hat[:, :, None])[:, :, 0].T
    # kernel (m, i) is beta_m correlated with the window rotated into sector i
    return FunctionOnG(model.torus,
                       _sum_translates(proc, s_hat, proc.sampling_functions.kernel_spectra))

