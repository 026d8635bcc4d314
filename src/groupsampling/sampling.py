"""End-to-end sampling pipeline: generalized samples, duals, reconstruction.

A sampling procedure couples a translation scenario with a stable convolution
system over the sampling subgroup.  Samples are the system applied to
expansion coefficients; reconstruction convolves them with a left inverse and
resynthesizes, or equivalently sums translated sampling functions.

Also covers the single-generator (Shannon-type) special case, regrouping over
a finite-index subgroup of the sampling group, the square-system
interpolation property, and the rotation-twisted scenario on a torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .duals import (LeftInverse, left_inverse_family, moore_penrose, square_inverse,
                    verify_left_inverse)
from .errors import (DimensionMismatchError, FrameConditionError, GroupMismatchError,
                     SingularCharacterError)
from .frames import FrameDiagnostics, diagnostics
from .groups import (GroupElement, GroupSequence, ProductSubgroup, convolve_fft,
                     coset_representatives, involution)
from .models import (FunctionOnG, SemidirectModel, TranslationModel,
                     analysis_transform, coefficients_of, rotate_sequence,
                     sample_matrix, synthesize)
from .systems import SequenceMatrix, TransferMatrix, VectorSequence, apply, transfer

# Procedure-level invariant: the chosen left inverse must satisfy the
# per-character identity at least this tightly.
LEFT_INVERSE_RESIDUAL_TOL = 1e-9

SampleSet = VectorSequence


@dataclass(eq=False)
class SamplingFunctions:
    """Reconstruction kernels: one function on the ambient group per sample channel."""

    functions: tuple[FunctionOnG, ...]
    betas: tuple[GroupSequence, ...]
    coefficient_frame_bounds: tuple[float, float]


@dataclass(eq=False)
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

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "system": self.system.to_json_dict(),
            "diagnostics": self.diag.to_json_dict(),
            "dual": self.dual.to_json_dict(),
        }


def _resolve_dual(system: SequenceMatrix, left_inverse: str,
                  c: TransferMatrix | None, tol: float | None) -> LeftInverse:
    if left_inverse in ("moore_penrose", "mp"):
        return moore_penrose(system, tol)
    if left_inverse == "family":
        if c is None:
            raise ValueError("family left inverse needs the parameter matrices")
        return left_inverse_family(system, c, tol)
    if left_inverse == "square":
        return square_inverse(system, tol)
    raise ValueError(f"unknown left inverse kind {left_inverse!r}")


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
    diag = diagnostics(system, tol)
    if not diag.is_frame:
        raise FrameConditionError(
            f"sampling system is not stable: determinant infimum "
            f"delta={diag.delta:.6e} not above tolerance {diag.tol:.6e}",
            delta=diag.delta, tol=diag.tol)
    dual = _resolve_dual(system, left_inverse, c, tol)
    residual = verify_left_inverse(system, dual)
    if residual >= LEFT_INVERSE_RESIDUAL_TOL:
        raise FrameConditionError(
            f"left inverse residual {residual:.3e} exceeds "
            f"{LEFT_INVERSE_RESIDUAL_TOL:.0e}", delta=diag.delta, tol=diag.tol)
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
    betas = []
    functions = []
    for m in range(proc.n_channels):
        beta = synthesize(proc.model, proc.dual.coefficients.column(m))
        betas.append(beta)
        functions.append(analysis_transform(proc.model, beta))
    b = proc.dual.transfer.matrices
    outer = np.matmul(b, np.conj(b.transpose(0, 2, 1)))
    eigs = np.linalg.eigvalsh(outer)
    bounds = (float(eigs[:, 0].min()), float(eigs[:, -1].max()))
    return SamplingFunctions(functions=tuple(functions), betas=tuple(betas),
                             coefficient_frame_bounds=bounds)


def _sum_translates(proc: SamplingProcedure, samples: SampleSet,
                    kernels: np.ndarray) -> np.ndarray:
    """The sampling formula sum_m sum_h s_m(h) T_{embed(h)} K_m as one convolution.

    The samples are placed on the embedded lattice; their spectra multiply
    those of the kernels K_m, stacked on the second-to-last axis of
    ``kernels`` (leading axes are a batch), and are summed over channels.
    """
    g = proc.model.ambient
    upsampled = np.zeros((proc.n_channels, g.order), dtype=np.complex128)
    upsampled[:, proc.model.subgroup.embedding_indices] = samples.values
    return g.ifft((g.fft(kernels) * g.fft(upsampled)).sum(axis=-2))


def reconstruct_function(proc: SamplingProcedure, samples: SampleSet) -> FunctionOnG:
    """Sum of the sampling functions translated over the lattice, weighted by the samples."""
    if samples.n_components != proc.n_channels:
        raise DimensionMismatchError(
            f"expected {proc.n_channels} sample channels, got {samples.n_components}")
    kernels = np.stack([s.flat() for s in proc.sampling_functions.functions])
    return FunctionOnG(proc.model.ambient, _sum_translates(proc, samples, kernels))


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
    system = sample_matrix(model, [model.phi])
    diag = diagnostics(system, tol)
    mags = np.abs(transfer(system).matrices[:, 0, 0])
    threshold = diag.riesz_tol()
    bad = np.nonzero(mags <= threshold)[0]
    if bad.size:
        coords = system.group.coords_array
        offenders = [tuple(int(c) for c in coords[k]) for k in bad]
        raise SingularCharacterError(
            f"pointwise sampling is unstable: the correlation transform vanishes "
            f"at character {offenders[0]} (|value|={mags[bad[0]]:.3e}); consider "
            f"adding sample channels over a finite-index subgroup", offenders)
    return make_procedure(model, system=system, left_inverse="square", tol=tol)


@dataclass(eq=False)
class FiniteIndexReduction:
    """A model rewritten over a finite-index subgroup of its sampling group.

    The inner subgroup cuts the abstract sampling group; each original
    generator splits into one copy per coset representative (generator-major,
    coset-minor ordering), translated by the embedded representative.
    """

    base: TranslationModel
    inner: ProductSubgroup           # subgroup of the abstract sampling group
    model: TranslationModel          # regrouped model over the composed subgroup
    coset_reps: tuple[GroupElement, ...]

    @property
    def cosets(self) -> int:
        return self.inner.index

    @cached_property
    def _regroup_indices(self) -> np.ndarray:
        """(cosets, inner order) indices into the abstract sampling group."""
        habs = self.base.subgroup.abstract_group
        rows = []
        for rep in self.coset_reps:
            coords = self.inner.abstract_group.coords_array * np.asarray(self.inner.strides)
            rows.append(habs.ravel(coords + np.asarray(rep.coords)))
        return np.stack(rows)

    def regroup_coefficients(self, x: VectorSequence) -> VectorSequence:
        """x_{nl}(r) = x_n(rep_l + embed(r)); a pure re-indexing."""
        habs = self.base.subgroup.abstract_group
        if x.group != habs or x.n_components != self.base.n_generators:
            raise DimensionMismatchError("coefficients do not match the base model")
        idx = self._regroup_indices
        rows = [x.values[n][idx[l]]
                for n in range(self.base.n_generators) for l in range(self.cosets)]
        return VectorSequence(self.inner.abstract_group, np.stack(rows))

    def ungroup_coefficients(self, x: VectorSequence) -> VectorSequence:
        """Inverse re-indexing back to the base sampling group."""
        habs = self.base.subgroup.abstract_group
        n_base = self.base.n_generators
        if x.group != self.inner.abstract_group or x.n_components != n_base * self.cosets:
            raise DimensionMismatchError("coefficients do not match the regrouped model")
        idx = self._regroup_indices
        out = np.empty((n_base, habs.order), dtype=np.complex128)
        for n in range(n_base):
            for l in range(self.cosets):
                out[n][idx[l]] = x.values[n * self.cosets + l]
        return VectorSequence(habs, out)

    def regroup_system(self, a: SequenceMatrix) -> SequenceMatrix:
        """Columns split per coset: entry (m, nl)(v) = a_{m,n}(embed(v) - rep_l)."""
        habs = self.base.subgroup.abstract_group
        if a.group != habs or a.cols != self.base.n_generators:
            raise DimensionMismatchError("system does not match the base model")
        rabs = self.inner.abstract_group
        emb_coords = rabs.coords_array * np.asarray(self.inner.strides)
        values = np.empty((a.rows, a.cols * self.cosets, rabs.order), dtype=np.complex128)
        for l, rep in enumerate(self.coset_reps):
            idx = habs.ravel(emb_coords - np.asarray(rep.coords))
            for n in range(a.cols):
                values[:, n * self.cosets + l, :] = a.values[:, n, idx]
        return SequenceMatrix(rabs, values)

    def downsample(self, samples: VectorSequence) -> VectorSequence:
        """Restrict sample sequences over the base group to the inner subgroup."""
        if samples.group != self.base.subgroup.abstract_group:
            raise GroupMismatchError("samples are not on the base sampling group")
        idx = self._regroup_indices[0]  # representative 0 is the identity coset
        return VectorSequence(self.inner.abstract_group, samples.values[:, idx])


def finite_index_model(model: TranslationModel, inner_strides) -> FiniteIndexReduction:
    """Split the model's generators over the cosets of a finite-index subgroup."""
    habs = model.subgroup.abstract_group
    inner = ProductSubgroup(habs, tuple(int(e) for e in inner_strides))
    reps = tuple(coset_representatives(inner))
    composed = model.subgroup.refine(inner.strides)
    generators = []
    for gen in model.generators:
        for rep in reps:
            generators.append(gen.shift(model.subgroup.embed(rep)))
    regrouped = TranslationModel(
        ambient=model.ambient,
        phi=model.phi,
        subgroup=composed,
        generators=tuple(generators),
    )
    return FiniteIndexReduction(base=model, inner=inner, model=regrouped, coset_reps=reps)


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
    needed = model.n_generators * red.cosets
    if system is not None or probes is not None:
        channels = system.rows if system is not None else len(probes)
        if channels < needed:
            raise DimensionMismatchError(
                f"need at least {needed} sample channels for {model.n_generators} "
                f"generators regrouped over {red.cosets} cosets; got {channels}")
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
        raise FrameConditionError(
            "interpolation needs a Riesz system (invertible at every character)",
            delta=proc.diag.delta, tol=proc.diag.tol)
    n = proc.system.rows
    worst = 0.0
    for n_prime in range(n):
        responses = apply(proc.system, proc.dual.coefficients.column(n_prime))
        target = np.zeros((n, proc.system.group.order))
        target[n_prime, 0] = 1.0
        worst = max(worst, float(np.abs(responses.values - target).max()))
    return worst


def semidirect_sample_and_reconstruct(model: SemidirectModel,
                                      proc: SamplingProcedure,
                                      f: GroupSequence) -> FunctionOnG:
    """Reconstruct the full correlation table F(s, gamma) from lattice samples.

    The procedure must be built on the reduction of the model (rotated
    generators over the lattice).  Samples are taken only at the lattice with
    the trivial rotation; the reconstruction evaluates every torus point in
    every rotation sector.
    """
    if proc.model.ambient != model.torus or proc.model.subgroup != model.lattice:
        raise GroupMismatchError("procedure was not built on this model's reduction")
    if proc.model.n_generators != model.n_rotations:
        raise DimensionMismatchError(
            "procedure generators do not match the rotation group")
    samples = take_samples(proc, coefficients_of(proc.model, f))
    # kernel (i, m) is beta_m correlated with the window rotated into sector i
    windows = SequenceMatrix(model.torus,
                             [[involution(rotate_sequence(model, i, model.phi)).values]
                              for i in range(model.n_rotations)])
    kernels = convolve_fft(windows, VectorSequence.from_components(proc.sampling_functions.betas))
    return FunctionOnG(model.torus, _sum_translates(proc, samples, kernels.values))
