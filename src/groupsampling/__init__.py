"""Stable sampling and exact reconstruction over finite abelian groups.

Build convolution sampling systems on finite abelian groups, verify their
stability character by character, synthesize dual (left-inverse) systems and
reconstruct functions in shift-invariant subspaces from generalized samples,
including sampling at finite-index subgroups and a rotation-twisted scenario
on a square torus.
"""

from .errors import (CapExceededError, DimensionMismatchError, FrameConditionError,
                     GroupMismatchError, SchemaError, SingularCharacterError)
from .groups import (Character, GroupElement, GroupSequence, GroupSpec, ProductSubgroup,
                     add, character_value, convolve, convolve_fft, coset_representatives,
                     dft, idft, involution, neg)
from .systems import (SequenceMatrix, TransferMatrix, VectorSequence, adjoint_system,
                      apply, compose, from_transfer, transfer)
from .frames import (FrameDiagnostics, GRAM_BOUND_SCALE, check_determinant_sandwich,
                     diagnostics, kernel_witness, oracle_frame_bounds)
from .duals import (LeftInverse, left_inverse_family, moore_penrose, square_inverse,
                    verify_left_inverse)
from .models import (FunctionOnG, ReproducingKernel, SemidirectModel, SemidirectReduction,
                     TranslationModel, analysis_transform, coefficients_of,
                     compose_group_law, quasi_regular_apply, reproducing_kernel,
                     riesz_sequence_check, rotate_sequence, sample_matrix,
                     semidirect_analysis, semidirect_reduce, synthesize)
from .sampling import (FiniteIndexReduction, SampleSet, SamplingFunctions,
                       SamplingProcedure, build_sampling_functions, finite_index_model,
                       finite_index_procedure, interpolation_check, make_procedure,
                       reconstruct_coefficients, reconstruct_function,
                       semidirect_sample_and_reconstruct, shannon_procedure, take_samples)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
