"""Every stability refusal is a ``FrameConditionError`` whose ``xi`` is the character of its cause.

The causes differ by refusal: the character where the frame determinant ``delta``
is attained, the first singular character of a square system, the character of
the largest entry of B^(xi) A^(xi) - I, the character of H with the smallest fiber
Gram eigenvalue, and the character with the smallest |phi^(xi)|^2.  The square
system below is singular first at another character than the one where ``delta``
is, and the family dual misses the identity at another one still.
"""

import numpy as np
import pytest

from groupsampling import (FrameConditionError, GroupSequence, GroupSpec, LeftInverse,
                           ProductSubgroup, SamplingProcedure, SequenceMatrix,
                           SingularCharacterError, TransferMatrix, TranslationModel,
                           coefficients_of, diagnostics, from_transfer, idft,
                           interpolation_check, left_inverse_family, make_procedure,
                           moore_penrose, reproducing_kernel, shannon_procedure, square_inverse,
                           transfer)
from groupsampling.frames import require_frame

Z6, Z8 = GroupSpec((6,)), GroupSpec((8,))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _model(g, generators, phi=None, strides=(1,)):
    return TranslationModel(g, GroupSequence.delta(g) if phi is None else phi,
                            ProductSubgroup(g, strides), tuple(generators))


def _two_singular_characters():
    """A 2 x 2 system on Z6 that is singular at (1,), with |det| about 1e-7, and exactly
    at (4,): ``delta`` is attained at (4,), while the first singular character is (1,)."""
    rng = np.random.default_rng(4)
    mats = _complex(rng, (6, 2, 2))
    mats[1, :, 1] = mats[1, :, 0] + 1e-7 * _complex(rng, 2)
    mats[4, :, 1] = mats[4, :, 0]
    system = from_transfer(TransferMatrix(Z6, mats))
    d = diagnostics(system)
    assert d.singular_characters() == [(1,), (4,)] and d.worst_xi == (4,)
    return system


def _family_off_by_round_off():
    """A 3 x 2 system on Z8 whose family dual has a parameter of size 1e9 at (5,) only: its
    left inverse residual is round-off times 1e9 there, while ``delta`` is at (0,)."""
    rng = np.random.default_rng(1)
    system = SequenceMatrix(Z8, _complex(rng, (3, 2, 8)))
    c = np.zeros((8, 2, 3), dtype=np.complex128)
    c[5] = 1e9 * rng.standard_normal((2, 3))
    model = _model(Z8, [GroupSequence(Z8, rng.standard_normal(8)) for _ in range(2)])
    return model, system, TransferMatrix(Z8, c)


def _rank_deficient_fiber():
    """Two generators on Z8 sampled on stride 2 whose alias matrix has rank 1 at the
    character (1,) of H = Z4 only."""
    spectra = _complex(np.random.default_rng(6), (2, 8))
    aliases = ProductSubgroup(Z8, (2,)).alias_indices[1]
    spectra[1, aliases] = spectra[0, aliases]
    return _model(Z8, [idft(GroupSequence(Z8, s)) for s in spectra], strides=(2,))


def _window_nearly_vanishing_at_3():
    """A window on Z8 with |phi^|^2 = 1 everywhere except 1e-14 at (3,)."""
    spectrum = np.ones(8, dtype=np.complex128)
    spectrum[3] = 1e-7
    return _model(Z8, [GroupSequence.delta(Z8)], phi=idft(GroupSequence(Z8, spectrum)))


def _riesz_less(system, tol=None):
    """A procedure on a square system that is not a Riesz basis; its dual, which
    :func:`interpolation_check` never reads, is zero."""
    g, n = system.group, system.cols
    model = _model(g, [GroupSequence.delta(g, g.element_at(k)) for k in range(n)])
    dual = LeftInverse(TransferMatrix(g, np.zeros((g.order, n, n))), "moore_penrose")
    return SamplingProcedure(model=model, system=system, diag=diagnostics(system, tol), dual=dual)


def _largest_residual_character(system, dual):
    product = np.matmul(dual.transfer.matrices, transfer(system).matrices)
    worst = np.abs(product - np.eye(system.cols)).max(axis=(1, 2))
    return system.group.element_at(int(np.argmax(worst))).coords


def _refusals():
    """The call that is refused and the character that caused it, one per refusal."""
    two = _two_singular_characters()
    family_model, family_system, c = _family_off_by_round_off()
    vanishing = np.ones(6, dtype=np.complex128)
    vanishing[[2, 5]] = 0.0
    pointwise = _model(Z6, [idft(GroupSequence(Z6, vanishing))])
    fiber = _rank_deficient_fiber()
    return [
        pytest.param(lambda: require_frame(two), (4,), id="frame"),
        pytest.param(lambda: moore_penrose(two), (4,), id="moore_penrose"),
        pytest.param(lambda: square_inverse(two), (1,), id="square_inverse"),
        pytest.param(lambda: shannon_procedure(pointwise), (2,), id="pointwise"),
        pytest.param(lambda: make_procedure(family_model, system=family_system,
                                            left_inverse="family", c=c), (5,),
                     id="left_inverse_residual"),
        pytest.param(lambda: interpolation_check(_riesz_less(two)), (1,), id="interpolation"),
        pytest.param(lambda: coefficients_of(fiber, GroupSequence.delta(Z8)), (1,),
                     id="fiber_riesz"),
        pytest.param(lambda: reproducing_kernel(_window_nearly_vanishing_at_3()), (3,),
                     id="window"),
    ]


@pytest.mark.parametrize("call, cause", _refusals())
def test_every_refusal_is_a_frame_condition_error_naming_its_cause(call, cause):
    with pytest.raises(FrameConditionError) as err:
        call()
    assert err.value.xi == cause
    if isinstance(err.value, SingularCharacterError):
        assert err.value.xi == err.value.characters[0]


def test_left_inverse_refusal_names_the_largest_residual_character():
    model, system, c = _family_off_by_round_off()
    with pytest.raises(FrameConditionError,
                       match=r"^left inverse residual 8\.541e-07 exceeds 1e-09$") as err:
        make_procedure(model, system=system, left_inverse="family", c=c)
    d = diagnostics(system)
    assert (err.value.delta, err.value.tol) == (d.delta, d.tol)
    assert d.worst_xi == (0,) and err.value.xi == (5,)
    assert _largest_residual_character(system, left_inverse_family(system, c)) == (5,)


def test_interpolation_refusal_names_the_first_singular_character():
    proc = _riesz_less(_two_singular_characters())
    d = proc.diag
    with pytest.raises(FrameConditionError, match="needs a Riesz system") as err:
        interpolation_check(proc)
    assert err.value.xi == d.singular_characters()[0] == (1,)
    assert (err.value.delta, err.value.tol) == (d.delta, d.tol)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_a_nan_character_is_singular_and_named():
    """A NaN |det A^(xi)| is not above sqrt(tol): the Riesz verdict fails there, and the
    refusals name it, as they name any other singular character."""
    mats = _complex(np.random.default_rng(5), (6, 2, 2))
    mats[2, 0, 0] = np.nan
    system = from_transfer(TransferMatrix(Z6, mats))
    d = diagnostics(system, 1e-10)
    assert not d.is_riesz and d.singular_characters() == [(2,)]
    with pytest.raises(SingularCharacterError) as err:
        square_inverse(system, 1e-10)
    assert err.value.xi == (2,)
    with pytest.raises(FrameConditionError, match="needs a Riesz system") as err:
        interpolation_check(_riesz_less(system, 1e-10))
    assert err.value.xi == (2,)
