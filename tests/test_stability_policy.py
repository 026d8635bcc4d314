"""One stability policy: every verdict, singular character and frame error from one place.

The determinant of the spectral Gram A^(xi)* A^(xi) at a character is the
product of its eigenvalues; ``delta`` is its minimum and decides the frame
verdict.  A square system is a Riesz basis when no A^(xi) is singular, which is
read off |det A^(xi)| against sqrt(tol).  These properties check both verdicts
against oracles computed another way (singular values, known singular
characters), that the square inverse, pointwise sampling and the frame errors
report what the diagnostics say, and that an explicit tolerance is an absolute
threshold.  The noise property checks stability in the paper's sense: noise in
the samples is amplified by at most the square root of the dual's upper frame
bound.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupsampling import (FrameConditionError, GroupSequence, GroupSpec, ProductSubgroup,
                           SingularCharacterError, TransferMatrix, TranslationModel,
                           VectorSequence, diagnostics, from_transfer, idft,
                           left_inverse_family, make_procedure, moore_penrose,
                           reconstruct_coefficients, sample_matrix, shannon_procedure,
                           square_inverse, take_samples, transfer)
from groupsampling.frames import require_frame


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def systems(draw, square=None):
    """A random system on 1-2 cyclic factors: generic, all zero, or with a duplicated column.

    Returns the system, its kind and the index of the character where a column
    is duplicated (None unless the kind is ``duplicate``).
    """
    moduli = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    g = GroupSpec(moduli)
    cols = draw(st.integers(1, 3))
    if square is None:
        square = draw(st.booleans())
    rows = cols if square else cols + draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = _complex(rng, (g.order, rows, cols)) * 10.0 ** draw(st.floats(-3, 3))
    kind = draw(st.sampled_from(("generic", "zero", "duplicate")))
    singular_at = None
    if kind == "zero":
        mats[:] = 0.0
    elif kind == "duplicate" and cols > 1:
        # rank deficient at one character only, as in test_frame_condition
        singular_at = draw(st.integers(0, g.order - 1))
        mats[singular_at, :, 1] = mats[singular_at, :, 0]
    return from_transfer(TransferMatrix(g, mats)), kind, singular_at


def _tolerance(draw, d):
    """None (the default threshold), zero, or an explicit threshold near delta."""
    choice = draw(st.sampled_from(("default", "zero", "below", "above")))
    if choice == "default":
        return None
    if choice == "zero":
        return 0.0
    return d.delta * (0.5 if choice == "below" else 2.0)


def _gram_determinants(d):
    return d.eigenvalues.prod(axis=1)


def _coords(d, indices):
    return [tuple(int(c) for c in d.group.coords_array[k]) for k in indices]


def _determinant_oracle(a):
    """|det A^(xi)| as a product of singular values, and a bound on its round-off.

    The bound is 1e-13 times Hadamard's bound (the product of the column
    norms), a few hundred ulps of the largest determinant the columns allow.
    """
    t = transfer(a).matrices
    dets = np.linalg.svd(t, compute_uv=False).prod(axis=1)
    return dets, 1e-13 * np.linalg.norm(t, axis=1).prod(axis=1)


@given(systems(), st.data())
@settings(max_examples=120, deadline=None)
def test_frame_verdict_read_off_the_eigenvalue_products(drawn, data):
    a, kind, _ = drawn
    tol = _tolerance(data.draw, diagnostics(a))
    d = diagnostics(a, tol)
    dets = _gram_determinants(d)
    assert d.delta == dets.min()
    assert d.is_frame == (d.delta > d.tol)
    assert d.worst_xi == _coords(d, [int(np.argmin(dets))])[0]
    if kind == "zero":
        assert not d.is_frame and not d.is_riesz
    if a.rows != a.cols:
        assert not d.is_riesz


@given(systems(square=True), st.data())
@settings(max_examples=150, deadline=None)
def test_singular_characters_match_a_singular_value_determinant(drawn, data):
    a, kind, singular_at = drawn
    tol = _tolerance(data.draw, diagnostics(a))
    d = diagnostics(a, tol)
    singular = d.singular_characters()
    assert d.is_riesz == (not singular)
    every = _coords(d, range(a.group.order))
    if kind == "zero":
        assert singular == every
    dets, roundoff = _determinant_oracle(a)
    threshold = np.sqrt(d.tol)
    for xi, det, err in zip(every, dets, roundoff):
        if det + err < threshold / 1.1:
            assert xi in singular
        if det - err > threshold * 1.1:
            assert xi not in singular
    if singular_at is not None and threshold > roundoff[singular_at]:
        # the duplicated column makes A^(xi) exactly singular there
        assert every[singular_at] in singular


@given(systems(square=True), st.data())
@settings(max_examples=80, deadline=None)
def test_square_inverse_reports_exactly_the_singular_characters(drawn, data):
    a, _, singular_at = drawn
    tol = _tolerance(data.draw, diagnostics(a))
    d = diagnostics(a, tol)
    singular = d.singular_characters()
    if singular_at is not None and np.sqrt(d.tol) > _determinant_oracle(a)[1][singular_at]:
        assert singular
    if not singular:
        square_inverse(a, tol)
        return
    with pytest.raises(SingularCharacterError) as err:
        square_inverse(a, tol)
    assert err.value.characters == singular
    abs_det = d.abs_dets[d.group.element(singular[0]).index]
    assert str(err.value) == (f"transfer matrix is singular at character {singular[0]} "
                              f"(|det|={abs_det:.3e}, threshold {np.sqrt(d.tol):.3e})")


@pytest.mark.parametrize("scale", [1.0, 560.0, 1e3])
def test_large_singular_square_system_is_rejected_by_default(scale):
    # At scales 560 and 1e3 the eigenvalue product at the singular character
    # keeps round-off of about eps * beta^3, above the default threshold
    # 1e-10 * beta, so this system passes the frame verdict; the determinant
    # must still find the character.
    g = GroupSpec((3, 4))
    rng = np.random.default_rng(1)
    xi = (1, 2)
    mats = _complex(rng, (g.order, 3, 3)) * scale
    mats[g.element(xi).index, :, 1] = mats[g.element(xi).index, :, 0]
    system = from_transfer(TransferMatrix(g, mats))
    d = diagnostics(system)
    assert not d.is_riesz
    assert d.singular_characters() == [xi]
    with pytest.raises(SingularCharacterError) as err:
        square_inverse(system)
    assert err.value.characters == [xi]
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1, 1)),
                             tuple(GroupSequence(g, rng.standard_normal(g.order))
                                   for _ in range(3)))
    with pytest.raises((SingularCharacterError, FrameConditionError)) as err:
        make_procedure(model, system=system, left_inverse="square")
    if d.is_frame:
        assert err.type is SingularCharacterError and err.value.characters == [xi]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pointwise_sampling_reports_exactly_the_singular_characters(data):
    moduli = tuple(data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    g = GroupSpec(moduli)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # the generator's spectrum vanishes at the drawn characters
    spectrum = _complex(rng, g.order)
    zeros = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3, unique=True))
    spectrum[zeros] = 0.0
    gen = idft(GroupSequence(g, spectrum))
    model = TranslationModel(g, GroupSequence(g, _complex(rng, g.order)),
                             ProductSubgroup(g, (1,) * g.ndim), (gen,))
    d = diagnostics(sample_matrix(model, [model.phi]))
    singular = d.singular_characters()
    assert set(_coords(d, zeros)) <= set(singular)
    if not singular:
        assert shannon_procedure(model).diag.is_riesz
        return
    with pytest.raises(SingularCharacterError) as err:
        shannon_procedure(model)
    assert err.value.characters == singular
    assert str(err.value).startswith(
        f"pointwise sampling is unstable: the correlation transform vanishes at "
        f"character {singular[0]} (|value|=")


@given(systems(), st.data())
@settings(max_examples=80, deadline=None)
def test_frame_failures_name_the_smallest_determinant_character(drawn, data):
    a = drawn[0]
    tol = _tolerance(data.draw, diagnostics(a))
    d = diagnostics(a, tol)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = TransferMatrix(a.group, _complex(rng, (a.group.order, a.cols, a.rows)))
    for build in (lambda: require_frame(a, tol), lambda: moore_penrose(a, tol),
                  lambda: left_inverse_family(a, c, tol)):
        if d.is_frame:
            build()
            continue
        with pytest.raises(FrameConditionError) as err:
            build()
        assert err.value.xi == d.worst_xi
        assert err.value.xi == _coords(d, [int(np.argmin(_gram_determinants(d)))])[0]
        assert (err.value.delta, err.value.tol) == (d.delta, d.tol)
        assert str(err.value) == (
            f"sampling system is not stable: determinant infimum "
            f"delta={d.delta:.6e} not above tolerance {d.tol:.6e}")


def _separating_thresholds(d):
    """Explicit thresholds far (a factor 2) from every Gram determinant and above round-off."""
    if d.beta == 0.0:
        return [0.0, 1.0]
    dets = np.unique(_gram_determinants(d))
    floor = 1e-6 * d.beta ** d.cols  # rank-deficient characters stay far below this
    candidates = [4.0 * dets[-1]] + [float(np.sqrt(lo * hi)) for lo, hi in
                                     zip(dets[:-1], dets[1:]) if hi >= 4.0 * lo]
    if dets[0] >= 4.0 * floor:
        candidates.append(dets[0] / 2.0)
    return [t for t in candidates if t >= floor]


@given(systems(), st.data())
@settings(max_examples=80, deadline=None)
def test_explicit_tolerance_is_absolute(drawn, data):
    a = drawn[0]
    thresholds = _separating_thresholds(diagnostics(a))
    assume(thresholds)
    t = data.draw(st.sampled_from(thresholds))
    c = 10.0 ** data.draw(st.floats(-3, 3))
    base = diagnostics(a, tol=t)
    scaled = diagnostics(from_transfer(TransferMatrix(a.group, c * transfer(a).matrices)),
                         tol=c ** (2 * a.cols) * t)
    assert base.tol == t
    assert (scaled.is_frame, scaled.is_riesz) == (base.is_frame, base.is_riesz)
    if a.rows == a.cols:
        assert scaled.singular_characters() == base.singular_characters()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_noise_amplified_at_most_by_the_dual_frame_bound(data):
    g = GroupSpec((4, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2, 1)),
                             tuple(GroupSequence(g, _complex(rng, g.order)) for _ in range(2)))
    probes = [GroupSequence(g, _complex(rng, g.order)) for _ in range(3)]
    kind = data.draw(st.sampled_from(("moore_penrose", "family")))
    habs = model.subgroup.abstract_group
    c = TransferMatrix(habs, _complex(rng, (habs.order, 2, 3))) if kind == "family" else None
    try:
        proc = make_procedure(model, probes=probes, left_inverse=kind, c=c)
    except FrameConditionError:
        assume(False)
    _, hi = proc.sampling_functions.coefficient_frame_bounds
    x = VectorSequence(habs, _complex(rng, (2, habs.order)))
    noise = VectorSequence(habs, _complex(rng, (3, habs.order))) * 10.0 ** data.draw(
        st.floats(-6, 2))
    error = reconstruct_coefficients(proc, take_samples(proc, x) + noise) - x
    assert error.norm() <= np.sqrt(hi) * noise.norm() * (1 + 1e-9)
    # noise along the top right singular vector of B^(xi) at the worst character
    # is amplified by exactly sqrt(hi), so the bound is sharp
    b = proc.dual.transfer.matrices
    k = int(np.argmax(np.linalg.norm(b, ord=2, axis=(1, 2))))
    spectrum = np.zeros((habs.order, 3, 1), dtype=np.complex128)
    spectrum[k, :, 0] = np.linalg.svd(b[k])[2][0].conj()
    worst = VectorSequence(habs, from_transfer(TransferMatrix(habs, spectrum)).values[:, 0])
    amplified = reconstruct_coefficients(proc, worst).norm()
    assert abs(amplified / (np.sqrt(hi) * worst.norm()) - 1.0) < 1e-9
