"""The vectorised exactly rounded summation kernel against math.fsum, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import GroupSequence, GroupSpec, SequenceMatrix, VectorSequence, apply, convolve
from groupsampling.groups import _FSUM_BELOW, exact_sums


def fsum_rows(terms):
    return np.array([math.fsum(row) for row in terms.tolist()], dtype=np.float64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()


def rows_of(kind, rng, b, k):
    if kind == "products":  # each term a product of two factors in 1e-150..1e150
        factors = 10.0 ** rng.uniform(-150, 150, size=(2, b, k))
        signs = rng.choice([-1.0, 1.0], size=(b, k))
        return signs * factors[0] * factors[1]
    if kind == "cancelling":  # x and -x in shuffled order, so each row sums to zero
        half = rng.standard_normal((b, k)) * 10.0 ** rng.integers(-20, 20, size=(b, k))
        both = np.concatenate([half, -half], axis=1)
        return rng.permuted(both, axis=1)
    if kind == "subnormal":
        return rng.integers(-2**20, 2**20, size=(b, k)) * 5e-324
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size=(b, k))
    return rng.standard_normal((b, k))  # "normal"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matches_fsum_bitwise(data):
    kind = data.draw(st.sampled_from(["products", "cancelling", "subnormal", "zeros", "normal"]))
    b = data.draw(st.sampled_from([1, 2, 5, 40]))
    k = data.draw(st.sampled_from([1, 2, 3, 17, 300, 2049]))
    if k == 1:
        b = data.draw(st.sampled_from([1, 3 * _FSUM_BELOW]))  # one-term rows, both paths
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    terms = rows_of(kind, rng, b, k)
    before = terms.copy()
    assert_bitwise(exact_sums(terms), fsum_rows(terms))
    assert_bitwise(terms, before)  # the caller's terms are left as they were


# 1199 and 1200 sat either side of the former 1,200-term threshold; they now
# take the certified extraction level in one row and in three.
@pytest.mark.parametrize("size", [_FSUM_BELOW - 1, _FSUM_BELOW, 1199, 1200])
@pytest.mark.parametrize("kind", ["products", "cancelling", "subnormal", "normal"])
def test_both_sides_of_small_input_threshold(size, kind):
    rng = np.random.default_rng(size)
    for b in (1, 3):
        k = size // b
        terms = rows_of(kind, rng, b, k + (size - b * k > 0))[:, :k]
        assert_bitwise(exact_sums(terms), fsum_rows(terms))


def _outcome(fn):
    try:
        return "value", np.float64(fn()).view(np.int64)
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)


@pytest.mark.parametrize("special", [
    [math.inf], [-math.inf], [math.nan], [math.inf, math.nan],
    [math.inf, -math.inf],             # fsum raises ValueError
    [1.7e308, 1.7e308, -1.0],          # finite terms whose sum overflows: OverflowError
    [1.7e308, -1.7e308, 1e300],        # huge terms that cancel: summed by fsum exactly
])
@pytest.mark.parametrize("rows", [1, 4])
def test_non_finite_and_huge_rows_behave_as_fsum(special, rows):
    rng = np.random.default_rng(1)
    terms = rng.standard_normal((rows, 2 * _FSUM_BELOW))  # large enough for extraction
    terms[0, :len(special)] = special
    want = [_outcome(lambda row=row: math.fsum(row)) for row in terms.tolist()]
    if want[0][0] == "raises":
        with pytest.raises(want[0][1]):
            exact_sums(terms)
        return
    got = exact_sums(terms)
    for g, (_, w) in zip(got, want):
        if np.isnan(g):
            assert np.isnan(np.int64(w).view(np.float64))
        else:
            assert np.float64(g).view(np.int64) == w


# -- convolve and apply against a per-point fsum reference -------------------

def reference_apply(a, x, g):
    """out[m, h] = sum over (n, h') of a[m, n, h - h'] x[n, h'], one fsum per part."""
    coords = g.coords_array
    out = np.empty((a.shape[0], g.order), dtype=np.complex128)
    for h in range(g.order):
        gathered = a[:, :, g.ravel(coords[h] - coords)]
        for m in range(a.shape[0]):
            ar, ai = gathered[m].real, gathered[m].imag
            re = math.fsum([*(ar * x.real).ravel(), *(-(ai * x.imag)).ravel()])
            im = math.fsum([*(ar * x.imag).ravel(), *(ai * x.real).ravel()])
            out[m, h] = complex(re, im)
    return out


def assert_complex_bitwise(got, want):
    assert_bitwise(np.ascontiguousarray(got).view(np.float64),
                   np.ascontiguousarray(want).view(np.float64))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_convolve_and_apply_match_per_point_fsum(data):
    n_factors = data.draw(st.integers(1, 3))
    top = {1: 40, 2: 8, 3: 4}[n_factors]
    moduli = tuple(data.draw(st.lists(st.integers(1, top), min_size=n_factors,
                                      max_size=n_factors)))
    m_rows, n_cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    scale = data.draw(st.sampled_from([1.0, 1e150, 1e300, 1e-300, 5e-324]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = GroupSpec(moduli)

    def draw(shape):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[rng.random(shape) < 0.2] = 0  # exact zeros
        return v

    a, x = draw((m_rows, n_cols, g.order)) * scale, draw((n_cols, g.order))
    want = reference_apply(a, x, g)
    got = apply(SequenceMatrix(g, a), VectorSequence(g, x)).values
    assert_complex_bitwise(got, want)
    conv = convolve(GroupSequence(g, a[0, 0]), GroupSequence(g, x[0])).values
    assert_complex_bitwise(conv, reference_apply(a[:1, :1], x[:1], g)[0])


def test_inner_and_norm_sq_match_fsum():
    rng = np.random.default_rng(4)
    g = GroupSpec((40, 40))  # long enough for the extraction path
    a, b = (GroupSequence(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
            for _ in range(2))
    ar, ai, br, bi = a.values.real, a.values.imag, b.values.real, b.values.imag
    want = complex(math.fsum([*(ar * br), *(ai * bi)]), math.fsum([*(ai * br), *(-(ar * bi))]))
    assert_complex_bitwise(np.array([a.inner(b)]), np.array([want]))
    norm = math.fsum([*(ar * ar), *(ai * ai)])
    assert np.float64(a.norm_sq()).view(np.int64) == np.float64(norm).view(np.int64)
    assert type(a.norm_sq()) is float and type(a.inner(b)) is complex
