"""The exact kernel skips exact-zero columns and unkept points without changing a bit.

Every value is checked against a per-point ``math.fsum`` over all |G| terms,
zero products included, with the indices of h - h' from ``GroupSpec.ravel``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, SequenceMatrix,
                           TranslationModel, VectorSequence, analysis_transform, apply,
                           convolve, sample_matrix, synthesize)
from groupsampling.groups import _DIFFERENCE_TABLE_MAX_ORDER


def minus(g, h):
    """Indices of h - h' for every h'."""
    return g.ravel(g.coords_array[h] - g.coords_array)


def shifted(g, h):
    """Indices of h' - h for every h'."""
    return g.ravel(g.coords_array - g.coords_array[h])


def product_sum(a, b):
    """One correctly rounded sum of a[k] * b[k], split as the kernel splits it."""
    re = math.fsum([*(a.real * b.real), *(a.imag * -b.imag)])
    im = math.fsum([*(a.real * b.imag), *(a.imag * b.real)])
    return complex(re, im)


def reference_apply(a, x, g, points=None):
    """out[m, i] = sum over (n, h') of a[m, n, h - h'] x[n, h'] at h = points[i]."""
    points = range(g.order) if points is None else points
    out = np.empty((a.shape[0], len(points)), dtype=np.complex128)
    for i, h in enumerate(points):
        gathered = a[:, :, minus(g, h)]
        for m in range(a.shape[0]):
            out[m, i] = product_sum(gathered[m].ravel(), x.ravel())
    return out


def outcome(fn):
    """The values as bits with NaNs marked, or the exception type."""
    try:
        values = np.ascontiguousarray(fn()).view(np.float64)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return np.isnan(values), np.where(np.isnan(values), 0.0, values).view(np.int64)


def assert_same(got, want):
    got_nan, got_bits = outcome(lambda: got)
    want_nan, want_bits = outcome(lambda: want)
    assert (got_nan == want_nan).all()
    assert (got_bits == want_bits).all()


def support(kind, rng, g, sub):
    """A boolean mask of the points a sparse operand is nonzero on."""
    if kind == "lattice":
        mask = np.zeros(g.order, dtype=bool)
        mask[sub.embedding_indices] = True
        return mask
    if kind == "one point":
        return np.arange(g.order) == rng.integers(g.order)
    if kind == "all zero":
        return np.zeros(g.order, dtype=bool)
    if kind == "95% zero":
        return rng.random(g.order) < 0.05
    return np.ones(g.order, dtype=bool)  # "dense"


KINDS = ["lattice", "one point", "all zero", "95% zero", "dense"]


@st.composite
def groups(draw, top=(24, 8, 4)):
    n_factors = draw(st.integers(1, 3))
    strides = draw(st.lists(st.sampled_from([1, 2]), min_size=n_factors, max_size=n_factors))
    moduli = tuple(d * draw(st.integers(1, top[n_factors - 1] // 2)) for d in strides)
    g = GroupSpec(moduli)
    return g, ProductSubgroup(g, tuple(strides))


def normal(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


@given(st.data(), groups(), st.sampled_from(KINDS), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_convolve_with_zeros_on_either_side(data, gs, a_kind, x_kind):
    g, sub = gs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1.0, 1e-300, 5e-324, 1e150]))
    a = normal(rng, g.order, scale) * support(a_kind, rng, g, sub)
    x = normal(rng, g.order) * support(x_kind, rng, g, sub)
    want = reference_apply(a[None, None], x[None], g)[0]
    assert_same(convolve(GroupSequence(g, a), GroupSequence(g, x)).values, want)
    points = rng.choice(g.order, size=rng.integers(0, g.order + 1), replace=True)
    assert_same(convolve(GroupSequence(g, a), GroupSequence(g, x), at=points), want[points])


@given(st.data(), groups(top=(12, 6, 4)), st.sampled_from(KINDS))
@settings(max_examples=40, deadline=None)
def test_apply_with_sparse_coefficients(data, gs, x_kind):
    g, sub = gs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m_rows, n_cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = normal(rng, (m_rows, n_cols, g.order))
    a[rng.random(a.shape) < 0.2] = 0
    # a column h' is skipped only where every component is zero
    x = normal(rng, (n_cols, g.order)) * support(x_kind, rng, g, sub)
    x[rng.random(x.shape) < 0.3] = 0
    got = apply(SequenceMatrix(g, a), VectorSequence(g, x)).values
    assert_same(got, reference_apply(a, x, g))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("dense_first", [True, False])
@pytest.mark.parametrize("x_kind", ["lattice", "one point", "all zero", "95% zero"])
def test_non_finite_dense_side_meets_the_zeros(special, dense_first, x_kind):
    """inf * 0 is NaN: zeros next to a non-finite operand are not skipped."""
    rng = np.random.default_rng(3)
    g = GroupSpec((6, 8))
    sub = ProductSubgroup(g, (2, 2))
    dense = normal(rng, g.order)
    dense[[5, 17]] = special
    dense[30] = complex(0.0, special)
    sparse = normal(rng, g.order) * support(x_kind, rng, g, sub)
    a, x = (dense, sparse) if dense_first else (sparse, dense)
    want = outcome(lambda: reference_apply(a[None, None], x[None], g)[0])
    got = outcome(lambda: convolve(GroupSequence(g, a), GroupSequence(g, x)).values)
    if isinstance(want, type):
        assert got is want
    else:
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    system = SequenceMatrix(g, np.stack([dense, normal(rng, g.order)])[None])
    coeffs = np.stack([sparse, np.zeros(g.order)])
    want = outcome(lambda: reference_apply(system.values, coeffs, g))
    got = outcome(lambda: apply(system, VectorSequence(g, coeffs)).values)
    if isinstance(want, type):
        assert got is want
    else:
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_inf_next_to_zeros_gives_nan():
    g = GroupSpec((8,))
    a = np.ones(g.order)
    a[0] = math.inf
    x = np.zeros(g.order)
    x[3] = 1.0
    out = convolve(GroupSequence(g, a), GroupSequence(g, x)).values
    assert np.isinf(out[3].real)  # inf * 1
    assert np.isnan(np.delete(out.real, 3)).all()  # inf * 0 at every other point


@pytest.mark.parametrize("side", [16, 40])  # the cached table and per-factor blocks
def test_extraction_path_on_sparse_operands(side):
    """Enough kept terms per block that exact_sums extracts instead of calling fsum."""
    rng = np.random.default_rng(side)
    g = GroupSpec((side, side))
    sub = ProductSubgroup(g, (2, 2))
    a = normal(rng, g.order)
    x = normal(rng, g.order) * support("lattice", rng, g, sub)
    points = rng.choice(g.order, size=48, replace=False)
    want = reference_apply(a[None, None], x[None], g, points)[0]
    assert_same(convolve(GroupSequence(g, x), GroupSequence(g, a), at=points), want)
    assert_same(convolve(GroupSequence(g, a), GroupSequence(g, x)).values[points], want)


CACHED, PER_FACTOR = [(7,), (4, 6), (2, 3, 5)], [(33, 32), (5, 7, 31)]


@pytest.mark.parametrize("moduli", CACHED + PER_FACTOR)
def test_differences_match_ravel(moduli):
    """The cached difference table and the per-factor sums give the same indices."""
    g = GroupSpec(moduli)
    assert (g.order > _DIFFERENCE_TABLE_MAX_ORDER) == (moduli in PER_FACTOR)
    rng = np.random.default_rng(0)
    points = rng.choice(g.order, size=min(g.order, 20), replace=False)
    cols = rng.choice(g.order, size=min(g.order, 30), replace=False)
    coords = g.coords_array
    want = g.ravel((coords[points][:, None] - coords[cols][None]).reshape(-1, g.ndim))
    assert (g.differences(points, cols) == want.reshape(len(points), len(cols))).all()
    full = g.differences(slice(None), slice(None))
    assert full.shape == (g.order, g.order) and full.dtype == np.int64
    assert (full[points][:, cols] == g.differences(points, cols)).all()
    assert (g.differences(slice(3, 5), cols) == full[3:5][:, cols]).all()


# -- the build stages against their definitional sums ------------------------

@st.composite
def models(draw):
    g, sub = draw(groups(top=(16, 8, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = draw(st.sampled_from(["delta", "95% zero", "dense"]))
    phi = (GroupSequence.delta(g) if window == "delta"
           else GroupSequence(g, normal(rng, g.order) * support(window, rng, g, sub)))
    gens = tuple(GroupSequence(g, normal(rng, g.order)) for _ in range(draw(st.integers(1, 2))))
    return TranslationModel(g, phi, sub, gens), rng


@given(models())
@settings(max_examples=30, deadline=None)
def test_sample_matrix_is_the_definitional_sum(drawn):
    """a_{m,n}(k) = sum_s generator_n(s) conj(probe_m(s - embed(k)))."""
    model, rng = drawn
    g, emb = model.ambient, model.subgroup.embedding_indices
    probes = [GroupSequence(g, normal(rng, g.order)) for _ in range(2)]
    got = sample_matrix(model, probes).values
    for m, probe in enumerate(probes):
        for n, gen in enumerate(model.generators):
            want = [product_sum(gen.values, np.conj(probe.values[shifted(g, h)]))
                    for h in emb]
            assert_same(got[m, n], np.array(want))


@given(models())
@settings(max_examples=30, deadline=None)
def test_synthesize_is_the_definitional_sum(drawn):
    """f(h) = sum_n sum_k x_n(k) generator_n(h - embed(k)), one exact sum per generator."""
    model, rng = drawn
    g, emb = model.ambient, model.subgroup.embedding_indices
    habs = model.subgroup.abstract_group
    x = normal(rng, (model.n_generators, habs.order))
    x[rng.random(x.shape) < 0.3] = 0
    got = synthesize(model, VectorSequence(habs, x)).values
    want = np.zeros(g.order, dtype=np.complex128)
    for n, gen in enumerate(model.generators):
        want = want + np.array([product_sum(x[n], gen.values[minus(g, h)[emb]])
                                for h in range(g.order)])
    assert_same(got, want)


@given(models())
@settings(max_examples=30, deadline=None)
def test_analysis_transform_is_the_definitional_sum(drawn):
    """F(t) = sum_s f(s) conj(phi(s - t))."""
    model, rng = drawn
    g = model.ambient
    f = GroupSequence(g, normal(rng, g.order))
    got = analysis_transform(model, f).values[0]
    want = [product_sum(f.values, np.conj(model.phi.values[shifted(g, t)]))
            for t in range(g.order)]
    assert_same(got, np.array(want))
