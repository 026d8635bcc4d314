"""Fiber Grams of the generated subspace and the window's reproducing kernel.

The Gram of the subgroup translates of N generators is a convolution on the
sampling group H, so the transform over H splits it into one N x N fiber Gram
per character of H, T* T / index with T the model's alias matrices
(``fibers``).  ``coefficients_of`` solves those fibers and
``reproducing_kernel`` tests |phi^|^2, the eigenvalues of the window frame
operator.  These properties check both against dense oracles built here from
explicit translate columns: the dense Gram (``riesz_sequence_check``), its
compression onto each character of H, a least-squares solve and the kernel
psi* (psi psi*)^(-1) psi.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupsampling import (FrameConditionError, GroupSequence, GroupSpec, ProductSubgroup,
                           TransferMatrix, TranslationModel, VectorSequence, coefficients_of,
                           reproducing_kernel, riesz_sequence_check)
from groupsampling.frames import RANK_RTOL, _spectrum
from groupsampling.models import _rank_deficient

# largest factor order for 1, 2 and 3 cyclic factors: |G| stays at most 64
_MAX_FACTOR = (12, 8, 4)


def _complex(rng, shape, zeros):
    """Complex normal entries, each an exact zero with probability ``zeros``."""
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[rng.random(shape) < zeros] = 0.0
    return values


@st.composite
def groups(draw):
    ndim = draw(st.integers(1, 3))
    return GroupSpec(tuple(draw(st.integers(1, _MAX_FACTOR[ndim - 1])) for _ in range(ndim)))


@st.composite
def models(draw):
    """A translation model with 1-3 complex generators, some entries exact zeros."""
    g = draw(groups())
    strides = tuple(draw(st.sampled_from([d for d in range(1, s + 1) if s % d == 0]))
                    for s in g.moduli)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    gens = tuple(GroupSequence(g, _complex(rng, g.order, zeros))
                 for _ in range(draw(st.integers(1, 3))))
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, strides), gens), rng


def _columns(model):
    """Translate columns, generator-major: column (n, k) is generator n shifted by embed(k)."""
    return np.stack([gen.shift(e).values for gen in model.generators
                     for e in model.subgroup.embedding_indices], axis=1)


def _characters(group):
    """(order, order) unitary matrix whose column xi is the character xi / sqrt(order)."""
    c = group.coords_array
    phase = (c[:, None, :] * c[None, :, :] / np.asarray(group.moduli)).sum(axis=-1)
    return np.exp(2j * np.pi * phase) / np.sqrt(group.order)


def _fiber_oracle(model):
    """The dense Gram compressed onto each character of H: (|H|, N, N)."""
    cols = _columns(model)
    n, h = model.n_generators, model.subgroup.abstract_group.order
    gram = (cols.conj().T @ cols).reshape(n, h, n, h)
    w = _characters(model.subgroup.abstract_group)
    return np.einsum("ka,nkml,la->anm", w.conj(), gram, w)


def _riesz(model, cond=1e3):
    """A Riesz model whose dense Gram has condition number below ``cond``."""
    lo, hi = riesz_sequence_check(model)
    assume(lo > hi / cond)
    return model.subgroup.abstract_group


def _relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)


@settings(max_examples=150, deadline=None)
@given(models())
def test_fiber_grams_are_the_dense_gram_per_character(drawn):
    model, _ = drawn
    gram, eigs = (arr / model.subgroup.index for arr in _spectrum(model.fibers)[:2])
    oracle = _fiber_oracle(model)
    lo, hi = riesz_sequence_check(model)
    scale = max(hi, np.finfo(float).tiny)
    assert np.abs(gram - oracle).max() <= 1e-12 * scale
    assert abs(eigs[:, 0].min() - lo) <= 1e-12 * scale
    assert abs(eigs[:, -1].max() - hi) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(models())
def test_rejection_follows_the_dense_rank_test(drawn):
    model, rng = drawn
    lo, hi = riesz_sequence_check(model)
    assume(not RANK_RTOL / 2 * hi < lo < 2 * RANK_RTOL * hi)
    f = GroupSequence(model.ambient, _complex(rng, model.ambient.order, 0.0))
    if not _rank_deficient(lo, hi):
        coefficients_of(model, f)
        return
    with pytest.raises(FrameConditionError, match="not a Riesz sequence") as err:
        coefficients_of(model, f)
    assert err.value.delta <= RANK_RTOL * hi
    # the named character of H carries a rank-deficient compression of the dense Gram
    k = model.subgroup.abstract_group.element(err.value.xi).index
    assert np.linalg.eigvalsh(_fiber_oracle(model)[k])[0] <= 2 * RANK_RTOL * max(hi, 1e-300)


@settings(max_examples=100, deadline=None)
@given(models())
def test_coefficients_of_members(drawn):
    model, rng = drawn
    habs = _riesz(model)
    x = _complex(rng, (model.n_generators, habs.order), 0.0)
    f = GroupSequence(model.ambient, _columns(model) @ x.ravel())
    assert _relative(coefficients_of(model, f).values, x) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(models())
def test_coefficients_of_the_orthogonal_projection(drawn):
    model, rng = drawn
    habs = _riesz(model)
    cols = _columns(model)
    f = _complex(rng, model.ambient.order, 0.0)
    dense = np.linalg.lstsq(cols, f, rcond=None)[0].reshape(model.n_generators, habs.order)
    got = coefficients_of(model, GroupSequence(model.ambient, f)).values
    assert _relative(got, dense) <= 1e-12
    residual = f - cols @ got.ravel()
    bound = 1e-12 * np.linalg.norm(cols, 2) * np.linalg.norm(f)
    assert np.abs(cols.conj().T @ residual).max() <= bound


@settings(max_examples=150, deadline=None)
@given(groups(), st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.3, 0.7, 1.0)))
def test_reproducing_kernel_against_the_dense_frame_operator(g, seed, zeros):
    rng = np.random.default_rng(seed)
    phi = GroupSequence(g, _complex(rng, g.order, zeros))
    model = TranslationModel(g, phi, ProductSubgroup(g, (1,) * g.ndim),
                             (GroupSequence.delta(g),))
    psi = np.stack([phi.shift(t).values for t in range(g.order)], axis=1)
    frame_op = psi @ psi.conj().T
    eigs = np.linalg.eigvalsh(frame_op)
    lo, hi = eigs[0], eigs[-1]
    assume(not RANK_RTOL / 2 * hi < lo < 2 * RANK_RTOL * hi)
    if _rank_deficient(lo, hi):
        with pytest.raises(FrameConditionError, match="frame operator is singular") as err:
            reproducing_kernel(model)
        assert err.value.delta <= RANK_RTOL * hi
        # |phi^|^2 at the named character, from the characters' definition
        w = _characters(g)[:, g.element(err.value.xi).index] * np.sqrt(g.order)
        assert abs(np.vdot(w, phi.values)) ** 2 <= 2 * RANK_RTOL * max(hi, 1e-300)
        return
    assume(lo > 1e-3 * hi)
    dense = psi.conj().T @ np.linalg.solve(frame_op, psi)
    assert _relative(reproducing_kernel(model).matrix, dense.T) <= 1e-12


def _with_spectrum_zeros(g, zero_characters, seed):
    rng = np.random.default_rng(seed)
    spectrum = _complex(rng, g.order, 0.0)
    spectrum[zero_characters] = 0.0
    return GroupSequence(g, g.ifft(spectrum))


@pytest.mark.parametrize("moduli, strides, kappa", [
    ((8,), (2,), (1,)),
    ((6, 4), (3, 2), (1, 1)),
    ((6, 4), (1, 2), (4, 0)),
])
def test_coefficients_error_names_the_singular_character(moduli, strides, kappa):
    # a generator whose transform vanishes at every alias of one character of H
    g = GroupSpec(moduli)
    sub = ProductSubgroup(g, strides)
    # the characters xi of G with xi_j = kappa_j mod s_j / d_j restrict to kappa on H
    aliases = (g.coords_array % np.asarray(sub.abstract_group.moduli) == kappa).all(axis=1)
    gen = _with_spectrum_zeros(g, aliases, seed=sum(kappa))
    model = TranslationModel(g, GroupSequence.delta(g), sub, (gen,))
    with pytest.raises(FrameConditionError) as err:
        coefficients_of(model, gen)
    assert err.value.xi == kappa
    assert abs(err.value.delta) <= RANK_RTOL * riesz_sequence_check(model)[1]


def test_kernel_error_names_the_singular_character():
    g = GroupSpec((6, 4))
    xi = g.element((5, 2))
    model = TranslationModel(g, _with_spectrum_zeros(g, [xi.index], seed=3),
                             ProductSubgroup(g, (1, 1)), (GroupSequence.delta(g),))
    with pytest.raises(FrameConditionError) as err:
        reproducing_kernel(model)
    assert err.value.xi == xi.coords


def test_translates_by_numpy_integers():
    # entries of embedding_indices are numpy integers
    g = GroupSpec((4,))
    t = ProductSubgroup(g, (1,)).embedding_indices[1]
    assert isinstance(t, np.integer)
    x = GroupSequence(g, [1, 2, 3, 4])
    assert np.array_equal(x.shift(t).values, [4, 1, 2, 3])
    v = VectorSequence(g, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert np.array_equal(v.shift(t).values, [[4, 1, 2, 3], [8, 5, 6, 7]])
    m = TransferMatrix(g, np.arange(16).reshape(4, 2, 2))
    assert np.array_equal(m.at(t), m.matrices[1])
