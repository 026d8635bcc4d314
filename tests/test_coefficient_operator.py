"""The fiber solves kept on a translation model, and the kernel spectra kept on a procedure.

Every factor of the per-character solve for a signal's coefficients except the
signal's transform depends on the model alone, so ``TranslationModel`` keeps
``coefficient_operator``, the (|H|, N, index) array solve(gram, T*) / index, and
``coefficients_of`` applies it with one batched product.  The sampling functions
keep ``kernel_spectra``, the windows' spectra times the betas' transforms, made
when they are built.  These tests check the coefficients against a dense
least-squares oracle on the generator translates, that a warm semidirect op and a
warm ``coefficients_of`` make no solve, and that both arrays are cached and
read-only.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, SemidirectModel,
                           TranslationModel, build_sampling_functions, coefficients_of,
                           make_procedure, riesz_sequence_check, semidirect_reduce,
                           semidirect_sample_and_reconstruct)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def translation_models(draw):
    """A one-window model on 1-2 cyclic factors (|G| <= 64) with 1-3 complex generators."""
    moduli = tuple(draw(st.integers(1, 8)) for _ in range(draw(st.integers(1, 2))))
    g = GroupSpec(moduli)
    strides = tuple(draw(st.sampled_from([d for d in range(1, s + 1) if s % d == 0]))
                    for s in moduli)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = tuple(GroupSequence(g, _complex(rng, g.order))
                 for _ in range(draw(st.integers(1, 3))))
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, strides), gens), rng


@st.composite
def reductions(draw):
    """The translation model of a C2 or C4 model on Z_side^2 with equal strides."""
    label = draw(st.sampled_from(("C2", "C4")))
    stride = draw(st.sampled_from((1, 2, 3)))
    side = stride * draw(st.integers(1, 4))
    torus = GroupSpec((side, side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = SemidirectModel(torus, label, ProductSubgroup(torus, (stride, stride)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    return semidirect_reduce(model).model, rng


def _lstsq(model, f):
    """Dense least-squares coefficients of f on the generator translates, (N, |H|)."""
    emb = model.subgroup.embedding_indices
    cols = model.generator_translates(emb).reshape(model.n_generators * len(emb), -1).T
    return np.linalg.lstsq(cols, f, rcond=None)[0].reshape(model.n_generators, len(emb))


def _check_against_lstsq(model, rng, real):
    lo, hi = riesz_sequence_check(model)
    assume(lo > hi / 1e3)
    order = model.ambient.order
    f = rng.standard_normal(order) if real else _complex(rng, order)
    want = _lstsq(model, f)
    for _ in range(2):  # cold, then through the kept operator
        got = coefficients_of(model, GroupSequence(model.ambient, f)).values
        assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-300)


@settings(max_examples=100, deadline=None)
@given(translation_models(), st.booleans())
def test_coefficients_match_dense_least_squares(drawn, real):
    _check_against_lstsq(*drawn, real)


@settings(max_examples=50, deadline=None)
@given(reductions(), st.booleans())
def test_reduction_coefficients_match_dense_least_squares(drawn, real):
    _check_against_lstsq(*drawn, real)


def _setup(label, side=12, seed=8):
    rng = np.random.default_rng(seed)
    torus = GroupSpec((side, side))
    model = SemidirectModel(torus, label, ProductSubgroup(torus, (3, 3)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    probes = [GroupSequence(torus, _complex(rng, torus.order))
              for _ in range(model.n_rotations + 1)]
    proc = make_procedure(semidirect_reduce(model).model, probes=probes)
    return model, proc, GroupSequence(torus, _complex(rng, torus.order))


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the arguments of every ``np.linalg.solve`` call."""
    seen = []
    original = np.linalg.solve

    def counting(a, b):
        seen.append((np.shape(a), np.shape(b)))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return seen


@pytest.mark.parametrize("label", ["C2", "C4"])
def test_warm_op_makes_no_solve(label, solves):
    model, proc, f = _setup(label)
    first = semidirect_sample_and_reconstruct(model, proc, f).values
    solves.clear()
    second = semidirect_sample_and_reconstruct(model, proc, f).values
    assert solves == []
    assert first.tobytes() == second.tobytes()


def test_operator_is_one_batched_solve_on_first_use(solves):
    model, proc, f = _setup("C4")
    reduced = TranslationModel(model.torus, model.windows, model.lattice, model.generators)
    solves.clear()
    coefficients_of(reduced, f)
    habs, index = reduced.subgroup.abstract_group, reduced.subgroup.index
    n = reduced.n_generators
    assert solves == [((habs.order, n, n), (habs.order, n, index))]
    solves.clear()
    coefficients_of(reduced, f)
    assert solves == []


@pytest.mark.parametrize("label", ["C2", "C4"])
def test_operator_and_kernel_spectra_are_cached_and_read_only(label):
    model, proc, f = _setup(label)
    reduced = proc.model
    op = reduced.coefficient_operator
    assert reduced.coefficient_operator is op
    habs, index = reduced.subgroup.abstract_group, reduced.subgroup.index
    assert op.shape == (habs.order, reduced.n_generators, index)
    assert reduced.riesz_bounds is reduced.riesz_bounds
    functions = proc.sampling_functions
    kernels = functions.kernel_spectra
    assert proc.sampling_functions.kernel_spectra is kernels
    assert kernels.shape == (proc.n_channels, model.n_rotations, model.torus.order)
    betas = model.torus.fft(np.stack([b.values for b in functions.betas]))
    want = np.stack([reduced.window_spectra * b for b in betas])
    assert kernels.tobytes() == want.tobytes()
    assert build_sampling_functions(proc).kernel_spectra.tobytes() == kernels.tobytes()
    for arr in (op, kernels):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
