"""The semidirect sample-and-reconstruct op in the transfer domain.

``semidirect_sample_and_reconstruct`` takes its samples as A^(k) c^(k) per
character k of H, from the fibers kept on the model, and sums the lattice
translates of its kernels through ``_sum_translates``, which gathers the
sample spectra by ``ProductSubgroup.restriction_indices``.  These tests compare
it with the composition it replaced, rebuilt here from the exact stages
(``take_samples`` of ``coefficients_of``, ``convolve_fft`` of the rotated
windows with the ``betas``, and a transform of the samples placed on the
lattice), and with the direct correlation table ``semidirect_analysis``; they
also check that the op calls no exact function.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import groupsampling as gs
from groupsampling import (FrameConditionError, GroupSequence, GroupSpec, ProductSubgroup,
                           SemidirectModel, SequenceMatrix, TranslationModel, VectorSequence,
                           coefficients_of, convolve_fft, involution, make_procedure,
                           reconstruct_function, rotate_sequence, semidirect_analysis,
                           semidirect_reduce, semidirect_sample_and_reconstruct, synthesize,
                           take_samples)
from groupsampling import groups, models, sampling, systems
from groupsampling.models import _rank_deficient

EXACT = ("apply", "convolve", "_exact_convolve", "exact_sums", "take_samples",
         "coefficients_of", "synthesize", "sample_matrix", "analysis_transform",
         "semidirect_analysis", "convolve_fft")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _relative(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


@st.composite
def semidirect_setups(draw):
    """A C1, C2 or C4 torus of side 4-24 on an equal-stride lattice, with a built procedure."""
    label = draw(st.sampled_from(("C1", "C2", "C4")))
    side = draw(st.integers(4, 24))
    rotations = {"C1": 1, "C2": 2, "C4": 4}[label]
    # the fibers have index = stride^2 rows, so a Riesz sequence needs stride^2 >= rotations
    stride = draw(st.sampled_from([d for d in range(1, side + 1)
                                   if side % d == 0 and d * d >= rotations]))
    n_probes = draw(st.integers(rotations, rotations + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    torus = GroupSpec((side, side))
    model = SemidirectModel(torus, label, ProductSubgroup(torus, (stride, stride)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    reduced = semidirect_reduce(model).model
    eigs = reduced.fibers[2]
    lo, hi = eigs[:, 0].min(), eigs[:, -1].max()
    # rotation-fixed aliases can make a fiber singular; keep well-conditioned draws
    assume(not _rank_deficient(lo, hi) and lo > hi / 1e4)
    try:
        proc = make_procedure(reduced, probes=[GroupSequence(torus, _complex(rng, torus.order))
                                               for _ in range(n_probes)])
    except FrameConditionError:
        assume(False)
    assume(proc.diag.alpha > proc.diag.beta / 1e8)
    return model, proc, rng


def _parent_composition(model, proc, f):
    """The op as its exact stages computed it: samples, kernels, then the upsampled sum."""
    samples = take_samples(proc, coefficients_of(proc.model, f))
    windows = SequenceMatrix(model.torus,
                             [[involution(rotate_sequence(model, i, model.phi)).values]
                              for i in range(model.n_rotations)])
    kernels = convolve_fft(windows, VectorSequence.from_components(proc.sampling_functions.betas))
    g = model.torus
    upsampled = np.zeros((proc.n_channels, g.order), dtype=np.complex128)
    upsampled[:, model.lattice.embedding_indices] = samples.values
    return g.ifft((g.fft(kernels.values) * g.fft(upsampled)).sum(axis=-2))


@settings(max_examples=40, deadline=None)
@given(semidirect_setups())
def test_op_matches_the_exact_composition(setup):
    model, proc, rng = setup
    f = GroupSequence(model.torus, _complex(rng, model.torus.order))
    want = _parent_composition(model, proc, f)
    got = semidirect_sample_and_reconstruct(model, proc, f)
    assert got.sectors == model.n_rotations
    assert _relative(got.values, want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(semidirect_setups())
def test_op_reproduces_the_analysis_table_on_the_subspace(setup):
    model, proc, rng = setup
    habs = model.lattice.abstract_group
    f = synthesize(proc.model, VectorSequence(habs, _complex(rng, (model.n_rotations,
                                                                    habs.order))))
    direct = semidirect_analysis(model, f)
    out = semidirect_sample_and_reconstruct(model, proc, f)
    assert (out - direct).max_abs() <= 1e-8 * max(1.0, direct.max_abs())


@st.composite
def translation_procedures(draw):
    """A procedure on 1-3 cyclic factors (|G| <= 64) with random generators and probes."""
    ndim = draw(st.integers(1, 3))
    moduli = tuple(draw(st.integers(1, (12, 8, 4)[ndim - 1])) for _ in range(ndim))
    strides = tuple(draw(st.sampled_from([d for d in range(1, s + 1) if s % d == 0]))
                    for s in moduli)
    g = GroupSpec(moduli)
    sub = ProductSubgroup(g, strides)
    n_gen = draw(st.integers(1, min(2, sub.index)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = TranslationModel(g, GroupSequence(g, _complex(rng, g.order)), sub,
                             tuple(GroupSequence(g, _complex(rng, g.order))
                                   for _ in range(n_gen)))
    try:
        proc = make_procedure(model, probes=[GroupSequence(g, _complex(rng, g.order))
                                             for _ in range(n_gen + 1)])
    except FrameConditionError:
        assume(False)
    assume(proc.diag.alpha > proc.diag.beta / 1e8)
    return proc, rng


@settings(max_examples=60, deadline=None)
@given(translation_procedures())
def test_reconstruct_function_is_the_translated_kernel_sum(drawn):
    proc, rng = drawn
    sub = proc.model.subgroup
    habs = sub.abstract_group
    samples = _complex(rng, (proc.n_channels, habs.order))
    want = np.zeros(proc.model.ambient.order, dtype=np.complex128)
    for m, kernel in enumerate(proc.sampling_functions.functions):
        s_m = GroupSequence(proc.model.ambient, kernel.flat())
        for k in habs.elements():
            want += samples[m, k.index] * s_m.shift(sub.embed(k)).values
    got = reconstruct_function(proc, VectorSequence(habs, samples)).flat()
    assert _relative(got, want) <= 1e-12


def _c4_setup(seed=3, side=12):
    rng = np.random.default_rng(seed)
    torus = GroupSpec((side, side))
    model = SemidirectModel(torus, "C4", ProductSubgroup(torus, (3, 3)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    proc = make_procedure(semidirect_reduce(model).model,
                          probes=[GroupSequence(torus, _complex(rng, torus.order))
                                  for _ in range(5)])
    return model, proc, GroupSequence(torus, _complex(rng, torus.order))


def test_op_calls_no_exact_function(monkeypatch):
    model, proc, f = _c4_setup()
    want = semidirect_sample_and_reconstruct(model, proc, f).values
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the op called {name}")
        return call

    for module in (gs, groups, systems, models, sampling):
        for name in EXACT:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    got = semidirect_sample_and_reconstruct(model, proc, f).values
    assert calls == []
    assert np.array_equal(got, want)


def test_op_gathers_its_windows_without_rotating(monkeypatch):
    """The rotated windows are the model's ``rotation_perms`` gather of the window."""
    model, proc, f = _c4_setup()
    want = semidirect_sample_and_reconstruct(model, proc, f).values
    calls = []

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)
        return wrapper

    for module in (gs, models, sampling):
        for name in ("rotate_sequence", "quasi_regular_apply"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    got = semidirect_sample_and_reconstruct(model, proc, f).values
    assert calls == []
    assert np.array_equal(got, want)


def test_build_and_op_leave_the_sampling_functions_unread(monkeypatch):
    """The op reads the betas only; the S_m are computed when ``functions`` is first read."""
    transform, calls = sampling.analysis_transform, []

    def counted(model, beta):
        calls.append(beta)
        return transform(model, beta)

    monkeypatch.setattr(sampling, "analysis_transform", counted)
    model, proc, f = _c4_setup()
    kernels = proc.sampling_functions
    semidirect_sample_and_reconstruct(model, proc, f)
    assert calls == []
    functions = kernels.functions
    assert len(calls) == proc.n_channels and kernels.functions is functions
    for beta, s_m in zip(kernels.betas, functions):
        assert np.array_equal(s_m.values, transform(proc.model, beta).values)


@st.composite
def subgroups(draw):
    ndim = draw(st.integers(1, 3))
    g = GroupSpec(tuple(draw(st.integers(1, (24, 10, 6)[ndim - 1])) for _ in range(ndim)))
    strides = tuple(draw(st.sampled_from([d for d in range(1, s + 1) if s % d == 0]))
                    for s in g.moduli)
    return ProductSubgroup(g, strides)


@settings(max_examples=100, deadline=None)
@given(subgroups())
def test_restriction_inverts_the_aliases(sub):
    restrict = sub.restriction_indices
    assert not restrict.flags.writeable
    assert restrict.shape == (sub.parent.order,)
    k = np.arange(sub.abstract_group.order)
    assert np.array_equal(restrict[sub.alias_indices], np.broadcast_to(k[:, None],
                                                                       sub.alias_indices.shape))
    # each coordinate of the restriction of xi is xi_j mod s_j / d_j
    want = sub.parent.coords_array % np.asarray(sub.abstract_group.moduli)
    assert np.array_equal(sub.abstract_group.coords_array[restrict], want)


def test_fibers_are_kept_read_only_and_reused():
    model, proc, f = _c4_setup()
    reduced = proc.model
    fibers = reduced.fibers
    assert reduced.fibers is fibers
    assert all(not a.flags.writeable for a in fibers)
    with pytest.raises(ValueError):
        fibers[1][0, 0, 0] = 0.0
    first = coefficients_of(reduced, f).values
    second = coefficients_of(reduced, f).values
    fresh = coefficients_of(semidirect_reduce(model).model, f).values
    assert np.array_equal(first, second) and np.array_equal(first, fresh)


def test_rank_deficient_model_raises_on_every_call():
    # a generator whose transform vanishes at every alias of the character (1, 0) of H
    g = GroupSpec((6, 4))
    sub = ProductSubgroup(g, (3, 2))
    aliases = (g.coords_array % np.asarray(sub.abstract_group.moduli) == (1, 0)).all(axis=1)
    spectrum = _complex(np.random.default_rng(1), g.order)
    spectrum[aliases] = 0.0
    gen = GroupSequence(g, g.ifft(spectrum))
    model = TranslationModel(g, GroupSequence.delta(g), sub, (gen,))
    raised = []
    for _ in range(3):
        with pytest.raises(FrameConditionError) as err:
            coefficients_of(model, gen)
        raised.append((err.value.xi, err.value.delta))
    assert raised[0][0] == (1, 0)
    assert raised == raised[:1] * 3
