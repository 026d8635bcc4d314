"""Reconstruction through the batched FFT kernel against definitional sums and exact paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, SemidirectModel,
                           SequenceMatrix, TranslationModel, VectorSequence, convolve,
                           convolve_fft, make_procedure, reconstruct_function,
                           semidirect_analysis, semidirect_reduce,
                           semidirect_sample_and_reconstruct, synthesize)


def test_convolve_fft_batches_leading_axes():
    rng = np.random.default_rng(5)
    g = GroupSpec((3, 4))
    a = SequenceMatrix(g, rng.standard_normal((3, 1, g.order))
                       + 1j * rng.standard_normal((3, 1, g.order)))
    x = VectorSequence(g, rng.standard_normal((2, g.order))
                       + 1j * rng.standard_normal((2, g.order)))
    fast = convolve_fft(a, x)
    assert isinstance(fast, SequenceMatrix) and fast.values.shape == (3, 2, g.order)
    for i in range(3):
        for m in range(2):
            direct = convolve(a.entry(i, 0), x.component(m)).values
            assert np.abs(fast.values[i, m] - direct).max() < 1e-10 * max(
                1.0, np.abs(direct).max())


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_reconstruct_function_matches_definitional_sum(data):
    # three odd cyclic factors, strides dividing each one
    moduli = data.draw(st.tuples(*[st.sampled_from((1, 3, 5))] * 3))
    strides = tuple(data.draw(st.sampled_from([d for d in (1, 3, 5) if s % d == 0]))
                    for s in moduli)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = GroupSpec(moduli)

    def draw():
        return GroupSequence(g, rng.standard_normal(g.order)
                             + 1j * rng.standard_normal(g.order))

    # a frame needs no more generators than the subgroup has cosets
    n_gen = data.draw(st.integers(1, min(2, int(np.prod(strides)))))
    sub = ProductSubgroup(g, strides)
    model = TranslationModel(g, draw(), sub, tuple(draw() for _ in range(n_gen)))
    proc = make_procedure(model, probes=[draw() for _ in range(3)])
    habs = proc.system.group
    values = rng.standard_normal((3, habs.order)) + 1j * rng.standard_normal((3, habs.order))
    values[rng.random(values.shape) < 0.3] = 0.0
    want = GroupSequence.zeros(g)
    for m, s_m in enumerate(proc.sampling_functions.functions):
        for k in habs.elements():
            want = want + values[m, k.index] * GroupSequence(g, s_m.flat()).shift(sub.embed(k))
    got = reconstruct_function(proc, VectorSequence(habs, values)).flat()
    assert np.abs(got - want.values).max() <= 1e-9 * max(1.0, np.abs(want.values).max())


def test_semidirect_quarter_turns_match_direct_analysis():
    rng = np.random.default_rng(13)
    torus = GroupSpec((12, 12))
    model = SemidirectModel(torus, "C4", ProductSubgroup(torus, (3, 3)),
                            GroupSequence(torus, rng.standard_normal(144)),
                            GroupSequence(torus, rng.standard_normal(144)))
    red = semidirect_reduce(model)
    probes = [GroupSequence(torus, rng.standard_normal(144)) for _ in range(5)]
    proc = make_procedure(red.model, probes=probes)
    coeffs = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    f = synthesize(red.model, VectorSequence(red.model.subgroup.abstract_group, coeffs.T))
    out = semidirect_sample_and_reconstruct(model, proc, f)
    direct = semidirect_analysis(model, f)
    assert out.n_components == 4
    assert (out - direct).max_abs() < 1e-8 * max(1.0, direct.max_abs())
