"""Translation scenario: analysis, synthesis, sampling systems, kernels."""

import numpy as np
import pytest

from groupsampling import (CapExceededError, FrameConditionError, GroupSequence,
                           GroupSpec, ProductSubgroup, TranslationModel, VectorSequence,
                           analysis_transform, coefficients_of, dft, idft,
                           reproducing_kernel, riesz_sequence_check, sample_matrix, synthesize)


def shannon_z4_model():
    g = GroupSpec((4,))
    return TranslationModel(
        ambient=g,
        phi=GroupSequence.delta(g),
        subgroup=ProductSubgroup(g, (2,)),
        generators=(GroupSequence(g, [1, 0.5, 0, 0]),),
    )


def rand_model(rng, moduli, strides, n_gens, window_floor=0.05):
    g = GroupSpec(moduli)
    while True:
        phi = GroupSequence(g, rng.standard_normal(g.order))
        mags = np.abs(dft(phi).values)
        if mags.min() > window_floor * mags.max():
            break
    sub = ProductSubgroup(g, strides)
    while True:
        gens = tuple(GroupSequence(g, rng.standard_normal(g.order))
                     for _ in range(n_gens))
        model = TranslationModel(g, phi, sub, gens)
        lo, hi = riesz_sequence_check(model)
        if lo > 1e-3 * hi:
            return model


class TestAnalysisTransform:
    def test_delta_window_is_identity(self):
        g = GroupSpec((4,))
        model = shannon_z4_model()
        rng = np.random.default_rng(0)
        f = GroupSequence(g, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        np.testing.assert_allclose(analysis_transform(model, f).flat(), f.values)

    def test_zero_input(self):
        model = shannon_z4_model()
        out = analysis_transform(model, GroupSequence.zeros(model.ambient))
        assert out.max_abs() == 0.0

    def test_wide_window_on_delta(self):
        g = GroupSpec((4,))
        model = TranslationModel(g, GroupSequence(g, [1, 1, 0, 0]),
                                 ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, [1, 0.5, 0, 0]),))
        out = analysis_transform(model, GroupSequence.delta(g))
        np.testing.assert_allclose(out.flat(), [1, 0, 0, 1])

    def test_correlation_oracle(self):
        rng = np.random.default_rng(1)
        model = rand_model(rng, (3, 2), (1, 1), 1)
        f = GroupSequence(model.ambient, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        out = analysis_transform(model, f)
        for t in model.ambient.elements():
            expected = f.inner(model.phi.shift(t))
            assert abs(out.at(t) - expected) < 1e-12

    def test_shift_invariance(self):
        # analyzing a subgroup translate shifts the correlation table
        rng = np.random.default_rng(2)
        model = rand_model(rng, (4, 2), (2, 1), 1)
        x = VectorSequence(model.subgroup.abstract_group,
                           rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        f = synthesize(model, x)
        base = analysis_transform(model, f)
        for h in model.subgroup.abstract_group.elements():
            t = model.subgroup.embed(h)
            shifted = analysis_transform(model, f.shift(t))
            rolled = base.flat()[model.ambient.translation_perm(t.index)]
            assert np.abs(shifted.flat() - rolled).max() < 1e-10


class TestSynthesize:
    def test_single_impulse_gives_generator(self):
        model = shannon_z4_model()
        x = VectorSequence(model.subgroup.abstract_group, [[1, 0]])
        np.testing.assert_allclose(synthesize(model, x).values,
                                   model.generators[0].values)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        model = rand_model(rng, (2, 3), (1, 3), 2)
        habs = model.subgroup.abstract_group
        x = VectorSequence(habs, rng.standard_normal((2, habs.order)))
        y = VectorSequence(habs, rng.standard_normal((2, habs.order)))
        lhs = synthesize(model, x + y).values
        rhs = synthesize(model, x).values + synthesize(model, y).values
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_z4_shift_and_add(self):
        model = shannon_z4_model()
        x = VectorSequence(model.subgroup.abstract_group, [[1, 1]])
        np.testing.assert_allclose(synthesize(model, x).values, [1, 0.5, 1, 0.5])

    def test_shifting_property(self):
        # synthesizing translated coefficients translates the synthesized element
        rng = np.random.default_rng(4)
        model = rand_model(rng, (8,), (2,), 2)
        habs = model.subgroup.abstract_group
        x = VectorSequence(habs, rng.standard_normal((2, habs.order)))
        for t in habs.elements():
            lhs = synthesize(model, x.shift(t)).values
            rhs = synthesize(model, x).shift(model.subgroup.embed(t)).values
            assert np.abs(lhs - rhs).max() < 1e-12


class TestSampleMatrix:
    def test_orthonormal_deltas(self):
        g = GroupSpec((4,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),))
        a = sample_matrix(model, [GroupSequence.delta(g)])
        np.testing.assert_allclose(a.values[0, 0], [1, 0, 0, 0])

    def test_zero_probe_zero_row(self):
        model = shannon_z4_model()
        a = sample_matrix(model, [GroupSequence.zeros(model.ambient)])
        assert np.abs(a.values).max() == 0.0

    def test_z4_downsampled_generator(self):
        model = shannon_z4_model()
        a = sample_matrix(model, [model.phi])
        np.testing.assert_allclose(a.values[0, 0], [1, 0])

    def test_inner_product_oracle(self):
        rng = np.random.default_rng(5)
        model = rand_model(rng, (4, 2), (2, 2), 2)
        probes = [GroupSequence(model.ambient, rng.standard_normal(8)) for _ in range(3)]
        a = sample_matrix(model, probes)
        habs = model.subgroup.abstract_group
        for m, probe in enumerate(probes):
            for n, gen in enumerate(model.generators):
                for h in habs.elements():
                    expected = gen.inner(probe.shift(model.subgroup.embed(h)))
                    assert abs(a.values[m, n, h.index] - expected) < 1e-12


class TestRieszCheck:
    def test_orthonormal_translates(self):
        g = GroupSpec((4,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),))
        lo, hi = riesz_sequence_check(model)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_duplicated_generator_degenerates(self):
        g = GroupSpec((4,))
        gen = GroupSequence(g, [1, 0.5, 0, 0])
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                                 (gen, gen))
        lo, _ = riesz_sequence_check(model)
        assert abs(lo) < 1e-12

    def test_z4_orthogonal_translates(self):
        model = shannon_z4_model()
        lo, hi = riesz_sequence_check(model)
        assert lo == pytest.approx(1.25)
        assert hi == pytest.approx(1.25)

    def test_norm_equivalence_sandwich(self):
        rng = np.random.default_rng(6)
        model = rand_model(rng, (4, 3), (2, 1), 2)
        lo, hi = riesz_sequence_check(model)
        habs = model.subgroup.abstract_group
        for _ in range(20):
            x = VectorSequence(habs, rng.standard_normal((2, habs.order))
                               + 1j * rng.standard_normal((2, habs.order)))
            f_norm = synthesize(model, x).norm_sq()
            x_norm = x.norm_sq()
            assert lo * x_norm <= f_norm * (1 + 1e-10) + 1e-12
            assert f_norm <= hi * x_norm * (1 + 1e-10) + 1e-12

    def test_cap(self):
        rng = np.random.default_rng(7)
        model = rand_model(rng, (4,), (1,), 1)
        with pytest.raises(CapExceededError):
            riesz_sequence_check(model, cap=2)


class TestCoefficients:
    def test_recovers_expansion(self):
        rng = np.random.default_rng(8)
        model = rand_model(rng, (4, 2), (2, 2), 2)
        habs = model.subgroup.abstract_group
        x = VectorSequence(habs, rng.standard_normal((2, habs.order))
                           + 1j * rng.standard_normal((2, habs.order)))
        f = synthesize(model, x)
        back = coefficients_of(model, f)
        assert np.abs(back.values - x.values).max() < 1e-10

    def test_degenerate_family_rejected(self):
        g = GroupSpec((4,))
        gen = GroupSequence(g, [1, 0.5, 0, 0])
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                                 (gen, gen))
        with pytest.raises(FrameConditionError):
            coefficients_of(model, gen)


class TestWindowReport:
    def test_window_bounds_are_spectral(self):
        rng = np.random.default_rng(9)
        model = rand_model(rng, (4, 2), (2, 1), 1)
        lo, hi = model.window_bounds
        mags = np.abs(dft(model.phi).values) ** 2
        assert lo == pytest.approx(mags.min())
        assert hi == pytest.approx(mags.max())
        assert model.window_spans_everything

    def test_window_bounds_match_frame_operator(self):
        # dense frame-operator eigenvalues equal the spectral window report
        rng = np.random.default_rng(10)
        model = rand_model(rng, (3, 2), (1, 1), 1)
        order = model.ambient.order
        psi = np.stack([model.phi.shift(t).values for t in range(order)], axis=1)
        eigs = np.linalg.eigvalsh(psi @ psi.conj().T)
        lo, hi = model.window_bounds
        assert abs(eigs[0] - lo) < 1e-8 * max(1.0, hi)
        assert abs(eigs[-1] - hi) < 1e-8 * max(1.0, hi)


class TestReproducingKernel:
    def test_delta_window_kernel(self):
        g = GroupSpec((4,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, [1, 0.5, 0, 0]),))
        k = reproducing_kernel(model)
        np.testing.assert_allclose(k.matrix, np.eye(4), atol=1e-12)

    def test_kernel_hermitian(self):
        rng = np.random.default_rng(11)
        model = rand_model(rng, (4, 2), (2, 1), 1)
        k = reproducing_kernel(model)
        assert np.abs(k.matrix - k.matrix.conj().T).max() < 1e-12

    def test_reproducing_property(self):
        rng = np.random.default_rng(12)
        model = rand_model(rng, (4,), (2,), 1)
        k = reproducing_kernel(model)
        for _ in range(20):
            f = GroupSequence(model.ambient, rng.standard_normal(4)
                              + 1j * rng.standard_normal(4))
            big_f = analysis_transform(model, f)
            assert k.residual(big_f) < 1e-8

    def test_nearly_vanishing_window_spans_nothing_the_kernel_refuses(self):
        """|phi^|^2 is 1 except 1e-14 at (3,): positive, but below the rank rule."""
        g = GroupSpec((8,))
        spectrum = np.ones(8, dtype=np.complex128)
        spectrum[3] = 1e-7
        model = TranslationModel(g, idft(GroupSequence(g, spectrum)), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),))
        lo, hi = model.window_bounds
        assert lo == pytest.approx(1e-14) and hi == pytest.approx(1.0)
        assert not model.window_spans_everything
        with pytest.raises(FrameConditionError) as err:
            reproducing_kernel(model)
        assert err.value.xi == (3,)

    def test_singular_window_rejected(self):
        g = GroupSpec((2,))
        model = TranslationModel(g, GroupSequence(g, [1, 1]), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),))
        assert not model.window_spans_everything
        with pytest.raises(FrameConditionError):
            reproducing_kernel(model)
