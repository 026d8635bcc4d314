"""End-to-end sampling: samples, reconstruction, special cases, finite index."""

import numpy as np
import pytest

from groupsampling import (DimensionMismatchError, GroupMismatchError, GroupSequence,
                           GroupSpec, ProductSubgroup, SequenceMatrix, SingularCharacterError,
                           TransferMatrix, TranslationModel, VectorSequence,
                           analysis_transform, apply, coset_representatives, diagnostics,
                           finite_index_model, finite_index_procedure, interpolation_check,
                           kernel_witness, make_procedure, reconstruct_coefficients,
                           reconstruct_function, sample_matrix,
                           semidirect_sample_and_reconstruct, shannon_procedure, synthesize,
                           take_samples)


def shannon_z4_model():
    g = GroupSpec((4,))
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                            (GroupSequence(g, [1, 0.5, 0, 0]),))


def identity_model():
    g = GroupSpec((4,))
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                            (GroupSequence.delta(g),))


class TestTakeSamples:
    def test_identity_scenario(self):
        proc = make_procedure(identity_model(), probes=[GroupSequence.delta(GroupSpec((4,)))])
        rng = np.random.default_rng(0)
        x = VectorSequence(GroupSpec((4,)), rng.standard_normal((1, 4)))
        np.testing.assert_allclose(take_samples(proc, x).values, x.values)

    def test_zero_coefficients(self):
        proc = shannon_procedure(shannon_z4_model())
        habs = proc.system.group
        out = take_samples(proc, VectorSequence.zeros(habs, 1))
        assert np.abs(out.values).max() == 0.0

    def test_pointwise_samples_equal_function_values(self):
        model = shannon_z4_model()
        proc = shannon_procedure(model)
        x = VectorSequence(proc.system.group, [[1, 1]])
        samples = take_samples(proc, x)
        np.testing.assert_allclose(samples.values, [[1, 1]])
        f = synthesize(model, x)
        np.testing.assert_allclose(f.values, [1, 0.5, 1, 0.5])
        table = analysis_transform(model, f)
        emb = model.subgroup.embedding_indices
        np.testing.assert_allclose(samples.values[0], table.flat()[emb], atol=1e-12)

    def test_pointwise_cross_check_random(self):
        rng = np.random.default_rng(1)
        g = GroupSpec((8,))
        model = TranslationModel(g, GroupSequence(g, rng.standard_normal(8)),
                                 ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, rng.standard_normal(8)),))
        a = sample_matrix(model, [model.phi])
        x = VectorSequence(a.group, rng.standard_normal((1, 4))
                           + 1j * rng.standard_normal((1, 4)))
        samples = apply(a, x)
        table = analysis_transform(model, synthesize(model, x))
        emb = model.subgroup.embedding_indices
        assert np.abs(samples.values[0] - table.flat()[emb]).max() < 1e-10


class TestReconstructCoefficients:
    def test_identity(self):
        proc = make_procedure(identity_model(), probes=[GroupSequence.delta(GroupSpec((4,)))])
        rng = np.random.default_rng(2)
        x = VectorSequence(GroupSpec((4,)), rng.standard_normal((1, 4)))
        back = reconstruct_coefficients(proc, take_samples(proc, x))
        np.testing.assert_allclose(back.values, x.values, atol=1e-12)

    def test_random_roundtrips(self):
        rng = np.random.default_rng(3)
        g = GroupSpec((2, 3))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1, 1)),
                                 (GroupSequence.delta(g),
                                  GroupSequence.delta(g, g.element((0, 1)))))
        while True:
            a = SequenceMatrix(g, rng.standard_normal((3, 2, 6)))
            d = diagnostics(a)
            if d.beta > 0 and d.delta / d.beta ** 2 > 1e-6:
                break
        proc = make_procedure(model, system=a)
        for _ in range(100):
            x = VectorSequence(g, rng.standard_normal((2, 6))
                               + 1j * rng.standard_normal((2, 6)))
            back = reconstruct_coefficients(proc, take_samples(proc, x))
            err = np.abs(back.values - x.values).max()
            assert err < 1e-9 * max(1.0, np.abs(x.values).max())

    def test_zero_samples(self):
        proc = shannon_procedure(shannon_z4_model())
        habs = proc.system.group
        out = reconstruct_coefficients(proc, VectorSequence.zeros(habs, 1))
        assert np.abs(out.values).max() == 0.0

    def test_stability_sandwich(self):
        rng = np.random.default_rng(4)
        g = GroupSpec((5,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),
                                  GroupSequence.delta(g, g.element((1,)))))
        a = SequenceMatrix(g, rng.standard_normal((3, 2, 5)))
        d = diagnostics(a)
        assert d.is_frame
        proc = make_procedure(model, system=a)
        for _ in range(20):
            x = VectorSequence(g, rng.standard_normal((2, 5)))
            energy = take_samples(proc, x).norm_sq()
            xsq = x.norm_sq()
            assert d.alpha * xsq * (1 - 1e-9) - 1e-12 <= energy
            assert energy <= d.beta * xsq * (1 + 1e-9) + 1e-12


class TestSamplingFunctions:
    def test_identity_scenario(self):
        proc = make_procedure(identity_model(), probes=[GroupSequence.delta(GroupSpec((4,)))])
        funcs = proc.sampling_functions
        np.testing.assert_allclose(funcs.functions[0].flat(), [1, 0, 0, 0])

    def test_shannon_z4_kernel(self):
        proc = shannon_procedure(shannon_z4_model())
        np.testing.assert_allclose(proc.sampling_functions.functions[0].flat(),
                                   [1, 0.5, 0, 0], atol=1e-12)
        np.testing.assert_allclose(proc.sampling_functions.betas[0].values,
                                   [1, 0.5, 0, 0], atol=1e-12)

    def test_bounds_positive(self):
        proc = shannon_procedure(shannon_z4_model())
        lo, hi = proc.dual.frame_bounds
        assert 0 < lo <= hi


class TestReconstructFunction:
    def test_shannon_z4(self):
        model = shannon_z4_model()
        proc = shannon_procedure(model)
        x = VectorSequence(proc.system.group, [[1, 1]])
        out = reconstruct_function(proc, take_samples(proc, x))
        np.testing.assert_allclose(out.flat(), [1, 0.5, 1, 0.5], atol=1e-12)

    def test_zero_samples(self):
        proc = shannon_procedure(shannon_z4_model())
        out = reconstruct_function(proc, VectorSequence.zeros(proc.system.group, 1))
        assert out.max_abs() == 0.0

    def test_samples_on_another_group_of_the_same_order(self):
        """Samples on Z16 are not samples on the Z4 x Z4 lattice of Z8 x Z8."""
        rng = np.random.default_rng(7)
        g = GroupSpec((8, 8))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2, 2)),
                                 (GroupSequence(g, rng.standard_normal(64)),))
        proc = make_procedure(model, probes=[GroupSequence(g, rng.standard_normal(64))])
        samples = VectorSequence(GroupSpec((16,)), rng.standard_normal((1, 16)))
        with pytest.raises(GroupMismatchError):
            reconstruct_coefficients(proc, samples)
        with pytest.raises(GroupMismatchError):
            reconstruct_function(proc, samples)

    def test_two_path_consistency(self):
        rng = np.random.default_rng(5)
        g = GroupSpec((8,))
        model = TranslationModel(g, GroupSequence(g, rng.standard_normal(8)),
                                 ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, rng.standard_normal(8)),))
        probes = [model.phi, GroupSequence(g, rng.standard_normal(8))]
        proc = make_procedure(model, probes=probes)
        x = VectorSequence(proc.system.group, rng.standard_normal((1, 4))
                           + 1j * rng.standard_normal((1, 4)))
        samples = take_samples(proc, x)
        direct = reconstruct_function(proc, samples)
        via_coeffs = analysis_transform(
            model, synthesize(model, reconstruct_coefficients(proc, samples)))
        assert (direct - via_coeffs).max_abs() < 1e-9

    def test_dual_choice_does_not_change_function(self):
        rng = np.random.default_rng(6)
        g = GroupSpec((6,))
        model = TranslationModel(g, GroupSequence(g, rng.standard_normal(6)),
                                 ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, rng.standard_normal(6)),))
        probes = [model.phi, GroupSequence(g, rng.standard_normal(6)),
                  GroupSequence(g, rng.standard_normal(6))]
        mp_proc = make_procedure(model, probes=probes)
        habs = mp_proc.system.group
        c = TransferMatrix(habs, rng.standard_normal((habs.order, 1, 3))
                           + 1j * rng.standard_normal((habs.order, 1, 3)))
        fam_proc = make_procedure(model, system=mp_proc.system, left_inverse="family", c=c)
        x = VectorSequence(habs, rng.standard_normal((1, habs.order)))
        samples = take_samples(mp_proc, x)
        out_mp = reconstruct_function(mp_proc, samples)
        out_fam = reconstruct_function(fam_proc, samples)
        assert (out_mp - out_fam).max_abs() < 1e-9
        # the kernels themselves differ even though the reconstruction agrees
        diff = max((a - b).max_abs() for a, b in
                   zip(mp_proc.sampling_functions.functions,
                       fam_proc.sampling_functions.functions))
        assert diff > 1e-6


class TestShannon:
    def test_orthonormal_case(self):
        proc = shannon_procedure(identity_model())
        np.testing.assert_allclose(proc.sampling_functions.functions[0].flat(),
                                   [1, 0, 0, 0], atol=1e-14)

    def test_z4_scenario(self):
        proc = shannon_procedure(shannon_z4_model())
        np.testing.assert_allclose(proc.system.values[0, 0], [1, 0])
        assert proc.diag.is_riesz

    def test_vanishing_transform_rejected_with_character(self):
        g = GroupSpec((2,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                                 (GroupSequence(g, [1, 1]),))
        with pytest.raises(SingularCharacterError) as err:
            shannon_procedure(model)
        assert err.value.characters == [(1,)]

    def test_multi_generator_rejected(self):
        g = GroupSpec((4,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                                 (GroupSequence.delta(g),
                                  GroupSequence.delta(g, g.element((1,)))))
        with pytest.raises(DimensionMismatchError):
            shannon_procedure(model)

    def test_kernel_direction_witnesses_failure(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 1]]], dtype=complex))
        w = kernel_witness(a)
        samples = apply(a, w)
        assert w.norm() == pytest.approx(1.0)
        assert samples.norm() < 1e-12
        # best-effort recovery from those samples cannot return the witness
        recovered_norm = samples.norm()  # any bounded dual maps ~0 samples to ~0
        assert abs(w.norm() - recovered_norm) > 0.9


class TestInterpolation:
    def test_identity(self):
        proc = make_procedure(identity_model(), probes=[GroupSequence.delta(GroupSpec((4,)))])
        assert interpolation_check(proc) == pytest.approx(0.0, abs=1e-14)

    def test_shannon_z4(self):
        proc = shannon_procedure(shannon_z4_model())
        assert interpolation_check(proc) < 1e-10

    def test_random_square_riesz(self):
        rng = np.random.default_rng(7)
        g = GroupSpec((3,))
        model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,)),
                                 (GroupSequence.delta(g),
                                  GroupSequence.delta(g, g.element((1,)))))
        while True:
            a = SequenceMatrix(g, rng.standard_normal((2, 2, 3)))
            d = diagnostics(a)
            if d.is_riesz and d.delta / d.beta ** 2 > 1e-4:
                break
        proc = make_procedure(model, system=a, left_inverse="square")
        assert interpolation_check(proc) < 1e-8

    def test_non_square_rejected(self):
        rng = np.random.default_rng(8)
        g = GroupSpec((6,))
        model = TranslationModel(g, GroupSequence(g, rng.standard_normal(6)),
                                 ProductSubgroup(g, (2,)),
                                 (GroupSequence(g, rng.standard_normal(6)),))
        probes = [model.phi, GroupSequence(g, rng.standard_normal(6))]
        proc = make_procedure(model, probes=probes)
        with pytest.raises(DimensionMismatchError):
            interpolation_check(proc)


def z8_finite_index_setup(seed=9):
    rng = np.random.default_rng(seed)
    g = GroupSpec((8,))
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                             (GroupSequence(g, [1, 0.5, 0.25, 0, 0, 0, 0, 0]),))
    probes = [model.phi, GroupSequence(g, [0.5, 0.5, 0, 0, 0, 0, 0, 0])]
    return model, probes, rng


class TestFiniteIndex:
    def test_trivial_inner_subgroup(self):
        model, probes, _ = z8_finite_index_setup()
        red = finite_index_model(model, (1,))
        assert red.inner.index == 1
        assert red.model.n_generators == model.n_generators
        np.testing.assert_array_equal(red.model.generators[0].values,
                                      model.generators[0].values)
        assert red.model.subgroup.strides == model.subgroup.strides

    def test_generator_ordering_and_translation(self):
        model, _, _ = z8_finite_index_setup()
        red = finite_index_model(model, (2,))
        assert red.inner.index == 2
        assert red.model.subgroup.strides == (4,)
        base = model.generators[0]
        np.testing.assert_array_equal(red.model.generators[0].values, base.values)
        shifted = base.shift(model.subgroup.embed(coset_representatives(red.inner)[1]))
        np.testing.assert_array_equal(red.model.generators[1].values, shifted.values)

    def test_regroup_roundtrip_exact(self):
        model, _, rng = z8_finite_index_setup()
        red = finite_index_model(model, (2,))
        x = VectorSequence(model.subgroup.abstract_group,
                           rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        back = red.ungroup_coefficients(red.regroup_coefficients(x))
        assert np.array_equal(back.values, x.values)

    def test_sample_coherence_is_bitwise(self):
        model, probes, rng = z8_finite_index_setup()
        red = finite_index_model(model, (2,))
        a_h = sample_matrix(model, probes)
        x = VectorSequence(model.subgroup.abstract_group,
                           rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        via_h = red.downsample(apply(a_h, x))
        via_r = apply(red.regroup_system(a_h), red.regroup_coefficients(x))
        assert np.array_equal(via_h.values, via_r.values)

    def test_regrouped_system_matches_fresh_inner_products(self):
        model, probes, _ = z8_finite_index_setup()
        red = finite_index_model(model, (2,))
        fresh = sample_matrix(red.model, probes)
        regrouped = red.regroup_system(sample_matrix(model, probes))
        assert np.abs(fresh.values - regrouped.values).max() < 1e-12

    def test_reconstruction_on_z8(self):
        model, probes, rng = z8_finite_index_setup()
        proc = finite_index_procedure(model, (2,), probes=probes)
        red = finite_index_model(model, (2,))
        for _ in range(10):
            x = VectorSequence(model.subgroup.abstract_group,
                               rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
            xr = red.regroup_coefficients(x)
            samples = take_samples(proc, xr)
            back = reconstruct_coefficients(proc, samples)
            assert np.abs(back.values - xr.values).max() < 1e-9
            f = synthesize(model, x)
            table = analysis_transform(model, f)
            out = reconstruct_function(proc, samples)
            assert (out - table).max_abs() < 1e-9 * max(1.0, table.max_abs())

    def test_insufficient_channels_rejected(self):
        model, probes, _ = z8_finite_index_setup()
        with pytest.raises(DimensionMismatchError) as err:
            finite_index_procedure(model, (2,), probes=probes[:1])
        assert "2" in str(err.value)

    def test_oversampling_rescues_vanishing_window(self):
        # the window transform vanishes at one character, so pointwise-only
        # sampling fails; two channels at the half-rate subgroup recover stability
        g = GroupSpec((4,))
        gen = GroupSequence(g, [1, 0.5, 0, 0])
        window = GroupSequence(g, [1, 1, 0, 0])
        model = TranslationModel(g, window, ProductSubgroup(g, (1,)), (gen,))
        with pytest.raises(SingularCharacterError) as err:
            shannon_procedure(model)
        assert (2,) in err.value.characters
        probes = [window, GroupSequence.delta(g)]
        proc = finite_index_procedure(model, (2,), probes=probes)
        assert proc.diag.is_frame


class TestSemidirectPipeline:
    def test_reconstruction_from_lattice_samples(self):
        from groupsampling import SemidirectModel, semidirect_analysis, semidirect_reduce
        rng = np.random.default_rng(10)
        torus = GroupSpec((12, 12))
        model = SemidirectModel(torus, "C2", ProductSubgroup(torus, (3, 3)),
                                GroupSequence(torus, rng.standard_normal(144)),
                                GroupSequence(torus, rng.standard_normal(144)))
        red = semidirect_reduce(model)
        probes = [GroupSequence(torus, rng.standard_normal(144)) for _ in range(4)]
        proc = make_procedure(red.model, probes=probes)
        kdim = red.model.subgroup.abstract_group.order
        coeffs = rng.standard_normal((kdim, 2)) + 1j * rng.standard_normal((kdim, 2))
        x = VectorSequence(red.model.subgroup.abstract_group, coeffs.T)
        f = synthesize(red.model, x)
        out = semidirect_sample_and_reconstruct(model, proc, f)
        direct = semidirect_analysis(model, f)
        assert (out - direct).max_abs() < 1e-8 * max(1.0, direct.max_abs())

    def test_trivial_rotation_group_collapses(self):
        from groupsampling import SemidirectModel, semidirect_analysis, semidirect_reduce
        rng = np.random.default_rng(11)
        torus = GroupSpec((4, 4))
        model = SemidirectModel(torus, "C1", ProductSubgroup(torus, (2, 2)),
                                GroupSequence(torus, rng.standard_normal(16)),
                                GroupSequence(torus, rng.standard_normal(16)))
        red = semidirect_reduce(model)
        probes = [GroupSequence(torus, rng.standard_normal(16)) for _ in range(2)]
        proc = make_procedure(red.model, probes=probes)
        coeffs = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        x = VectorSequence(red.model.subgroup.abstract_group, coeffs.T)
        f = synthesize(red.model, x)
        out = semidirect_sample_and_reconstruct(model, proc, f)
        assert out.n_components == 1
        abelian = reconstruct_function(proc, take_samples(proc, x))
        assert np.abs(out.values[0] - abelian.flat()).max() < 1e-9

    def test_zero_function(self):
        from groupsampling import SemidirectModel, semidirect_reduce
        rng = np.random.default_rng(12)
        torus = GroupSpec((12, 12))
        model = SemidirectModel(torus, "C2", ProductSubgroup(torus, (3, 3)),
                                GroupSequence(torus, rng.standard_normal(144)),
                                GroupSequence(torus, rng.standard_normal(144)))
        red = semidirect_reduce(model)
        probes = [GroupSequence(torus, rng.standard_normal(144)) for _ in range(4)]
        proc = make_procedure(red.model, probes=probes)
        out = semidirect_sample_and_reconstruct(model, proc, GroupSequence.zeros(torus))
        assert out.max_abs() < 1e-10
