"""Rotation-twisted scenario on a square torus: group law, reduction, regrouping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import (FrameConditionError, GroupElement, GroupSequence, GroupSpec,
                           ProductSubgroup, SemidirectModel, VectorSequence, analysis_transform,
                           compose_group_law, convolve, diagnostics, involution, make_procedure,
                           quasi_regular_apply, riesz_sequence_check, rotate_sequence,
                           sample_matrix, semidirect_analysis, semidirect_reduce, synthesize)
from groupsampling import models


def build_model(L, stride, label, seed=0):
    rng = np.random.default_rng(seed)
    torus = GroupSpec((L, L))
    return SemidirectModel(
        torus=torus,
        gamma_label=label,
        lattice=ProductSubgroup(torus, (stride, stride)),
        phi=GroupSequence(torus, rng.standard_normal(L * L)),
        varphi=GroupSequence(torus, rng.standard_normal(L * L)),
    ), rng


class TestConstruction:
    def test_rejects_rectangular_torus(self):
        g = GroupSpec((4, 2))
        with pytest.raises(ValueError):
            SemidirectModel(g, "C2", ProductSubgroup(g, (2, 2)),
                            GroupSequence.delta(g), GroupSequence.delta(g))

    def test_rejects_unequal_strides(self):
        g = GroupSpec((4, 4))
        with pytest.raises(ValueError):
            SemidirectModel(g, "C2", ProductSubgroup(g, (2, 1)),
                            GroupSequence.delta(g), GroupSequence.delta(g))

    def test_rejects_unknown_label(self):
        g = GroupSpec((4, 4))
        with pytest.raises(ValueError):
            SemidirectModel(g, "C3", ProductSubgroup(g, (2, 2)),
                            GroupSequence.delta(g), GroupSequence.delta(g))

    def test_rotation_counts(self):
        for label, count in [("C1", 1), ("C2", 2), ("C4", 4)]:
            model, _ = build_model(4, 2, label)
            assert model.n_rotations == count


class TestRotationTable:
    """``rotation_perms``: row i holds the index of gamma_i^T t for every point t."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.sampled_from(["C1", "C2", "C4"]))
    def test_rows_are_the_rotation_group(self, side, label):
        torus = GroupSpec((side, side))
        model = SemidirectModel(torus, label, ProductSubgroup(torus, (1, 1)),
                                GroupSequence.delta(torus), GroupSequence.delta(torus))
        perms, points = model.rotation_perms, np.arange(torus.order)
        assert perms.shape == (model.n_rotations, torus.order)
        assert np.array_equal(perms[0], points)
        for row, gamma in zip(perms, model.rotations):
            assert np.array_equal(np.sort(row), points)  # a permutation
            for t in torus.elements():
                assert row[t.index] == GroupElement(torus, tuple(gamma.T @ t.coords)).index
        zero = torus.identity()
        for i, j in itertools.product(range(model.n_rotations), repeat=2):
            _, k = compose_group_law(model, (zero, i), (zero, j))
            assert np.array_equal(perms[k], perms[j][perms[i]])

    def test_table_is_cached_and_read_only(self):
        model, _ = build_model(6, 2, "C4")
        perms = model.rotation_perms
        assert model.rotation_perms is perms
        with pytest.raises(ValueError):
            perms[1, 0] = 0
        with pytest.raises(ValueError):
            model.rotations[1][0, 0] = 0


class TestQuasiRegular:
    def test_identity_element(self):
        model, rng = build_model(4, 2, "C4")
        f = GroupSequence(model.torus, rng.standard_normal(16))
        out = quasi_regular_apply(model, (0, 0), 0, f)
        np.testing.assert_array_equal(out.values, f.values)

    def test_unitary_exactly(self):
        model, rng = build_model(4, 2, "C4", seed=1)
        for _ in range(10):
            f = GroupSequence(model.torus, rng.standard_normal(16)
                              + 1j * rng.standard_normal(16))
            s = model.torus.element_at(int(rng.integers(16)))
            g = int(rng.integers(4))
            out = quasi_regular_apply(model, s, g, f)
            assert out.norm_sq() == f.norm_sq()

    def test_composition_law_exact(self):
        model, rng = build_model(4, 2, "C4", seed=2)
        f = GroupSequence(model.torus, rng.standard_normal(16)
                          + 1j * rng.standard_normal(16))
        pairs = list(itertools.product(range(16), range(4)))
        for (s1, g1), (s2, g2) in itertools.product(pairs[:16], pairs[::3]):
            e1 = model.torus.element_at(s1)
            e2 = model.torus.element_at(s2)
            lhs = quasi_regular_apply(model, e1, g1,
                                      quasi_regular_apply(model, e2, g2, f))
            s3, g3 = compose_group_law(model, (e1, g1), (e2, g2))
            rhs = quasi_regular_apply(model, s3, g3, f)
            assert np.array_equal(lhs.values, rhs.values)

    def test_homomorphism_exhaustive_small_torus(self):
        # every pair of group elements on the (Z_2)^2 torus with quarter turns
        torus = GroupSpec((2, 2))
        model = SemidirectModel(torus, "C4", ProductSubgroup(torus, (1, 1)),
                                GroupSequence.delta(torus), GroupSequence.delta(torus))
        rng = np.random.default_rng(20)
        f = GroupSequence(torus, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        pairs = list(itertools.product(range(4), range(4)))
        for (s1, g1), (s2, g2) in itertools.product(pairs, pairs):
            e1 = torus.element_at(s1)
            e2 = torus.element_at(s2)
            lhs = quasi_regular_apply(model, e1, g1,
                                      quasi_regular_apply(model, e2, g2, f))
            s3, g3 = compose_group_law(model, (e1, g1), (e2, g2))
            rhs = quasi_regular_apply(model, s3, g3, f)
            assert np.array_equal(lhs.values, rhs.values)
            assert lhs.norm_sq() == f.norm_sq()

    def test_rotation_outside_group_rejected(self):
        model, rng = build_model(4, 2, "C2")
        f = GroupSequence(model.torus, rng.standard_normal(16))
        with pytest.raises(ValueError):
            quasi_regular_apply(model, (0, 0), [[0, -1], [1, 0]], f)


class TestReduce:
    def test_trivial_rotation_group(self):
        model, _ = build_model(4, 2, "C1")
        red = semidirect_reduce(model)
        assert red.model.n_generators == 1
        np.testing.assert_array_equal(red.model.generators[0].values,
                                      model.varphi.values)

    def test_half_turn_delta_moves(self):
        torus = GroupSpec((5, 5))
        model = SemidirectModel(
            torus, "C2", ProductSubgroup(torus, (1, 1)),
            GroupSequence.delta(torus),
            GroupSequence.delta(torus, torus.element((1, 0))))
        red = semidirect_reduce(model)
        expected = GroupSequence.delta(torus, torus.element((4, 0)))
        np.testing.assert_array_equal(red.model.generators[1].values, expected.values)

    def test_generators_are_rotated_copies(self):
        model, rng = build_model(4, 2, "C4", seed=4)
        red = semidirect_reduce(model)
        for i in range(4):
            expected = rotate_sequence(model, i, model.varphi)
            np.testing.assert_array_equal(red.model.generators[i].values, expected.values)


class TestStructuralDegeneracy:
    """A half-turn orbit over a stride-2 lattice is never a Riesz sequence.

    With stride 2 the characters that restrict trivially to the lattice are
    exactly the self-negating ones, where the rotated generator's transform
    coincides with the original's; the two columns of the cross-spectral
    matrix then collapse and no probe system can be stable.  The pipeline
    must detect and refuse this configuration.
    """

    def test_gram_singular_on_z4_stride2(self):
        model, _ = build_model(4, 2, "C2", seed=5)
        red = semidirect_reduce(model)
        lo, hi = riesz_sequence_check(red.model)
        assert abs(lo) < 1e-10 * hi

    def test_every_probe_system_degenerate(self):
        model, rng = build_model(4, 2, "C2", seed=6)
        red = semidirect_reduce(model)
        for _ in range(5):
            probes = [GroupSequence(model.torus, rng.standard_normal(16))
                      for _ in range(6)]
            a = sample_matrix(red.model, probes)
            d = diagnostics(a)
            assert not d.is_frame
            assert d.delta < 1e-12 * max(d.beta, 1.0) ** a.cols

    def test_procedure_refused(self):
        model, rng = build_model(4, 2, "C2", seed=7)
        red = semidirect_reduce(model)
        probes = [GroupSequence(model.torus, rng.standard_normal(16)) for _ in range(4)]
        with pytest.raises(FrameConditionError):
            make_procedure(red.model, probes=probes)


class TestAnalysis:
    def test_sectors_match_rotated_windows(self):
        model, rng = build_model(4, 2, "C4", seed=8)
        f = GroupSequence(model.torus, rng.standard_normal(16)
                          + 1j * rng.standard_normal(16))
        table = semidirect_analysis(model, f)
        assert table.sectors == 4
        for i in range(4):
            for s in [0, 3, 7, 12]:
                point = model.torus.element_at(s)
                shifted = quasi_regular_apply(model, point, i, model.phi)
                expected = f.inner(shifted)
                assert abs(table.at(point, i) - expected) < 1e-12

    @pytest.mark.parametrize("label", ["C2", "C4"])
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5, 0.9]),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_one_convolve_bitwise_per_window(self, label, f_zeros, phi_zeros, seed):
        """The analysis of the reduction, whose R windows are the rotated windows, is one
        stacked convolve.  Sparse operands change which operand the kernel gathers in that
        call; every sector stays bitwise the call for its window alone, and
        ``semidirect_analysis`` is that analysis."""
        rng, torus = np.random.default_rng(seed), GroupSpec((6, 6))
        f_values, phi_values = (rng.standard_normal(36) + 1j * rng.standard_normal(36)
                                for _ in range(2))
        f_values[rng.random(36) < f_zeros] = 0
        phi_values[rng.random(36) < phi_zeros] = 0
        model = SemidirectModel(torus, label, ProductSubgroup(torus, (2, 2)),
                                GroupSequence(torus, phi_values), GroupSequence.delta(torus))
        f = GroupSequence(torus, f_values)
        want = np.stack([convolve(f, involution(rotate_sequence(model, i, model.phi))).values
                         for i in range(model.n_rotations)])
        calls = []

        def counted(a, x, **kwargs):
            calls.append(a.values.shape)
            return convolve(a, x, **kwargs)

        reduced = semidirect_reduce(model).model
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "convolve", counted)
            got = analysis_transform(reduced, f).values
        assert calls == [(model.n_rotations, 36)]
        assert got.tobytes() == want.tobytes()
        assert semidirect_analysis(model, f).values.tobytes() == want.tobytes()

    def test_zero_function(self):
        model, _ = build_model(4, 2, "C2", seed=9)
        table = semidirect_analysis(model, GroupSequence.zeros(model.torus))
        assert table.max_abs() == 0.0

    def test_riesz_holds_on_stride3_torus12(self):
        # sampled discrete group iso to (Z_4)^2 semidirect with the half turn
        model, _ = build_model(12, 3, "C2", seed=10)
        red = semidirect_reduce(model)
        assert red.model.subgroup.abstract_group.moduli == (4, 4)
        lo, hi = riesz_sequence_check(red.model)
        assert lo > 1e-3 * hi

    def test_synthesis_consistent_with_quasi_regular(self):
        # synthesized expansions use U(k, identity) translates of the orbit
        model, rng = build_model(12, 3, "C2", seed=11)
        red = semidirect_reduce(model)
        kabs = red.model.subgroup.abstract_group
        coeffs = np.zeros((kabs.order, 2), dtype=complex)
        coeffs[3, 1] = 2.0
        x = VectorSequence(kabs, coeffs.T)
        f = synthesize(red.model, x)
        k_parent = red.model.subgroup.embed(kabs.element_at(3))
        expected = 2.0 * quasi_regular_apply(model, k_parent, 1, model.varphi).values
        assert np.abs(f.values - expected).max() < 1e-12
