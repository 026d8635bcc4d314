"""Frame diagnostics against the dense translate-family oracle."""

import numpy as np
import pytest

from groupsampling import (CapExceededError, GroupSpec, SequenceMatrix, apply,
                           check_determinant_sandwich, diagnostics, kernel_witness,
                           oracle_frame_bounds)


def rand_system(rng, group, m, n, complex_entries=True):
    vals = rng.standard_normal((m, n, group.order))
    if complex_entries:
        vals = vals + 1j * rng.standard_normal((m, n, group.order))
    return SequenceMatrix(group, vals)


class TestDiagnostics:
    def test_identity_scalar(self):
        d = diagnostics(SequenceMatrix.identity(GroupSpec((4,)), 1))
        assert (d.alpha, d.beta, d.delta) == (1.0, 1.0, 1.0)
        assert d.is_frame and d.is_riesz

    def test_two_channel_constant(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 0]], [[1, 0]]], dtype=complex))
        d = diagnostics(a)
        assert d.alpha == pytest.approx(2.0)
        assert d.beta == pytest.approx(2.0)
        assert d.delta == pytest.approx(2.0)
        assert d.is_frame and not d.is_riesz

    def test_vanishing_transform(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 1]]], dtype=complex))
        d = diagnostics(a)
        assert d.delta == 0.0 and not d.is_frame

    def test_scalar_z4(self):
        g = GroupSpec((4,))
        a = SequenceMatrix(g, np.array([[[1, 0.5, 0, 0]]], dtype=complex))
        d = diagnostics(a)
        assert d.delta == pytest.approx(0.25)
        assert d.beta == pytest.approx(2.25)
        assert d.is_frame

    def test_all_zero_system(self):
        d = diagnostics(SequenceMatrix.zeros(GroupSpec((3,)), 2, 2))
        assert d.delta == 0.0 and not d.is_frame and not d.is_riesz

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diagnostics(SequenceMatrix.identity(GroupSpec((2,)), 1), tol=-1.0)

    def test_json_report_shape(self):
        g = GroupSpec((2, 2))
        report = diagnostics(SequenceMatrix.identity(g, 2)).to_json_dict()
        assert set(report) == {"alpha", "beta", "delta", "is_frame", "is_riesz",
                               "tol", "per_xi"}
        assert len(report["per_xi"]) == g.order
        assert report["per_xi"][1]["xi"] == [0, 1]
        assert len(report["per_xi"][0]["eigs"]) == 2


class TestOracle:
    def test_identity(self):
        lo, hi = oracle_frame_bounds(SequenceMatrix.identity(GroupSpec((4,)), 1))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_two_channel_constant(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 0]], [[1, 0]]], dtype=complex))
        lo, hi = oracle_frame_bounds(a)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0)

    def test_rank_deficient(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 1]]], dtype=complex))
        lo, _ = oracle_frame_bounds(a)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_matches_transfer_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            moduli = tuple(int(m) for m in rng.integers(1, 5, size=2))
            g = GroupSpec(moduli)
            n = int(rng.integers(1, 3))
            m = n + int(rng.integers(0, 3))
            a = rand_system(rng, g, m, n)
            d = diagnostics(a)
            lo, hi = oracle_frame_bounds(a)
            scale = max(d.beta, 1e-30)
            assert abs(lo - d.alpha) < 1e-8 * scale
            assert abs(hi - d.beta) < 1e-8 * scale

    def test_delta_positive_iff_oracle_lower_positive(self):
        rng = np.random.default_rng(1)
        g = GroupSpec((3,))
        for _ in range(20):
            a = rand_system(rng, g, 2, 2)
            d = diagnostics(a)
            lo, _ = oracle_frame_bounds(a)
            if d.beta > 0 and d.delta / d.beta ** a.cols > 1e-8:
                assert (d.delta > 0) == (lo > 1e-12 * d.beta)

    def test_cap(self):
        g = GroupSpec((64, 64))
        with pytest.raises(CapExceededError):
            oracle_frame_bounds(SequenceMatrix.identity(g, 2))


class TestDeterminantSandwich:
    def test_identity(self):
        assert check_determinant_sandwich(SequenceMatrix.identity(GroupSpec((2,)), 1))

    def test_scalar_equality_case(self):
        g = GroupSpec((4,))
        a = SequenceMatrix(g, np.array([[[1, 0.5, 0, 0]]], dtype=complex))
        d = diagnostics(a)
        assert d.alpha == d.delta  # single column: the two quantities coincide
        assert check_determinant_sandwich(a)

    def test_random_systems(self):
        rng = np.random.default_rng(2)
        g = GroupSpec((5,))
        for _ in range(100):
            assert check_determinant_sandwich(rand_system(rng, g, 3, 2))


class TestKernelWitness:
    def test_degenerate_scalar(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 1]]], dtype=complex))
        w = kernel_witness(a)
        assert w.norm() == pytest.approx(1.0)
        assert apply(a, w).norm() < 1e-12

    def test_degenerate_tall_system(self):
        # two proportional columns force a kernel direction at every character
        g = GroupSpec((3,))
        rng = np.random.default_rng(3)
        col = rng.standard_normal((3, 1, g.order)) + 1j * rng.standard_normal((3, 1, g.order))
        a = SequenceMatrix(g, np.concatenate([col, 2 * col], axis=1))
        assert diagnostics(a).delta == 0.0
        w = kernel_witness(a)
        assert w.norm() == pytest.approx(1.0)
        assert apply(a, w).norm() < 1e-10
