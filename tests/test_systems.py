"""Matrix convolution systems: action, transfer matrices, adjoints, composition."""

import json

import numpy as np
import pytest

from groupsampling import (DimensionMismatchError, GroupSequence, GroupSpec, SchemaError,
                           SequenceMatrix, TransferMatrix, VectorSequence, adjoint_system, apply,
                           compose, from_transfer, transfer)


def rand_system(rng, group, m, n, complex_entries=True):
    vals = rng.standard_normal((m, n, group.order))
    if complex_entries:
        vals = vals + 1j * rng.standard_normal((m, n, group.order))
    return SequenceMatrix(group, vals)


def rand_vector(rng, group, n):
    vals = rng.standard_normal((n, group.order)) + 1j * rng.standard_normal((n, group.order))
    return VectorSequence(group, vals)


def brute_apply(a: SequenceMatrix, x: VectorSequence) -> np.ndarray:
    """Triple loop straight from the definition."""
    g = a.group
    out = np.zeros((a.rows, g.order), dtype=complex)
    for m in range(a.rows):
        for n in range(a.cols):
            for h in g.elements():
                for hp in g.elements():
                    diff_idx = g.ravel(np.array(h.coords) - np.array(hp.coords))[0]
                    out[m, h.index] += a.values[m, n, diff_idx] * x.values[n, hp.index]
    return out


class TestApply:
    def test_identity_system(self):
        g = GroupSpec((2, 3))
        rng = np.random.default_rng(0)
        x = rand_vector(rng, g, 2)
        out = apply(SequenceMatrix.identity(g, 2), x)
        np.testing.assert_array_equal(out.values, x.values)

    def test_zero_input(self):
        g = GroupSpec((4,))
        a = rand_system(np.random.default_rng(1), g, 2, 2)
        out = apply(a, VectorSequence.zeros(g, 2))
        assert np.abs(out.values).max() == 0.0

    def test_row_of_deltas(self):
        g = GroupSpec((2,))
        a = SequenceMatrix(g, np.array([[[1, 0], [0, 1]]], dtype=complex))
        x = VectorSequence(g, np.array([[1, 0], [1, 0]], dtype=complex))
        out = apply(a, x)
        np.testing.assert_allclose(out.values, [[1, 1]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        g = GroupSpec((2, 2))
        a = rand_system(rng, g, 2, 3)
        x = rand_vector(rng, g, 3)
        np.testing.assert_allclose(apply(a, x).values, brute_apply(a, x), atol=1e-12)

    def test_analysis_operator_identity(self):
        # sample m at h equals the inner product against the translated adjoint column
        rng = np.random.default_rng(3)
        g = GroupSpec((3, 2))
        a = rand_system(rng, g, 2, 2)
        x = rand_vector(rng, g, 2)
        samples = apply(a, x)
        a_star = adjoint_system(a)
        for m in range(a.rows):
            col = a_star.column(m)
            for h in range(g.order):
                expected = x.inner(col.shift(h))
                assert abs(samples.values[m, h] - expected) < 1e-10

    def test_dimension_mismatch(self):
        g = GroupSpec((2,))
        a = rand_system(np.random.default_rng(4), g, 2, 3)
        with pytest.raises(DimensionMismatchError):
            apply(a, rand_vector(np.random.default_rng(5), g, 2))


class TestTransfer:
    def test_identity_transfer(self):
        g = GroupSpec((2, 2))
        t = transfer(SequenceMatrix.identity(g, 3))
        for k in range(g.order):
            np.testing.assert_allclose(t.at(k), np.eye(3))

    def test_scalar_example(self):
        g = GroupSpec((4,))
        a = SequenceMatrix(g, np.array([[[1, 0.5, 0, 0]]], dtype=complex))
        t = transfer(a)
        np.testing.assert_allclose(t.matrices[:, 0, 0], [1.5, 1 - 0.5j, 0.5, 1 + 0.5j],
                                   atol=1e-14)

    def test_zero_matrix(self):
        g = GroupSpec((3,))
        t = transfer(SequenceMatrix.zeros(g, 2, 2))
        assert np.abs(t.matrices).max() == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        a = rand_system(rng, GroupSpec((3, 4)), 2, 3)
        back = from_transfer(transfer(a))
        assert np.abs(back.values - a.values).max() < 1e-12

    def test_matrix_level_convolution_theorem(self):
        rng = np.random.default_rng(7)
        g = GroupSpec((5,))
        a = rand_system(rng, g, 3, 2)
        x = rand_vector(rng, g, 2)
        lhs = transfer(SequenceMatrix(g, apply(a, x).values[:, None, :])).matrices[:, :, 0]
        xhat = transfer(SequenceMatrix(g, x.values[:, None, :])).matrices[:, :, 0]
        rhs = np.einsum("kmn,kn->km", transfer(a).matrices, xhat)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())


class TestAdjoint:
    def test_self_adjoint_delta(self):
        g = GroupSpec((3,))
        a = SequenceMatrix.identity(g, 2)
        np.testing.assert_array_equal(adjoint_system(a).values, a.values)

    def test_scalar_involution(self):
        g = GroupSpec((4,))
        a = SequenceMatrix(g, np.array([[[1, 0.5, 0, 0]]], dtype=complex))
        np.testing.assert_array_equal(adjoint_system(a).values[0, 0], [1, 0, 0, 0.5])

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(8)
        g = GroupSpec((2, 3))
        a = rand_system(rng, g, 3, 2)
        x = rand_vector(rng, g, 2)
        y = rand_vector(rng, g, 3)
        lhs = apply(a, x).inner(y)
        rhs = x.inner(apply(adjoint_system(a), y))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))

    def test_double_adjoint_exact(self):
        rng = np.random.default_rng(9)
        a = rand_system(rng, GroupSpec((4, 2)), 3, 2)
        back = adjoint_system(adjoint_system(a))
        assert np.array_equal(back.values, a.values)

    def test_transfer_is_conjugate_transpose_exactly(self):
        rng = np.random.default_rng(10)
        a = rand_system(rng, GroupSpec((3, 3)), 2, 4)
        lhs = transfer(adjoint_system(a)).matrices
        rhs = np.conj(transfer(a).matrices.transpose(0, 2, 1))
        assert np.array_equal(lhs, rhs)

    def test_fresh_transform_agrees(self):
        # recomputing the adjoint's transfer from its sequences stays within round-off
        rng = np.random.default_rng(11)
        a = rand_system(rng, GroupSpec((4,)), 2, 2)
        star = adjoint_system(a)
        fresh = SequenceMatrix(star.group, star.values)
        assert np.abs(transfer(fresh).matrices - transfer(star).matrices).max() < 1e-12


class TestCompose:
    def test_identity_composition(self):
        g = GroupSpec((2, 2))
        rng = np.random.default_rng(12)
        a = rand_system(rng, g, 3, 3)
        out = compose(SequenceMatrix.identity(g, 3), a)
        assert np.abs(out.values - a.values).max() < 1e-12

    def test_zero_composition(self):
        g = GroupSpec((3,))
        rng = np.random.default_rng(13)
        b = rand_system(rng, g, 2, 3)
        out = compose(b, SequenceMatrix.zeros(g, 3, 2))
        assert np.abs(out.values).max() < 1e-14

    def test_transfer_of_composition(self):
        rng = np.random.default_rng(14)
        g = GroupSpec((3,))
        b = rand_system(rng, g, 2, 3)
        a = rand_system(rng, g, 3, 2)
        lhs = transfer(compose(b, a)).matrices
        rhs = np.matmul(transfer(b).matrices, transfer(a).matrices)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_action_matches_two_applications(self):
        rng = np.random.default_rng(15)
        g = GroupSpec((2, 3))
        b = rand_system(rng, g, 2, 3)
        a = rand_system(rng, g, 3, 2)
        x = rand_vector(rng, g, 2)
        lhs = apply(compose(b, a), x).values
        rhs = apply(b, apply(a, x)).values
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())

    def test_dimension_mismatch(self):
        g = GroupSpec((2,))
        rng = np.random.default_rng(16)
        with pytest.raises(DimensionMismatchError):
            compose(rand_system(rng, g, 2, 3), rand_system(rng, g, 2, 3))


def _payload_object(cls):
    """A seeded value of a class with a JSON payload, on a group of two factors."""
    rng, g = np.random.default_rng(17), GroupSpec((2, 3))
    shape = {GroupSequence: (g.order,), VectorSequence: (2, g.order),
             SequenceMatrix: (2, 3, g.order), TransferMatrix: (g.order, 2, 3)}[cls]
    return cls(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


LOADED = [GroupSequence, VectorSequence, SequenceMatrix, TransferMatrix]


class TestJson:
    @pytest.mark.parametrize("cls", LOADED, ids=lambda cls: cls.__name__)
    def test_roundtrip_is_bitwise(self, cls):
        """Signed zeros too: each real and imaginary part keeps its sign of zero."""
        drawn = _payload_object(cls)
        values = drawn.values.copy()
        values.reshape(-1)[:4] = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0),
                                  complex(0.0, -0.0)]
        x = cls(drawn.group, values)
        back = cls.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
        assert back.group == x.group and back.values.tobytes() == x.values.tobytes()

    @pytest.mark.parametrize("cls", LOADED, ids=lambda cls: cls.__name__)
    def test_a_misspelled_key_is_rejected(self, cls):
        """Each key of each object of the payload, written in capitals, is unknown to the loader."""
        payload = _payload_object(cls).to_json_dict()
        for obj in (payload, *payload.get("entries", ()), *payload.get("components", ())):
            for key in list(obj):
                misspelled = key.upper()
                obj[misspelled] = obj.pop(key)
                unknown = rf"^payload\S*: unknown keys \['{misspelled}'\]"
                with pytest.raises(SchemaError, match=unknown):
                    cls.from_json_dict(payload, "payload")
                obj[key] = obj.pop(misspelled)
        cls.from_json_dict(payload, "payload")

    @pytest.mark.parametrize("rows, cols", [(1.7, True), ("1", 1.9), (1, 1.0), (0, 1), (1, -1)])
    @pytest.mark.parametrize("load, payload", [
        (SequenceMatrix.from_json_dict, {"moduli": [4], "entries": [{"re": [1.0, 0.0, 0.0, 0.0]}]}),
        (TransferMatrix.from_json_dict, {"moduli": [4], "re": [[[1.0]]] * 4, "im": [[[0.0]]] * 4}),
    ], ids=["system", "transfer"])
    def test_loaders_take_rows_and_cols_as_integers(self, load, payload, rows, cols):
        """The loaders apply the config's integer rule themselves, without ``parse_config``."""
        load({**payload, "rows": 1, "cols": 1})
        with pytest.raises(SchemaError, match=r"expected an integer >= 1, got "):
            load({**payload, "rows": rows, "cols": cols})
