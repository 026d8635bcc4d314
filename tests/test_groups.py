"""Group arithmetic, characters, transforms and convolution against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import (Character, FunctionOnG, GroupElement, GroupMismatchError,
                           GroupSequence, GroupSpec, ProductSubgroup, TransferMatrix,
                           VectorSequence, add, character_value, convolve, convolve_fft,
                           coset_representatives, dft, idft, involution, neg)


def brute_dft(x: GroupSequence) -> np.ndarray:
    """Direct-summation transform: x^(xi) = sum_h x(h) conj(xi(h))."""
    g = x.group
    out = np.zeros(g.order, dtype=complex)
    for k, xi in enumerate(g.elements()):
        chi = Character(xi)
        for h in g.elements():
            out[k] += x.values[h.index] * np.conj(character_value(chi, h))
    return out


def brute_convolve(a: GroupSequence, x: GroupSequence) -> np.ndarray:
    g = a.group
    out = np.zeros(g.order, dtype=complex)
    for h in g.elements():
        for hp in g.elements():
            diff = add(h, neg(hp))
            out[h.index] += a.values[diff.index] * x.values[hp.index]
    return out


small_moduli = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3)


@st.composite
def group_with_sequence(draw):
    moduli = draw(small_moduli)
    g = GroupSpec(tuple(moduli))
    re = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=g.order, max_size=g.order))
    im = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=g.order, max_size=g.order))
    return GroupSequence(g, np.array(re) + 1j * np.array(im))


class TestElements:
    def test_add_mod4(self):
        g = GroupSpec((4,))
        assert add(g.element((3,)), g.element((2,))).coords == (1,)

    def test_add_product(self):
        g = GroupSpec((2, 3))
        assert add(g.element((1, 2)), g.element((1, 2))).coords == (0, 1)

    def test_neg(self):
        g = GroupSpec((4,))
        assert neg(g.element((1,))).coords == (3,)

    def test_mismatched_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            add(GroupSpec((4,)).element((1,)), GroupSpec((5,)).element((1,)))

    def test_enumeration_is_row_major(self):
        g = GroupSpec((2, 3))
        coords = [e.coords for e in g.elements()]
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert [g.element(c).index for c in coords] == list(range(6))

    def test_coordinates_must_be_integers(self):
        """A float coordinate is refused, not truncated; numpy integers are read as ints."""
        g = GroupSpec((4, 4))
        for coords in ((1.7, 0), (0, 2.0), (np.float64(1.0), 0)):
            with pytest.raises(TypeError):
                g.element(coords)
        e = g.element((np.int64(-3), np.int32(6)))
        assert e.coords == (1, 2) and all(type(c) is int for c in e.coords)
        assert all(type(c) is int for c in g.element_at(7).coords)
        assert all(type(c) is int for e in g.elements() for c in e.coords)

    @settings(max_examples=200, deadline=None)
    @given(small_moduli, st.data())
    def test_ravel_is_the_index_of_the_reduced_element(self, moduli, data):
        """``ravel``, the index reference of the difference-row tests, pinned to the
        pure-Python ``GroupElement.index`` on unreduced and negative coordinates."""
        g = GroupSpec(tuple(moduli))
        coord = st.integers(min_value=-5000, max_value=5000)
        rows = data.draw(st.lists(st.tuples(*(coord for _ in moduli)), min_size=1, max_size=30))
        want = [GroupElement(g, row).index for row in rows]
        assert g.ravel(np.array(rows, dtype=np.int64)).tolist() == want
        assert g.ravel(np.array(rows[0], dtype=np.int64)).tolist() == want[:1]

    def test_points_of_another_group_are_refused(self):
        """Z16's element 5 is not the point (1, 1) of Z4 x Z4, though it has its index."""
        g, stranger = GroupSpec((4, 4)), GroupSpec((16,)).element((5,))
        x = GroupSequence(g, np.arange(16.0))
        refusals = (lambda: x.shift(stranger),
                    lambda: VectorSequence(g, np.ones((2, 16))).shift(stranger),
                    lambda: x.at(stranger),
                    lambda: FunctionOnG(g, np.arange(16.0)).at(stranger),
                    lambda: TransferMatrix(g, np.ones((16, 1, 1))).at(stranger))
        for call in refusals:
            with pytest.raises(GroupMismatchError):
                call()
        own = g.element((1, 1))
        assert np.array_equal(x.shift(own).values, x.shift(5).values)
        assert FunctionOnG(g, np.arange(16.0)).at(own) == 5.0
        assert TransferMatrix(g, np.arange(16.0).reshape(16, 1, 1)).at(own)[0, 0] == 5.0

    def test_index_of_takes_an_element_or_an_index_in_range(self):
        g = GroupSpec((4, 4))
        assert g.index_of(g.element((1, 1))) == g.index_of(5) == 5
        assert g.index_of(np.int64(15)) == 15 and type(g.index_of(np.int64(15))) is int
        with pytest.raises(GroupMismatchError):
            g.index_of(GroupSpec((16,)).element((5,)))
        for point in (-1, 16, 5.0, (1, 1), None):
            with pytest.raises(IndexError, match=r"nor an index in 0\.\.15"):
                g.index_of(point)

    def test_a_delta_at_a_point_of_another_group_is_refused(self):
        """Z16's element 5 used to put the 1 at (1, 1) of Z4 x Z4, whose index it has."""
        g = GroupSpec((4, 4))
        with pytest.raises(GroupMismatchError):
            GroupSequence.delta(g, at=GroupSpec((16,)).element((5,)))
        at_point = GroupSequence.delta(g, at=g.element((1, 1)))
        assert np.array_equal(at_point.values, np.eye(16)[5])
        assert np.array_equal(GroupSequence.delta(g, at=5).values, at_point.values)
        assert np.array_equal(GroupSequence.delta(g).values, np.eye(16)[0])

    def test_integer_points_outside_the_group_are_refused(self):
        """On Z4 x Z4, -1 used to wrap to the point (3, 3), and 16 leaked numpy's error."""
        g = GroupSpec((4, 4))
        x = GroupSequence(g, np.arange(16.0))
        stack = VectorSequence(g, np.stack([np.ones(16), np.arange(16.0)]))
        transfer = TransferMatrix(g, np.arange(16.0).reshape(16, 1, 1))
        calls = (x.shift, stack.shift, x.at, stack.at, transfer.at,
                 lambda point: GroupSequence.delta(g, at=point))
        for call in calls:
            for point in (-1, 16, -17):
                with pytest.raises(IndexError, match=f"point {point} is neither"):
                    call(point)
        assert x.at(g.element((3, 3))) == x.at(15) == 15.0
        assert transfer.at(15)[0, 0] == stack.at(15, 1) == 15.0
        assert np.array_equal(x.shift(15).values, x.shift(g.element((3, 3))).values)

    @given(small_moduli, st.data())
    def test_group_axioms(self, moduli, data):
        g = GroupSpec(tuple(moduli))
        pick = st.integers(min_value=0, max_value=g.order - 1)
        a = g.element_at(data.draw(pick))
        b = g.element_at(data.draw(pick))
        c = g.element_at(data.draw(pick))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, neg(a)) == g.identity()


class TestCharacters:
    def test_sign_character(self):
        g = GroupSpec((2,))
        val = character_value(Character(g.element((1,))), g.element((1,)))
        assert val == pytest.approx(-1)

    def test_trivial_character(self):
        g = GroupSpec((3, 4))
        chi = Character(g.identity())
        for h in g.elements():
            assert character_value(chi, h) == pytest.approx(1)

    def test_quarter_turn(self):
        g = GroupSpec((4,))
        val = character_value(Character(g.element((1,))), g.element((1,)))
        assert val == pytest.approx(1j)

    @given(small_moduli, st.data())
    def test_unit_modulus_and_multiplicative(self, moduli, data):
        g = GroupSpec(tuple(moduli))
        pick = st.integers(min_value=0, max_value=g.order - 1)
        chi = Character(g.element_at(data.draw(pick)))
        h1 = g.element_at(data.draw(pick))
        h2 = g.element_at(data.draw(pick))
        assert abs(character_value(chi, h1)) == pytest.approx(1.0)
        lhs = character_value(chi, add(h1, h2))
        rhs = character_value(chi, h1) * character_value(chi, h2)
        assert lhs == pytest.approx(rhs)


class TestTransforms:
    def test_delta_to_constant(self):
        g = GroupSpec((2,))
        np.testing.assert_allclose(dft(GroupSequence(g, [1, 0])).values, [1, 1])

    def test_constant_to_delta(self):
        g = GroupSpec((2,))
        np.testing.assert_allclose(dft(GroupSequence(g, [1, 1])).values, [2, 0])

    def test_z4_example_against_oracle(self):
        g = GroupSpec((4,))
        x = GroupSequence(g, [1, 0.5, 0, 0])
        expected = [1.5, 1 - 0.5j, 0.5, 1 + 0.5j]
        np.testing.assert_allclose(dft(x).values, expected, atol=1e-14)
        np.testing.assert_allclose(brute_dft(x), expected, atol=1e-12)

    @given(group_with_sequence())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, x):
        np.testing.assert_allclose(dft(x).values, brute_dft(x), atol=1e-9 * (1 + x.norm()))

    def test_roundtrip_small_groups(self):
        rng = np.random.default_rng(0)
        for moduli in [(2,), (3,), (8,), (2, 3), (4, 4), (2, 2, 3)]:
            g = GroupSpec(moduli)
            x = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            back = idft(dft(x))
            assert np.abs(back.values - x.values).max() < 1e-12

    def test_plancherel(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = GroupSpec((rng.integers(1, 5), rng.integers(1, 7)))
            x = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            lhs = x.norm_sq()
            rhs = dft(x).norm_sq() / g.order
            assert abs(lhs - rhs) < 1e-10 * max(lhs, 1.0)


class TestConvolution:
    def test_delta_is_identity(self):
        g = GroupSpec((3, 2))
        rng = np.random.default_rng(2)
        x = GroupSequence(g, rng.standard_normal(g.order))
        out = convolve(GroupSequence.delta(g), x)
        np.testing.assert_array_equal(out.values, x.values)

    def test_constant_square(self):
        g = GroupSpec((2,))
        out = convolve(GroupSequence(g, [1, 1]), GroupSequence(g, [1, 1]))
        np.testing.assert_allclose(out.values, [2, 2])
        np.testing.assert_allclose(brute_convolve(GroupSequence(g, [1, 1]),
                                                  GroupSequence(g, [1, 1])), [2, 2])

    def test_z4_shift_example(self):
        g = GroupSpec((4,))
        a = GroupSequence(g, [1, 0.5, 0, 0])
        x = GroupSequence(g, [0, 1, 0, 0])
        expected = brute_convolve(a, x)
        np.testing.assert_allclose(expected, [0, 1, 0.5, 0], atol=1e-15)
        np.testing.assert_allclose(convolve(a, x).values, expected, atol=1e-15)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = GroupSpec((int(rng.integers(1, 4)), int(rng.integers(1, 6))))
            a = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            x = GroupSequence(g, rng.standard_normal(g.order)
                              + 1j * rng.standard_normal(g.order))
            lhs = dft(convolve(a, x)).values
            rhs = dft(a).values * dft(x).values
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() < 1e-10 * scale

    def test_fft_path_agrees(self):
        rng = np.random.default_rng(4)
        g = GroupSpec((4, 3))
        a = GroupSequence(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        x = GroupSequence(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))
        direct = convolve(a, x).values
        fast = convolve_fft(a, x).values
        assert np.abs(direct - fast).max() < 1e-10 * max(1.0, np.abs(direct).max())

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            convolve(GroupSequence(GroupSpec((2,)), [1, 0]),
                     GroupSequence(GroupSpec((3,)), [1, 0, 0]))

    def test_points_asked_for_must_be_indices_of_the_group(self):
        """On Z5, at=[-1] used to return the value at the last point, and at=[7] leaked
        numpy's IndexError; both raise the IndexError of ``GroupSpec.index_of``."""
        g = GroupSpec((5,))
        rng = np.random.default_rng(5)
        a, x = (GroupSequence(g, rng.standard_normal(5) + 1j * rng.standard_normal(5))
                for _ in range(2))
        for at, first_outside in ((np.array([-1]), -1), ([7], 7), (np.array([0, 4, 5, -2]), 5)):
            with pytest.raises(IndexError) as err:
                convolve(a, x, at=at)
            with pytest.raises(IndexError) as want:
                g.index_of(first_outside)
            assert str(err.value) == str(want.value)
        full = convolve(a, x).values
        assert np.array_equal(convolve(a, x, at=[4, 0]), full[[4, 0]])
        assert convolve(a, x, at=np.array([], dtype=np.int64)).shape == (0,)


class TestInvolution:
    def test_z4_example(self):
        g = GroupSpec((4,))
        out = involution(GroupSequence(g, [1, 0.5, 0, 0]))
        np.testing.assert_array_equal(out.values, [1, 0, 0, 0.5])

    def test_conjugates_at_zero(self):
        g = GroupSpec((2,))
        out = involution(GroupSequence(g, [1j, 0]))
        np.testing.assert_array_equal(out.values, [-1j, 0])

    def test_real_even_fixed(self):
        g = GroupSpec((4,))
        x = GroupSequence(g, [2.0, 1.0, 7.0, 1.0])
        np.testing.assert_array_equal(involution(x).values, x.values)

    @given(group_with_sequence())
    @settings(max_examples=50, deadline=None)
    def test_involution_twice_is_identity_exactly(self, x):
        back = involution(involution(x))
        assert np.array_equal(back.values, x.values)

    @given(group_with_sequence())
    @settings(max_examples=30, deadline=None)
    def test_transform_is_conjugated(self, x):
        lhs = dft(involution(x)).values
        rhs = np.conj(dft(x).values)
        assert np.abs(lhs - rhs).max() < 1e-9 * (1 + np.abs(rhs).max())


class TestSubgroups:
    def test_stride_must_divide(self):
        with pytest.raises(ValueError):
            ProductSubgroup(GroupSpec((4,)), (3,))

    def test_halving_cosets(self):
        sub = ProductSubgroup(GroupSpec((4,)), (2,))
        assert sub.index == 2
        assert [r.coords for r in coset_representatives(sub)] == [(0,), (1,)]

    def test_full_group_single_coset(self):
        sub = ProductSubgroup(GroupSpec((4, 3)), (1, 1))
        assert sub.index == 1
        assert [r.coords for r in coset_representatives(sub)] == [(0, 0)]

    def test_product_cosets(self):
        sub = ProductSubgroup(GroupSpec((4, 3)), (2, 3))
        reps = [r.coords for r in coset_representatives(sub)]
        assert sub.index == 6
        assert reps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_partition_property(self):
        # every parent element is exactly one representative + embedded point
        for moduli, strides in [((4,), (2,)), ((4, 3), (2, 3)), ((8, 2), (4, 1)),
                                ((6, 6), (2, 3)), ((16,), (4,)), ((16, 16), (4, 2))]:
            parent = GroupSpec(moduli)
            sub = ProductSubgroup(parent, strides)
            seen = {}
            for rep in coset_representatives(sub):
                for k in sub.abstract_group.elements():
                    point = add(rep, sub.embed(k))
                    assert point.index not in seen
                    seen[point.index] = True
            assert len(seen) == parent.order

    def test_embedding_is_homomorphism(self):
        sub = ProductSubgroup(GroupSpec((8, 6)), (2, 3))
        habs = sub.abstract_group
        for a in habs.elements():
            for b in habs.elements():
                assert sub.embed(add(a, b)) == add(sub.embed(a), sub.embed(b))


class TestSequenceBasics:
    def test_json_roundtrip(self):
        g = GroupSpec((2, 3))
        x = GroupSequence(g, np.arange(6) + 1j)
        back = GroupSequence.from_json_dict(x.to_json_dict())
        assert back.group == g
        np.testing.assert_array_equal(back.values, x.values)

    def test_shift_matches_definition(self):
        g = GroupSpec((4,))
        x = GroupSequence(g, [10, 20, 30, 40])
        shifted = x.shift(g.element((1,)))
        np.testing.assert_array_equal(shifted.values, [40, 10, 20, 30])

    def test_values_are_read_only(self):
        x = GroupSequence(GroupSpec((2,)), [1, 2])
        with pytest.raises(ValueError):
            x.values[0] = 5.0
