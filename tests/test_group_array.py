"""The one container of values on a group, and the algebra its sequences share.

``GroupSequence``, ``VectorSequence``, ``FunctionOnG``, ``SequenceMatrix`` and
``TransferMatrix`` keep their values through ``groups.GroupArray``: a
C-ordered complex128 copy, read-only, with every cache slot ``None`` at
first.  A transposed input is F-ordered, and an order-keeping copy of it
would stay so, which moves FFT round-off downstream; only the C-order check
here sees that, as every value still compares equal.
"""

import numpy as np
import pytest

from groupsampling import (FunctionOnG, GroupMismatchError, GroupSequence, GroupSpec,
                           SequenceMatrix, TransferMatrix, VectorSequence)
from groupsampling.groups import GroupArray

G = GroupSpec((4, 3))


def _draw(*shape):
    rng = np.random.default_rng(len(shape))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# class, an F-ordered input of its shape (the transpose of a C-ordered draw), its cache slots
CASES = [
    (GroupSequence, lambda: _draw(3, 4).T, ()),
    (VectorSequence, lambda: _draw(G.order, 2).T, ()),
    (FunctionOnG, lambda: _draw(G.order, 4).T, ()),
    (SequenceMatrix, lambda: _draw(G.order, 2, 3).T, ("_transfer",)),
    (TransferMatrix, lambda: _draw(2, 3, G.order).T, ("_spectrum",)),
]


@pytest.mark.parametrize("cls, make, caches", CASES, ids=[c[0].__name__ for c in CASES])
def test_values_are_a_read_only_c_ordered_copy(cls, make, caches):
    source = make()
    assert source.flags.f_contiguous and not source.flags.c_contiguous
    x = cls(G, source)
    assert isinstance(x, GroupArray) and x.group == G
    assert x.values.dtype == np.complex128
    assert x.values.flags.c_contiguous and not x.values.flags.writeable
    expected = source.reshape(x.values.shape).copy()
    assert np.array_equal(x.values, expected)
    source[...] = 0.0
    assert np.array_equal(x.values, expected)
    for name in ("values", "group", "extra", *caches):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(x, name, None)
    assert all(getattr(x, name) is None for name in caches)


def test_transfer_matrices_are_its_values():
    t = TransferMatrix(G, _draw(G.order, 2, 3))
    assert t.matrices is t.values and (t.rows, t.cols) == (2, 3)


@pytest.mark.parametrize("cls", [FunctionOnG, VectorSequence])
def test_a_stack_needs_a_row(cls):
    with pytest.raises(ValueError):
        cls(G, np.zeros((0, G.order)))


def test_vector_sequence_is_not_a_group_sequence():
    x = VectorSequence(G, _draw(2, G.order))
    assert not isinstance(x, GroupSequence)
    assert not hasattr(x, "at") and not hasattr(VectorSequence, "delta")


@pytest.mark.parametrize("a, b", [
    (GroupSequence(G, _draw(G.order)), VectorSequence(G, _draw(1, G.order))),
    (VectorSequence(G, _draw(2, G.order)), VectorSequence(G, _draw(3, G.order))),
    (GroupSequence(G, _draw(G.order)), GroupSequence(GroupSpec((12,)), _draw(12))),
], ids=["sequence_and_stack_of_one", "stacks_of_two_and_three", "different_groups"])
def test_algebra_needs_the_same_group_and_shape(a, b):
    for op in (lambda: a + b, lambda: a - b, lambda: a.inner(b)):
        with pytest.raises(GroupMismatchError):
            op()


def test_function_difference_needs_the_same_sectors():
    with pytest.raises(GroupMismatchError):
        FunctionOnG(G, _draw(2, G.order)) - FunctionOnG(G, _draw(G.order))


def test_shift_and_scaling_keep_the_type():
    t = G.element((1, 2))
    for x in (GroupSequence(G, _draw(G.order)), VectorSequence(G, _draw(2, G.order))):
        shifted = x.shift(t)
        assert type(shifted) is type(x) and type(2 * x) is type(x) and type(x * 2) is type(x)
        assert np.array_equal(shifted.values, x.values[..., G.translation_perm(t.index)])
