"""The stacked foundation checks of ``verify`` against the per-draw loop, bit for bit.

The oracle below is the loop ``cli._foundation_checks`` ran before it was
evaluated on stacks: one draw at a time, through ``dft``, ``idft``,
``norm_sq``, ``involution`` and ``convolve`` on single sequences.  Both read
the same generator; their check values and the generator state afterwards
must agree exactly, so that the later draws of ``verify`` are unchanged too.
"""

import numpy as np
import pytest

from groupsampling import GroupSequence, GroupSpec, SequenceMatrix, VectorSequence
from groupsampling.cli import _foundation_checks, _rng
from groupsampling.groups import convolve, dft, exact_norm_sq, idft, involution

MODULI = [(2,), (4,), (8,), (12, 12), (6, 4, 2), (48,)]
SEEDS = [0, 3, 17]
TOL = 1e-10


def per_draw_checks(group, rng, tol, draws=100):
    worst_round = worst_plancherel = worst_conv = worst_invol = 0.0
    for _ in range(draws):
        x = GroupSequence(group, rng.standard_normal(group.order)
                          + 1j * rng.standard_normal(group.order))
        back = idft(dft(x))
        worst_round = max(worst_round, float(np.abs(back.values - x.values).max()))
        lhs = x.norm_sq()
        rhs = dft(x).norm_sq() / group.order
        worst_plancherel = max(worst_plancherel, abs(lhs - rhs) / max(lhs, 1.0))
        worst_invol = max(worst_invol,
                          float(np.abs(involution(involution(x)).values - x.values).max()))
    for _ in range(draws // 4):
        a = GroupSequence(group, rng.standard_normal(group.order)
                          + 1j * rng.standard_normal(group.order))
        x = GroupSequence(group, rng.standard_normal(group.order)
                          + 1j * rng.standard_normal(group.order))
        lhs = dft(convolve(a, x)).values
        rhs = dft(a).values * dft(x).values
        worst_conv = max(worst_conv, float(np.abs(lhs - rhs).max())
                         / max(1.0, float(np.abs(rhs).max())))
    return {"dft_roundtrip": worst_round, "plancherel": worst_plancherel,
            "convolution_theorem": worst_conv, "involution_identity": worst_invol}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_checks_equal_per_draw_loop(moduli, seed):
    group = GroupSpec(moduli)
    stacked_rng, loop_rng = _rng(seed), _rng(seed)
    checks = _foundation_checks(group, stacked_rng, TOL)
    want = per_draw_checks(group, loop_rng, TOL)
    assert [c["name"] for c in checks] == list(want)
    for check in checks:
        got, expected = check["value"], want[check["name"]]
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), check["name"]
        assert check["pass"] == (expected <= check["tolerance"])
    # the later draws of verify see the same stream
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
    assert stacked_rng.standard_normal() == loop_rng.standard_normal()


def draw_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_transforms_equal_single_calls(moduli):
    """dft, idft and involution of a stack are the single-sequence calls, row by row."""
    group = GroupSpec(moduli)
    rng = np.random.default_rng(5)
    vectors = VectorSequence(group, draw_stack(rng, (7, group.order)))
    matrix = SequenceMatrix(group, draw_stack(rng, (2, 3, group.order)))
    for f in (dft, idft, involution):
        got = f(vectors)
        assert type(got) is VectorSequence and got.group == group
        for k in range(vectors.n_components):
            single = f(vectors.component(k))
            assert type(single) is GroupSequence
            assert got.values[k].tobytes() == single.values.tobytes()
        got = f(matrix)
        assert type(got) is SequenceMatrix
        for i in range(2):
            for j in range(3):
                single = f(GroupSequence(group, matrix.values[i, j]))
                assert got.values[i, j].tobytes() == single.values.tobytes()


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_norms_equal_single_calls(moduli):
    """exact_norm_sq of a stack is one norm per row, each the single call's bits."""
    group = GroupSpec(moduli)
    rng = np.random.default_rng(6)
    for shape in ((7, group.order), (2, 3, group.order)):
        stack = draw_stack(rng, shape)
        got = exact_norm_sq(stack)
        assert got.shape == shape[:-1]
        for index in np.ndindex(*shape[:-1]):
            single = exact_norm_sq(stack[index])
            assert type(single) is float
            assert np.float64(got[index]).tobytes() == np.float64(single).tobytes()
            assert single == GroupSequence(group, stack[index]).norm_sq()
    vectors = VectorSequence(group, stack[0])
    assert vectors.norm_sq() == exact_norm_sq(stack[0].ravel())
