"""The stacked foundation checks of ``verify`` against the per-draw loop, bit for bit.

The oracle below is the loop ``cli._foundation_checks`` ran before it was
evaluated on stacks: one draw at a time, through ``dft``, ``idft``,
``norm_sq``, ``involution`` and ``convolve`` on single sequences.  Both read
the same generator; their check values and the generator state afterwards
must agree exactly, so that the later draws of ``verify`` are unchanged too.
The stacked transforms, norms and exact ``convolve`` are checked against
their single-sequence calls, row by row.
"""

import numpy as np
import pytest

from groupsampling import GroupSequence, GroupSpec, SequenceMatrix, VectorSequence, cli
from groupsampling.cli import _foundation_checks, _rng
from groupsampling.errors import DimensionMismatchError
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


def single_outcome(call):
    """The bytes of a call's values, or the type and message of what it raised."""
    try:
        return call().values.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def assert_rows_are_single_calls(a, x):
    """convolve of two stacks is, row by row, the single call's bits or exception."""
    singles = [single_outcome(lambda: convolve(a.component(k), x.component(k)))
               for k in range(a.n_components)]
    raised = [s for s in singles if isinstance(s, tuple)]
    if raised:
        with pytest.raises(raised[0][0]) as info:
            convolve(a, x)
        assert str(info.value) in [message for _, message in raised]
        return
    got = convolve(a, x)
    assert type(got) is VectorSequence and got.group == a.group
    assert [got.values[k].tobytes() for k in range(a.n_components)] == singles


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_convolve_equals_single_calls(moduli):
    group = GroupSpec(moduli)
    rng = np.random.default_rng(7)
    a, x = (VectorSequence(group, draw_stack(rng, (7, group.order))) for _ in range(2))
    assert_rows_are_single_calls(a, x)


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_convolve_with_zeros_in_different_columns(moduli):
    """Each row keeps its own zeros; the kernel skips only the columns zero in every row."""
    group = GroupSpec(moduli)
    rng = np.random.default_rng(8)
    a, x = draw_stack(rng, (5, group.order)), draw_stack(rng, (5, group.order))
    for k in range(5):
        x[k, rng.random(group.order) < 0.5] = 0  # a different half in each row
        a[k, rng.random(group.order) < 0.2] = 0
    x[:, ::3] = 0  # and columns zero in every row
    x[2] = 0  # a row with nothing to sum
    # x is the sparser operand, so the kernel skips its columns in either order
    for first, second in ((a, x), (x, a)):
        assert_rows_are_single_calls(VectorSequence(group, first), VectorSequence(group, second))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("values", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf]], ids=str)
@pytest.mark.parametrize("where", ["a", "x"])
@pytest.mark.parametrize("moduli", [(4,), (12, 12), (48,)], ids=str)
def test_stacked_convolve_with_a_non_finite_row(moduli, where, values):
    """Values or exceptions: infinities of both signs in one sum make math.fsum raise."""
    group = GroupSpec(moduli)
    rng = np.random.default_rng(9)
    a, x = draw_stack(rng, (4, group.order)), draw_stack(rng, (4, group.order))
    a[:, rng.random(group.order) < 0.3] = 0
    x[:, rng.random(group.order) < 0.3] = 0
    (a if where == "a" else x)[1, [3, 1][:len(values)]] = values
    assert_rows_are_single_calls(VectorSequence(group, a), VectorSequence(group, x))
    zero_imag = VectorSequence(group, a.real + 0j)  # one real component: fewer NaNs meet inf
    assert_rows_are_single_calls(zero_imag, VectorSequence(group, x))


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_stacked_convolve_with_rows_of_different_scales(moduli, fsum_fallback):
    """The bound of a stack covers its largest products, whichever rows hold them:
    the small rows are not certified by it and are summed by math.fsum, with
    the same bits."""
    group = GroupSpec(moduli)
    rng = np.random.default_rng(10)
    a, x = draw_stack(rng, (6, group.order)), draw_stack(rng, (6, group.order))
    a[::2] *= 1e150
    x[3] *= 1e200  # the largest products are in a row whose x is not the first
    assert_rows_are_single_calls(VectorSequence(group, a), VectorSequence(group, x))
    if group.order >= 12:  # blocks large enough for the certified level
        assert sum(map(len, fsum_fallback))


def test_stacked_convolve_needs_equal_shapes():
    group = GroupSpec((8,))
    rng = np.random.default_rng(11)
    three, four = (VectorSequence(group, draw_stack(rng, (n, group.order))) for n in (3, 4))
    with pytest.raises(DimensionMismatchError):
        convolve(three, four)
    with pytest.raises(DimensionMismatchError):
        convolve(three.component(0), VectorSequence(group, three.values[:1]))


def test_foundation_checks_make_one_convolve_call(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "convolve", lambda a, x: calls.append(a.values.shape) or convolve(a, x))
    _foundation_checks(GroupSpec((12,)), _rng(0), TOL)
    assert calls == [(25, 12)]
