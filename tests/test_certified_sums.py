"""The certified one-level exit of exact_sums against math.fsum, bit for bit.

Rows are built to reach every branch: ties that round half-even either way,
sums just off a rounding boundary next to a power of two, exact zeros and
subnormal sums, loose bounds, row lengths at both sides of each 2^m - 2 step,
and non-finite or near-overflow terms.  Most rows hide their value among
exactly cancelling pairs x, -x of widely spread magnitudes, so that the
remainder sum of the extraction level is inexact and the certificate has to
decide.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import GroupSpec, SequenceMatrix, VectorSequence, apply, groups
from groupsampling.groups import _FSUM_BELOW

U = 2.0 ** -53  # half an ulp of 1
ROW_LENGTHS = [2 ** m - d for m in range(2, 13) for d in (2, 1)]  # both sides of each step
NEAR_BOUNDARY = ["tie_to_even_down", "tie_to_even_up", "tie_below_power",
                 "tie_below_power_down", "near_power"]
KINDS = ["dense", *NEAR_BOUNDARY, "zero", "subnormal", "non_finite"]
NON_FINITE = [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
              [1.7e308, 1.7e308, -1.0], [1.7e308, -1.7e308, 1e300]]


def special_terms(kind, rng, v):
    """A few terms whose sum sits where ``kind`` says, for a power of two v."""
    if kind == "tie_to_even_down":  # v + half an ulp: ties to v
        return [v, v * U]
    if kind == "tie_to_even_up":  # v(1 + 2u) + half an ulp: ties to v(1 + 4u)
        return [v * (1 + 2 * U), v * U]
    if kind == "tie_below_power":  # below a power of two the gap halves: ties to v
        return [v, -v * U / 2]
    if kind == "tie_below_power_down":  # between v(1 - u) and v(1 - 2u): ties to the latter
        return [v, -3 * v * U / 2]
    if kind == "near_power":  # a few quarter-gaps from v, then just off that point
        off = v * U / 4 * int(rng.integers(-7, 8))
        eps = v * 2.0 ** -int(rng.integers(54, 110)) * rng.choice([-1.0, 1.0])
        return [v, off, eps]
    if kind == "subnormal":  # the sum of the row is subnormal or at the normal boundary
        return [int(rng.integers(-2 ** 20, 2 ** 20)) * 5e-324,
                float(rng.choice([0.0, 2.0 ** -1022, -(2.0 ** -1022)]))]
    return []  # "zero": the row cancels exactly


def build_row(kind, rng, k, spread, scale):
    """k terms of one kind; the filler is up to about 2^spread times the special terms."""
    v = 2.0 ** int(rng.integers(-20, 21)) * rng.choice([-1.0, 1.0])
    if kind == "dense":
        return rng.standard_normal(k) * rng.standard_normal(k) * v * scale
    special = NON_FINITE[rng.integers(len(NON_FINITE))] if kind == "non_finite" else []
    terms = [] if kind == "non_finite" else special_terms(kind, rng, v)
    if len(special) + len(terms) > k:
        return rng.standard_normal(k) * v * scale
    n_fill = k - len(special) - len(terms)
    size = 2.0 ** -1000 if kind in ("subnormal", "zero") and spread % 2 else abs(v)
    # magnitudes over 60 binades, so that the remainders have bits far apart
    half = (rng.standard_normal(n_fill // 2) * size
            * 2.0 ** (spread - rng.integers(0, 60, size=n_fill // 2)))
    row = np.array([*terms, *half, *(-half), *([0.0] * (n_fill % 2))]) * scale
    row = np.concatenate([np.array(special, dtype=float), row])
    rng.shuffle(row)
    return row


def fsum_rows(terms):
    return np.array([math.fsum(row) for row in terms.tolist()], dtype=np.float64)


def outcome(fn):
    """The row sums as bits, NaNs marked, or the type of the exception raised."""
    try:
        values = np.asarray(fn(), dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return np.isnan(values).tolist(), np.where(np.isnan(values), 0.0, values).view(np.int64).tolist()


def assert_as_fsum(terms, bound=None):
    before = terms.copy()
    assert outcome(lambda: groups.exact_sums(terms, bound)) == outcome(lambda: fsum_rows(terms))
    assert (terms.view(np.int64) == before.view(np.int64)).all()  # terms left unchanged


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matches_fsum_bitwise(data):
    k = data.draw(st.sampled_from(ROW_LENGTHS))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    spread = data.draw(st.integers(0, 48))
    scale = 2.0 ** data.draw(st.sampled_from([-1000, -960, -900, 0, 900, 960, 975]))
    slack = data.draw(st.sampled_from([None, 0, 1, 3, 8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n_rows = max(8, -(-_FSUM_BELOW // k))
    with np.errstate(over="ignore"):  # a large scale may overflow: non-finite rows
        terms = np.stack([build_row(kinds[i % len(kinds)], rng, k, spread, scale)
                          for i in range(n_rows)])
        bound = None if slack is None else float(np.abs(terms).max()) * 2.0 ** slack
    assert_as_fsum(terms, bound)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_column_order_moves_no_bit(data):
    """The part sum S is exact and the bound on R = fl(sum r) holds in every
    summation order, which is what lets the row sums be BLAS products: the
    columns in any order give the same bits."""
    k = data.draw(st.sampled_from(ROW_LENGTHS))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    spread = data.draw(st.integers(0, 48))
    scale = 2.0 ** data.draw(st.sampled_from([0, -1000, -960]))  # and near underflow
    slack = data.draw(st.sampled_from([None, 0, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    terms = np.stack([build_row(kinds[i % len(kinds)], rng, k, spread, scale)
                      for i in range(max(8, -(-_FSUM_BELOW // k)))])
    bound = None if slack is None else float(np.abs(terms).max()) * 2.0 ** slack
    shuffled = terms[:, rng.permutation(k)]
    assert (outcome(lambda: groups.exact_sums(shuffled, bound))
            == outcome(lambda: groups.exact_sums(terms, bound)))


@pytest.mark.parametrize("k", [6, 62, 510, 2046])
@pytest.mark.parametrize("spread", [0, 8, 16, 24, 32, 40])
def test_rows_near_rounding_boundaries(k, spread):
    """Many rows within a remainder error of a boundary, at each filler size."""
    rng = np.random.default_rng(1000 * k + spread)
    n_rows = max(400, -(-_FSUM_BELOW // k))
    for slack in (None, 5):
        terms = np.stack([build_row(NEAR_BOUNDARY[i % len(NEAR_BOUNDARY)], rng, k, spread, 1.0)
                          for i in range(n_rows)])
        assert_as_fsum(terms, None if slack is None else np.abs(terms).max() * 2.0 ** slack)


def test_dense_rows_are_certified_and_ties_fall_back(fsum_fallback):
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((64, 512)) * rng.standard_normal((64, 512))
    assert_as_fsum(dense)
    assert sum(map(len, fsum_fallback)) == 0
    ties = np.stack([build_row(kind, rng, 512, 4, 1.0) for kind in
                     ["tie_to_even_down", "tie_to_even_up", "tie_below_power",
                      "tie_below_power_down"] * 8])
    # each tie row scaled by a power of two to the size of the dense rows
    ties = np.ldexp(ties, -np.frexp(np.abs(ties).max(axis=1))[1][:, None])
    mixed = np.concatenate([ties, dense])
    assert_as_fsum(mixed)
    # the dense rows beside the ties are still certified
    assert sum(map(len, fsum_fallback)) == len(ties)


def test_convolution_rows_are_certified(fsum_fallback):
    """The bound _exact_convolve derives from its operands certifies generic sums."""
    rng = np.random.default_rng(2)
    g = GroupSpec((16, 16))
    a = rng.standard_normal((2, 2, g.order)) + 1j * rng.standard_normal((2, 2, g.order))
    x = rng.standard_normal((2, g.order)) + 1j * rng.standard_normal((2, g.order))
    apply(SequenceMatrix(g, a), VectorSequence(g, x))
    assert sum(map(len, fsum_fallback)) == 0
    a[0, 1, 5] = math.inf  # a non-finite operand leaves every row open
    with np.errstate(invalid="ignore"):
        apply(SequenceMatrix(g, a), VectorSequence(g, x))
    assert sum(map(len, fsum_fallback)) == 2 * 2 * g.order


def test_open_rows_of_zeros_skip_fsum(fsum_fallback):
    """Rows of +0.0 and -0.0 terms are +0.0 without math.fsum; exactly
    cancelling rows beside them are open and summed by it, dense ones certified."""
    rng = np.random.default_rng(3)
    k = 512
    dense = rng.standard_normal((16, k)) * rng.standard_normal((16, k))
    zeros = [np.zeros(k), -np.zeros(k), rng.choice([0.0, -0.0], size=k)]
    cancelling = np.stack([build_row("zero", rng, k, spread, 1.0) for spread in (0, 8, 24)])
    # scaled by powers of two to the size of the dense rows, so that those stay certified
    cancelling = np.ldexp(cancelling, -np.frexp(np.abs(cancelling).max(axis=1))[1][:, None])
    terms = np.stack([*zeros, *cancelling, *dense])[rng.permutation(22)]
    assert_as_fsum(terms)
    assert sum(map(len, fsum_fallback)) == len(cancelling)
    assert all(block.any(axis=1).all() for block in fsum_fallback)  # no row of zeros
