"""GroupSpec.differences on groups above 1024 points, against the coordinates.

The rows are summed from the per-factor tables, for every column or for a
subset.  Each entry must be the index of h - g, ``ravel(coords[h] - coords[g])``.
"""

import numpy as np
import pytest

from groupsampling import GroupSpec

MODULI = [(48, 48), (2, 3, 200), (1100,)]


def reference(g, points, cols):
    coords = g.coords_array
    h, c = coords[points], coords[cols]
    return g.ravel((h[:, None] - c[None]).reshape(-1, g.ndim)).reshape(len(h), len(c))


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_every_column(moduli):
    g = GroupSpec(moduli)
    rng = np.random.default_rng(0)
    points = np.sort(rng.choice(g.order, size=40, replace=False))
    for rows in (slice(0, 64), slice(g.order - 17, g.order), points):
        got = g.differences(rows, slice(None))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference(g, rows, slice(None)))


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_column_subsets(moduli):
    g = GroupSpec(moduli)
    rng = np.random.default_rng(1)
    for size in (1, 37, g.order // 4):
        cols = np.sort(rng.choice(g.order, size=size, replace=False))
        for rows in (slice(5, 70), rng.choice(g.order, size=30, replace=False)):
            np.testing.assert_array_equal(g.differences(rows, cols), reference(g, rows, cols))


def test_full_block_on_z48_squared():
    """The whole 2304 x 2304 block: row h is index(h - g) for every g."""
    g = GroupSpec((48, 48))
    full = g.differences(slice(None), slice(None))
    assert full.shape == (g.order, g.order)
    np.testing.assert_array_equal(full, reference(g, slice(None), slice(None)))
