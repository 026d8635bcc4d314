"""Fixtures shared by the exact summation tests, and the refused square system of the
stability and CLI tests."""

import numpy as np
import pytest

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, TransferMatrix,
                           TranslationModel, from_transfer, groups)


@pytest.fixture
def fsum_fallback(monkeypatch):
    """The open rows that ``exact_sums`` hands to ``math.fsum``: one array per
    call of at least ``_FSUM_BELOW`` terms (smaller calls go to it whole and
    are not recorded)."""
    blocks, large = [], [False]
    exact, fsum_rows = groups.exact_sums, groups._fsum_rows

    def counted_exact(terms, bound=None):
        large[0] = terms.size >= groups._FSUM_BELOW
        try:
            return exact(terms, bound)
        finally:
            large[0] = False

    def counted_fsum(terms):
        if large[0]:
            blocks.append(terms.copy())
        return fsum_rows(terms)

    monkeypatch.setattr(groups, "exact_sums", counted_exact)
    monkeypatch.setattr(groups, "_fsum_rows", counted_fsum)
    return blocks


@pytest.fixture
def singular_square_system():
    """(model, system, xi): the 3 x 3 system on Z3 x Z4 of
    ``test_stability_policy.py::test_large_singular_square_system_is_rejected_by_default`` at
    scale 560, whose column 1 repeats column 0 at xi = (1, 2).  It passes the default frame
    verdict but not the Riesz one, so its square dual is refused at xi, and its
    Moore-Penrose dual misses the identity there."""
    g = GroupSpec((3, 4))
    rng = np.random.default_rng(1)
    xi = (1, 2)
    shape = (g.order, 3, 3)
    mats = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 560
    mats[g.element(xi).index, :, 1] = mats[g.element(xi).index, :, 0]
    system = from_transfer(TransferMatrix(g, mats))
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1, 1)),
                             tuple(GroupSequence(g, rng.standard_normal(g.order))
                                   for _ in range(3)))
    return model, system, xi
