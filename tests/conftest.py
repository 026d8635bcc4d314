"""Fixtures shared by the exact summation tests."""

import pytest

from groupsampling import groups


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
