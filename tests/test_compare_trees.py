"""The largest relative deviation that ``bench/compare_trees.py`` prints for a differing output."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "compare_trees.py"
_SPEC = importlib.util.spec_from_file_location("compare_trees", _PATH)
compare_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_trees)


def _hex(values):
    return np.asarray(values, dtype=np.complex128).tobytes().hex()


def _run(report, code=0, stderr=""):
    """A CLI output as ``_cli_outputs`` records it: a report as its parsed bits."""
    return {"stdout": ["report", compare_trees._bits(json.loads(json.dumps(report)))],
            "stderr": stderr, "code": code}


def test_encoded_values_deviate_by_the_largest_difference_over_the_largest_magnitude():
    a = [1.0, 2.0 + 1.0j, -4.0, 0.0]
    b = [1.0, 2.0 + 1.0j, -4.0 + 4e-15, 1e-16]
    assert compare_trees.relative_deviation(_hex(a), _hex(b)) == pytest.approx(1e-15)
    assert compare_trees.relative_deviation(_hex(a), _hex(a)) == 0.0


def test_equal_non_finite_entries_do_not_deviate():
    a = [np.nan, np.inf, 2.0]
    b = [np.nan, np.inf, 2.0 + 2e-16]
    assert compare_trees.relative_deviation(_hex(a), _hex(b)) == pytest.approx(1e-16)


def test_report_floats_are_compared_in_order():
    first = _run({"residual": 7.79e-16, "alpha": 0.5, "ok": True, "per_xi": [1.0, 2.0]})
    second = _run({"residual": 6.89e-16, "alpha": 0.5, "ok": True, "per_xi": [1.0, 2.0]})
    assert compare_trees.relative_deviation(first, second) == pytest.approx(0.9e-16 / 2.0)


@pytest.mark.parametrize("first, second", [
    (_hex([1.0, 2.0]), _hex([1.0, 2.0, 3.0])),  # shapes differ
    (_hex([1.0]), "raises ValueError: bad"),  # an exception on one side
    ('{"moduli": [4]}', '{"moduli": [5]}'),  # a JSON dump, not an encoded value
    (_run({"ok": True, "x": 1.0}), _run({"ok": False, "x": 1.0})),  # another field differs
    (_run({"x": 1.0}), _run({"x": 1.0}, code=1)),  # another exit code
    (_run({"x": 1.0}), {"stdout": "usage", "stderr": "", "code": 2}),  # text on stdout
])
def test_outputs_that_do_not_decode_alike_have_no_deviation(first, second):
    assert compare_trees.relative_deviation(first, second) is None
