"""Stride validation: the library rejects bad strides, and the CLI reports them with exit 2."""

import json

import pytest

from groupsampling import GroupSpec, ProductSubgroup
from groupsampling.cli import bundled_scenario_paths, main


def test_refine_composes_and_validates_strides():
    sub = ProductSubgroup(GroupSpec((12, 4)), (2, 1))
    assert sub.refine((3, 2)).strides == (6, 2)
    for bad in [(4, 1), (3,), (3, 2, 1)]:
        with pytest.raises(ValueError):
            sub.refine(bad)


@pytest.mark.parametrize("block, key, strides", [
    ("model", "H_strides", [3]),
    ("model", "H_strides", [2, 2]),
    ("finite_index", "strides", [3]),
], ids=["non_dividing_H", "wrong_stride_count", "non_dividing_finite_index"])
def test_invalid_strides_exit_two(tmp_path, block, key, strides):
    path = next(p for p in bundled_scenario_paths() if p.endswith("finite_index_z8.json"))
    payload = json.loads(open(path).read())
    payload[block][key] = strides
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["analyze", str(bad)]) == 2
