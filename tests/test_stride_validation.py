"""Stride validation: the library rejects bad strides, and the CLI reports them with exit 2."""

import json

import numpy as np
import pytest

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, TranslationModel,
                           finite_index_model)
from groupsampling.cli import bundled_scenario_paths, main


def test_refine_composes_and_validates_strides():
    sub = ProductSubgroup(GroupSpec((12, 4)), (2, 1))
    assert sub.refine((3, 2)).strides == (6, 2)
    for bad in [(4, 1), (3,), (3, 2, 1)]:
        with pytest.raises(ValueError):
            sub.refine(bad)


def test_group_sizes_and_strides_must_be_integers():
    """A float order or stride is refused, not truncated; numpy integers are read as ints."""
    for moduli in ((4.7,), (4, 2.0), (np.float64(4.0),)):
        with pytest.raises(TypeError):
            GroupSpec(moduli)
    g = GroupSpec((8,))
    for strides in ((2.9,), (2.0,)):
        with pytest.raises(TypeError):
            ProductSubgroup(g, strides)
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2,)),
                             (GroupSequence.delta(g),))
    with pytest.raises(TypeError):
        finite_index_model(model, (2.5,))
    assert GroupSpec((np.int64(8), np.int32(2))).moduli == (8, 2)
    sub = ProductSubgroup(GroupSpec((8, 2)), (np.int64(4), 1))
    assert sub.strides == (4, 1) and all(type(d) is int for d in sub.strides)
    assert finite_index_model(model, (np.int64(2),)).inner.strides == (2,)


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
