"""A rejected sampling procedure names the character where stability fails."""

import numpy as np
import pytest

from groupsampling import (FrameConditionError, GroupSequence, GroupSpec, ProductSubgroup,
                           TransferMatrix, TranslationModel, from_transfer, make_procedure)


def test_degenerate_system_names_the_failing_character():
    g = GroupSpec((3, 4))
    rng = np.random.default_rng(2)
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1, 1)),
                             (GroupSequence(g, rng.standard_normal(g.order)),
                              GroupSequence(g, rng.standard_normal(g.order))))
    # a 3x2 system whose transfer has full rank everywhere but at xi = (1, 2)
    mats = rng.standard_normal((g.order, 3, 2)) + 1j * rng.standard_normal((g.order, 3, 2))
    mats[g.element((1, 2)).index, :, 1] = mats[g.element((1, 2)).index, :, 0]
    system = from_transfer(TransferMatrix(g, mats))
    with pytest.raises(FrameConditionError) as err:
        make_procedure(model, system=system)
    assert err.value.xi == (1, 2)
    assert str(err.value).startswith("sampling system is not stable: determinant infimum")
