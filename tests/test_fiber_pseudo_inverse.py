"""One per-character pseudo-inverse and one spectrum cache.

A model's fiber solves are the pseudo-inverses of its alias matrices
(``fibers``), taken by the same guarded routine as the Moore-Penrose dual: the
normal equations while the Gram is well conditioned, the SVD near degeneracy.
So a model whose generators are nearly collinear keeps its accuracy, where the
normal equations alone square the condition number.  The Riesz bounds read the
eigenvalues of the Gram that ``frames`` keeps on the alias matrices, and a left
inverse's frame bounds are read on demand from the spectrum of B^*, so a build
of the sampling functions makes no eigen-solve.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupsampling import (GroupSequence, GroupSpec, ProductSubgroup, TranslationModel,
                           VectorSequence, build_sampling_functions, coefficients_of,
                           diagnostics, make_procedure, synthesize)
from groupsampling.models import _rank_deficient


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _near_collinear(side, eps, seed):
    """Z_side^2, stride 2, generators g and g + eps h: fiber eigenvalue ratios near eps^2."""
    rng = np.random.default_rng(seed)
    g = GroupSpec((side, side))
    base, tilt = _complex(rng, g.order), _complex(rng, g.order)
    gens = (GroupSequence(g, base), GroupSequence(g, base + eps * tilt))
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2, 2)), gens), rng


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((8, 10, 12, 14, 16)), st.floats(np.log10(1.2e-5), -2.0),
       st.integers(0, 2**32 - 1))
def test_near_collinear_generators_keep_their_coefficients(side, log_eps, seed):
    model, rng = _near_collinear(side, 10.0 ** log_eps, seed)
    lo, hi, _ = model.riesz_bounds
    assume(not _rank_deficient(lo, hi))
    habs = model.subgroup.abstract_group
    x = VectorSequence(habs, _complex(rng, (2, habs.order)))
    f = synthesize(model, x)
    cols = model.generator_translates(model.subgroup.embedding_indices).reshape(
        2 * habs.order, -1).T
    want = np.linalg.lstsq(cols, f.values, rcond=None)[0].reshape(2, habs.order)
    got = coefficients_of(model, f).values
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


@pytest.fixture
def eigen_solves(monkeypatch):
    """Shapes of the arguments of every ``np.linalg.eigvalsh`` call."""
    seen = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


def _procedure(seed=4):
    g = GroupSpec((8, 6))
    rng = np.random.default_rng(seed)
    model = TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (2, 1)),
                             tuple(GroupSequence(g, _complex(rng, g.order)) for _ in range(2)))
    probes = [GroupSequence(g, _complex(rng, g.order)) for _ in range(3)]
    return make_procedure(model, probes=probes), rng


def test_a_build_of_the_sampling_functions_makes_no_eigen_solve(eigen_solves):
    proc, _ = _procedure()
    eigen_solves.clear()
    build_sampling_functions(proc)
    assert eigen_solves == []


def test_coefficients_of_makes_one_eigen_solve_cold_and_none_warm(eigen_solves):
    proc, rng = _procedure()
    model = proc.model
    fresh = TranslationModel(model.ambient, model.phi, model.subgroup, model.generators)
    f = GroupSequence(model.ambient, _complex(rng, model.ambient.order))
    eigen_solves.clear()
    coefficients_of(fresh, f)
    habs, n = fresh.subgroup.abstract_group, fresh.n_generators
    assert eigen_solves == [(habs.order, n, n)]
    eigen_solves.clear()
    coefficients_of(fresh, f)
    assert eigen_solves == []


@pytest.mark.parametrize("seed", range(5))
def test_moore_penrose_frame_bounds_invert_the_system_bounds(seed):
    # B B* = (A* A)^(-1) for the Moore-Penrose dual, so its extremes are 1/beta and 1/alpha
    proc, _ = _procedure(seed)
    diag = diagnostics(proc.system)
    lo, hi = proc.dual.frame_bounds
    assert proc.dual.frame_bounds is proc.dual.frame_bounds
    assert lo == pytest.approx(1.0 / diag.beta, rel=1e-12)
    assert hi == pytest.approx(1.0 / diag.alpha, rel=1e-12)
