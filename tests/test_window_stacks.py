"""A translation model with a stack of windows: the semidirect reduction is one.

A model's ``phi`` is one window or an (R, order) stack; its analysis, sampling
functions and reconstructed functions have one sector per window, and its
``window_spectra`` are the one kept transform of the windows.  On the reduction
of a semidirect model the windows are the rotated windows, so the translation
pipeline reconstructs every rotation sector of the semidirect analysis.
"""

import json

import numpy as np
import pytest

from groupsampling import (DimensionMismatchError, FunctionOnG, GroupSequence, GroupSpec,
                           ProductSubgroup, SemidirectModel, TranslationModel, VectorSequence,
                           analysis_transform, compose_group_law, make_procedure,
                           quasi_regular_apply, reconstruct_function, reproducing_kernel,
                           semidirect_analysis, semidirect_reduce,
                           semidirect_sample_and_reconstruct, shannon_procedure, synthesize,
                           take_samples)
from groupsampling.config import parse_model


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _semidirect(label, side=12, stride=3, seed=0):
    rng = np.random.default_rng(seed)
    torus = GroupSpec((side, side))
    model = SemidirectModel(torus, label, ProductSubgroup(torus, (stride, stride)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    return model, rng


@pytest.mark.parametrize("label", ["C2", "C4"])
def test_reconstruct_function_returns_every_rotation_sector(label):
    model, rng = _semidirect(label, seed=21)
    reduced = semidirect_reduce(model).model
    probes = [GroupSequence(model.torus, _complex(rng, model.torus.order))
              for _ in range(model.n_rotations + 1)]
    proc = make_procedure(reduced, probes=probes)
    habs = reduced.subgroup.abstract_group
    x = VectorSequence(habs, _complex(rng, (model.n_rotations, habs.order)))
    f = synthesize(reduced, x)
    out = reconstruct_function(proc, take_samples(proc, x))
    direct = semidirect_analysis(model, f)
    op = semidirect_sample_and_reconstruct(model, proc, f)
    assert out.sectors == model.n_rotations
    scale = max(1.0, direct.max_abs())
    assert (out - direct).max_abs() <= 1e-8 * scale
    assert (out - op).max_abs() <= 1e-8 * scale


def test_one_window_spectrum_keeps_its_bits():
    rng = np.random.default_rng(22)
    g = GroupSpec((6, 4))
    phi = GroupSequence(g, _complex(rng, g.order))
    model = TranslationModel(g, phi, ProductSubgroup(g, (2, 2)),
                             (GroupSequence(g, _complex(rng, g.order)),))
    assert model.window_spectrum.tobytes() == (np.abs(g.fft(phi.values)) ** 2).tobytes()
    spectra = model.window_spectra
    assert model.window_spectra is spectra and spectra.shape == (1, g.order)
    assert not spectra.flags.writeable
    with pytest.raises(ValueError):
        spectra[0, 0] = 0.0


def test_window_spectrum_sums_over_the_stack():
    model, _ = _semidirect("C4", side=6, stride=2, seed=23)
    reduced = semidirect_reduce(model).model
    want = sum(np.abs(reduced.ambient.fft(w)) ** 2 for w in model.windows.values)
    np.testing.assert_allclose(reduced.window_spectrum, want, rtol=1e-13)
    assert reduced.window_spectra.shape == (4, model.torus.order)


def test_shannon_procedure_on_a_one_window_stack():
    """The C1 reduction's window is a stack of one: it samples as the plain window does."""
    model, _ = _semidirect("C1", side=4, stride=2, seed=24)
    reduced = semidirect_reduce(model).model
    assert reduced.phi.values.shape == (1, model.torus.order)
    plain = TranslationModel(model.torus, model.phi, model.lattice, model.generators)
    proc = shannon_procedure(reduced)
    assert proc.system.values.shape == (1, 1, 4)
    assert proc.system.values.tobytes() == shannon_procedure(plain).system.values.tobytes()


def test_c1_op_takes_a_plain_window_procedure():
    """A procedure on the plain window is one on the C1 reduction's stack of one."""
    model, rng = _semidirect("C1", side=4, stride=2, seed=29)
    plain = TranslationModel(model.torus, model.phi, model.lattice, model.generators)
    probes = [GroupSequence(model.torus, _complex(rng, 16)) for _ in range(2)]
    proc = make_procedure(plain, probes=probes)
    reduced = make_procedure(semidirect_reduce(model).model, system=proc.system)
    f = GroupSequence(model.torus, _complex(rng, 16))
    want = semidirect_sample_and_reconstruct(model, reduced, f).values
    assert semidirect_sample_and_reconstruct(model, proc, f).values.tobytes() == want.tobytes()


def test_shannon_procedure_refuses_several_windows():
    model, _ = _semidirect("C2", side=4, stride=2, seed=25)
    stacked = TranslationModel(model.torus, model.windows, model.lattice, (model.varphi,))
    with pytest.raises(DimensionMismatchError, match="single window"):
        shannon_procedure(stacked)


def test_reproducing_kernel_refuses_several_windows():
    """The kernel of R > 1 windows projects onto the range of the analysis, not onto all."""
    model, _ = _semidirect("C2", side=4, stride=2, seed=26)
    with pytest.raises(DimensionMismatchError, match="several windows"):
        reproducing_kernel(semidirect_reduce(model).model)


def test_sector_outside_the_table_is_refused():
    model, rng = _semidirect("C4", side=4, stride=2, seed=27)
    table = analysis_transform(semidirect_reduce(model).model,
                               GroupSequence(model.torus, _complex(rng, 16)))
    point = model.torus.element((1, 2))
    assert table.at(point, 3) == complex(table.values[3, point.index])
    for sector in (-1, 4, 7):
        with pytest.raises(ValueError, match="4 sectors"):
            table.at(point, sector)
    with pytest.raises(ValueError, match="1 sectors"):
        FunctionOnG(model.torus, np.zeros(16)).at(point, 1)


def test_float_shifts_are_refused():
    model, rng = _semidirect("C4", side=4, stride=2, seed=28)
    f = GroupSequence(model.torus, _complex(rng, 16))
    with pytest.raises(TypeError):
        quasi_regular_apply(model, (1.7, 0), 0, f)
    with pytest.raises(TypeError):
        compose_group_law(model, ((0.5, 0), 1), ((1, 0), 0))
    shifted = quasi_regular_apply(model, (np.int64(1), 0), 0, f)
    assert np.array_equal(shifted.values, f.shift(model.torus.element((1, 0))).values)


@pytest.mark.parametrize("label", ["C1", "C2"])
def test_one_window_model_payload_round_trips(label):
    """A one-window model, and a C1 reduction's stack of one, load back as the same model."""
    model, rng = _semidirect(label, side=4, stride=2, seed=29)
    plain = TranslationModel(model.torus, model.phi, model.lattice, model.generators)
    models = [plain] + ([semidirect_reduce(model).model] if label == "C1" else [])
    for m in models:
        data = m.to_json_dict()
        back = parse_model(json.loads(json.dumps(data)))
        assert isinstance(back, TranslationModel) and back.to_json_dict() == data
        assert back.phi.values.tobytes() == m.phi.values.reshape(-1).tobytes()
        assert [g.values.tobytes() for g in back.generators] == [
            g.values.tobytes() for g in m.generators]
        assert back.subgroup.strides == m.subgroup.strides


@pytest.mark.parametrize("label", ["C2", "C4"])
def test_window_stack_payload_is_refused(label):
    model, _ = _semidirect(label, side=4, stride=2, seed=30)
    with pytest.raises(DimensionMismatchError, match="serialize the SemidirectModel"):
        semidirect_reduce(model).model.to_json_dict()
