"""The semidirect op reads its kernels' spectra from the procedure's sampling functions.

``TranslationModel.window_spectra`` (the conjugated transforms of the windows,
on a reduction the rotated ones) is kept on the reduction's translation model
and ``SamplingFunctions.kernel_spectra`` (those spectra times the transforms of
the synthesized dual columns) is made with the betas, so a call of
``semidirect_sample_and_reconstruct`` transforms only its signal.  These
tests check that the op keeps its bits against the inline formula with fresh
transforms, that a warm call makes one forward and one inverse transform, that
both arrays are read-only, and that a procedure built on another model's
reduction is refused.
"""

import numpy as np
import pytest

from groupsampling import (GroupMismatchError, GroupSequence, GroupSpec, ProductSubgroup,
                           SemidirectModel, make_procedure, semidirect_reduce,
                           semidirect_sample_and_reconstruct)
from groupsampling.models import _coefficient_spectra
from groupsampling.sampling import _sum_translates
from groupsampling.systems import transfer

CASES = [(label, side) for label in ("C2", "C4") for side in (12, 24)]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _setup(label, side, seed=5):
    """A model on Z_side^2 with stride 3, a procedure on its reduction and a signal."""
    rng = np.random.default_rng(seed)
    torus = GroupSpec((side, side))
    model = SemidirectModel(torus, label, ProductSubgroup(torus, (3, 3)),
                            GroupSequence(torus, _complex(rng, torus.order)),
                            GroupSequence(torus, _complex(rng, torus.order)))
    probes = [GroupSequence(torus, _complex(rng, torus.order))
              for _ in range(model.n_rotations + 1)]
    proc = make_procedure(semidirect_reduce(model).model, probes=probes)
    return model, proc, GroupSequence(torus, _complex(rng, torus.order))


def _inline(model, proc, f):
    """The op with every transform made afresh, in the order of its expressions."""
    c_hat = _coefficient_spectra(proc.model, f)
    s_hat = np.matmul(transfer(proc.system).matrices, c_hat[:, :, None])[:, :, 0].T
    g = model.torus
    windows = np.conj(g.fft(model.phi.values[model.rotation_perms]))
    betas = g.fft(np.stack([b.values for b in proc.sampling_functions.betas]))
    return _sum_translates(proc, s_hat, (windows * b for b in betas))


@pytest.mark.parametrize("label, side", CASES)
def test_op_keeps_its_bits_cold_and_warm(label, side):
    model, proc, f = _setup(label, side)
    first = semidirect_sample_and_reconstruct(model, proc, f).values
    second = semidirect_sample_and_reconstruct(model, proc, f).values
    assert first.tobytes() == second.tobytes()
    assert first.tobytes() == _inline(model, proc, f).tobytes()
    assert first.shape == (model.n_rotations, model.torus.order)


@pytest.mark.parametrize("label, side", CASES)
def test_warm_op_transforms_only_its_signal(label, side, monkeypatch):
    model, proc, f = _setup(label, side)
    semidirect_sample_and_reconstruct(model, proc, f)
    calls = []

    def counted(name):
        original = getattr(GroupSpec, name)

        def call(self, values):
            calls.append((name, np.shape(values)))
            return original(self, values)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(GroupSpec, name, counted(name))
    semidirect_sample_and_reconstruct(model, proc, f)
    order = model.torus.order
    assert calls == [("fft", (order,)), ("ifft", (model.n_rotations, order))]


@pytest.mark.parametrize("label, side", CASES)
def test_kept_spectra_are_read_only(label, side):
    model, proc, f = _setup(label, side)
    reduced = semidirect_reduce(model).model
    windows, kernels = reduced.window_spectra, proc.sampling_functions.kernel_spectra
    assert reduced.window_spectra is windows
    assert windows.shape == (model.n_rotations, model.torus.order)
    assert kernels.shape == (proc.n_channels, model.n_rotations, model.torus.order)
    for spectra in (windows, kernels):
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0] = 0.0


@pytest.mark.parametrize("label, side", CASES)
def test_reduction_shares_the_model_generators(label, side):
    model, proc, f = _setup(label, side)
    assert semidirect_reduce(model).model.generators is model.generators
    assert proc.model.generators is model.generators


@pytest.mark.parametrize("label, side", CASES)
def test_procedure_of_another_model_is_refused(label, side):
    model, proc, f = _setup(label, side)
    other, _, _ = _setup(label, side, seed=6)
    new_window = SemidirectModel(model.torus, label, model.lattice, other.phi, model.varphi)
    new_generator = SemidirectModel(model.torus, label, model.lattice, model.phi, other.varphi)
    for wrong in (other, new_window, new_generator):
        with pytest.raises(GroupMismatchError, match="reduction"):
            semidirect_sample_and_reconstruct(wrong, proc, f)


@pytest.mark.parametrize("label, side", CASES)
def test_reduction_with_equal_values_is_accepted(label, side):
    model, proc, f = _setup(label, side)
    twin = SemidirectModel(model.torus, label, model.lattice,
                           GroupSequence(model.torus, model.phi.values.copy()),
                           GroupSequence(model.torus, model.varphi.values.copy()))
    twin_proc = make_procedure(semidirect_reduce(twin).model, system=proc.system)
    assert twin_proc.model.generators is not model.generators
    want = semidirect_sample_and_reconstruct(model, proc, f).values
    got = semidirect_sample_and_reconstruct(model, twin_proc, f).values
    assert got.tobytes() == want.tobytes()

