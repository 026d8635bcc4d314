"""One spectrum per system, and left inverses that inverse-transform on demand.

``frames._spectrum`` keeps the spectral Gram, its raw eigenvalues and, for a
square system, |det A^(xi)| on the system's cached transfer matrix.  Every
verdict on one system object must then cost one batched ``eigvalsh`` and one
batched ``det`` over the characters, however many verdicts a procedure asks
for, and a verdict read from the cache must be bitwise the verdict of a fresh
object.
A ``LeftInverse`` builds its sequences only when they are read.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling import (GroupSequence, GroupSpec, LeftInverse, ProductSubgroup,
                           SequenceMatrix, TransferMatrix, TranslationModel, diagnostics,
                           left_inverse_family, make_procedure, moore_penrose,
                           shannon_procedure, square_inverse)
from groupsampling import cli, duals
from groupsampling.frames import _spectral_gram, _spectrum
from groupsampling.systems import from_transfer, transfer


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def stacks(monkeypatch):
    """Copies of every 3-d stack passed to ``np.linalg.eigvalsh`` and ``np.linalg.det``."""
    seen = {"eigvalsh": [], "det": []}
    for name in seen:
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            if np.ndim(a) == 3:
                seen[_name].append(np.array(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _solves_of(stacks, system):
    """How many eigen-solves and determinant passes ran on this system's matrices."""
    t = transfer(system).matrices
    gram = _spectral_gram(t)
    return (sum(np.array_equal(a, gram) for a in stacks["eigvalsh"]),
            sum(np.array_equal(a, t) for a in stacks["det"]))


def _model(g, cols):
    """A model on g sampled at every point, so that systems live on g itself."""
    return TranslationModel(g, GroupSequence.delta(g), ProductSubgroup(g, (1,) * g.ndim),
                            tuple(GroupSequence.delta(g, g.element_at(k)) for k in range(cols)))


@pytest.mark.parametrize("kind, rows", [("moore_penrose", 6), ("family", 6), ("square", 4)])
def test_make_procedure_solves_each_system_once(stacks, kind, rows):
    rng = np.random.default_rng(1)
    g = GroupSpec((4, 4))
    system = SequenceMatrix(g, _complex(rng, (rows, 4, g.order)))
    c = TransferMatrix(g, _complex(rng, (g.order, 4, rows))) if kind == "family" else None
    proc = make_procedure(_model(g, 4), system=system, left_inverse=kind, c=c)
    assert proc.diag.is_frame
    assert _solves_of(stacks, system) == (1, int(rows == 4))
    assert (len(stacks["eigvalsh"]), len(stacks["det"])) == (1, int(rows == 4))


def test_shannon_procedure_solves_its_system_once(stacks):
    rng = np.random.default_rng(2)
    g = GroupSpec((8,))
    model = TranslationModel(g, GroupSequence(g, _complex(rng, g.order)),
                             ProductSubgroup(g, (2,)), (GroupSequence(g, _complex(rng, g.order)),))
    proc = shannon_procedure(model)
    assert _solves_of(stacks, proc.system) == (1, 1)
    assert (len(stacks["eigvalsh"]), len(stacks["det"])) == (1, 1)


@pytest.mark.parametrize("scenario", ["finite_index_z8", "nonframe_counterexample"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_cli_solves_the_scenario_system_once(stacks, scenario, command):
    path = next(p for p in cli.bundled_scenario_paths() if p.endswith(f"{scenario}.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([command, path])
    system = cli.load_config(path).system
    assert _solves_of(stacks, system) == (1, int(system.rows == system.cols))


@st.composite
def systems(draw):
    """Complex systems on 1-2 cyclic factors with |H| <= 64, some with a duplicated column."""
    moduli = tuple(draw(st.integers(1, 8)) for _ in range(draw(st.integers(1, 2))))
    g = GroupSpec(moduli)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = _complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      (rows, cols, g.order))
    if cols > 1 and draw(st.booleans()):
        values[:, 1] = values[:, 0]
    return g, values


def _fields(d):
    return (d.group, d.rows, d.cols, d.alpha, d.beta, d.delta, d.is_frame, d.is_riesz,
            d.tol, d.eigenvalues.tobytes(),
            None if d.abs_dets is None else d.abs_dets.tobytes(), d.worst_xi)


TOLERANCES = (None, 0.0, 1e-6)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_warm_diagnostics_equal_a_fresh_system_bitwise(case):
    g, values = case
    warm = SequenceMatrix(g, values)
    for tol in TOLERANCES:
        diagnostics(warm, tol)
    for tol in TOLERANCES:
        assert _fields(diagnostics(warm, tol)) == _fields(diagnostics(SequenceMatrix(g, values),
                                                                      tol))


@settings(max_examples=50, deadline=None)
@given(systems())
def test_cached_spectrum_is_read_only(case):
    g, values = case
    system = SequenceMatrix(g, values)
    d = diagnostics(system)
    gram, eigs, abs_dets = _spectrum(transfer(system))
    assert gram.tobytes() == _spectral_gram(transfer(system).matrices).tobytes()
    assert (abs_dets is None) == (system.rows != system.cols)
    for arr in (gram, eigs, abs_dets, d.abs_dets):
        if arr is not None:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


@settings(max_examples=50, deadline=None)
@given(systems())
def test_writing_one_result_leaves_the_next_unchanged(case):
    g, values = case
    system = SequenceMatrix(g, values)
    first = diagnostics(system)
    expected = _fields(diagnostics(SequenceMatrix(g, values)))
    first.eigenvalues[:] = -1.0
    assert _fields(diagnostics(system)) == expected


def _duals():
    rng = np.random.default_rng(3)
    g = GroupSpec((4, 2))
    tall = SequenceMatrix(g, _complex(rng, (3, 2, g.order)))
    square = SequenceMatrix(g, _complex(rng, (3, 3, g.order)))
    c = TransferMatrix(g, _complex(rng, (g.order, 2, 3)))
    return {"moore_penrose": lambda: moore_penrose(tall),
            "family": lambda: left_inverse_family(tall, c),
            "square": lambda: square_inverse(square)}


@pytest.mark.parametrize("kind", ["moore_penrose", "family", "square"])
def test_dual_sequences_are_built_once_on_first_read(monkeypatch, kind):
    calls = []

    def counting(t):
        calls.append(t)
        return from_transfer(t)

    monkeypatch.setattr(duals, "from_transfer", counting)
    dual = _duals()[kind]()
    assert isinstance(dual, LeftInverse) and dual.kind == kind
    assert calls == []
    coefficients = dual.coefficients
    assert coefficients.values.tobytes() == from_transfer(dual.transfer).values.tobytes()
    assert dual.coefficients is coefficients
    assert calls == [dual.transfer]


@pytest.mark.parametrize("kind", ["moore_penrose", "family", "square"])
def test_dual_json_layout_and_immutability(kind):
    dual = _duals()[kind]()
    expected = from_transfer(dual.transfer).to_json_dict()
    expected["kind"] = kind
    expected["transfer"] = dual.transfer.to_json_dict()
    data = dual.to_json_dict()
    assert list(data) == ["moduli", "rows", "cols", "entries", "kind", "transfer"]
    assert data == expected
    for name in ("transfer", "coefficients", "kind", "_coefficients"):
        with pytest.raises(AttributeError):
            setattr(dual, name, None)
