"""Numbers and keys in a scenario file: every number must be finite, and every key known.

``json.loads`` reads ``1e400`` as inf, accepts the tokens ``NaN``,
``Infinity`` and ``-Infinity``, and keeps ``10**400`` as an integer that no
double holds.  Each of these, and ``true``, put into any numeric field of a
bundled scenario (the sequences, ``tolerances.residual`` and
``left_inverse.scale``), of an explicit ``system`` or of a
``left_inverse.transfer``, must end the run with exit code 2 and one
``error:`` line, before any numerics run.  So must a key that no reader
knows, added to any object of those files.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from groupsampling.cli import bundled_scenario_paths, main

BAD_NUMBERS = ("1e400", "-1e400", "NaN", "Infinity", "-Infinity", str(10 ** 400), "true")
MARK = "__bad_number__"
UNKNOWN = "__unknown_key__"


def _identity():
    return json.loads(Path(next(p for p in bundled_scenario_paths()
                                if p.endswith("identity.json"))).read_text())


def _scenarios():
    """Each bundled scenario, with a residual tolerance and a scale, plus system and transfer."""
    out = []
    for path in bundled_scenario_paths():
        payload = json.loads(Path(path).read_text())
        payload["tolerances"] = {"residual": 1e-9}
        payload["left_inverse"] = {**payload.get("left_inverse", {"kind": "moore_penrose"}),
                                   "scale": 1.0}
        out.append(payload)
    system = {k: v for k, v in _identity().items() if k != "probes"}
    system["system"] = {"moduli": [4], "rows": 1, "cols": 1,
                        "entries": [{"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}]}
    transfer = _identity()
    transfer["left_inverse"] = {"kind": "family", "transfer": {
        "moduli": [4], "rows": 1, "cols": 1, "re": [[[1.0]]] * 4, "im": [[[0.0]]] * 4}}
    return [*out, system, transfer]


SCENARIOS = _scenarios()


def _paths(value, kind, path=()):
    """Paths to each value of ``kind`` in the payload: floats are its numbers, dicts its objects."""
    here = [path] if isinstance(value, kind) else []
    if isinstance(value, dict):
        return here + [p for k, v in value.items() for p in _paths(v, kind, (*path, k))]
    if isinstance(value, list):
        return here + [p for i, v in enumerate(value) for p in _paths(v, kind, (*path, i))]
    return here


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@st.composite
def bad_files(draw):
    payload = json.loads(json.dumps(draw(st.sampled_from(SCENARIOS))))
    *parents, last = draw(st.sampled_from(_paths(payload, float)))
    _at(payload, parents)[last] = MARK
    return json.dumps(payload).replace(json.dumps(MARK), draw(st.sampled_from(BAD_NUMBERS)))


@st.composite
def unknown_key_files(draw):
    payload = json.loads(json.dumps(draw(st.sampled_from(SCENARIOS))))
    _at(payload, draw(st.sampled_from(_paths(payload, dict))))[UNKNOWN] = 0
    return json.dumps(payload)


def test_the_scenarios_run_as_written():
    with tempfile.TemporaryDirectory() as tmp:
        for k, payload in enumerate(SCENARIOS):
            path = Path(tmp) / f"{k}.json"
            path.write_text(json.dumps(payload))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", str(path)]) in (0, 1)


def _exits_two(text, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


COMMANDS = st.sampled_from(("analyze", "roundtrip", "verify"))


@settings(max_examples=150, deadline=None)
@given(bad_files(), COMMANDS)
def test_a_number_no_double_holds_exits_two(text, command):
    _exits_two(text, command)


@settings(max_examples=150, deadline=None)
@given(unknown_key_files(), COMMANDS)
def test_an_unknown_key_in_any_object_exits_two(text, command):
    _exits_two(text, command)
