"""Bitwise comparison of the exactly rounded outputs of two source trees.

    python bench/compare_trees.py --src /path/to/parent/src --src src

Each tree is imported in its own subprocess, which computes the same seeded
outputs and prints them, encoded bit for bit, as one JSON object:

- ``convolve`` (both argument orders, and at every third point), ``apply``,
  ``exact_inner`` and ``exact_norm_sq`` on groups of one to three factors,
  with M, N in 1..3, operands scaled by 1, 1e150, 1e-300 and 5e-324, and 0,
  30, 75, 95 and 100% exact zeros; then the same with inf, -inf and NaN
  entries (the raised exception stands in for a value).  Above 1024 points
  (Z48 x Z48, Z1100 and Z2 x Z3 x Z200) M = N = 1, with 0, 75 and 95% zeros
  and finite entries only, so that the difference rows of every column and of
  column subsets of both shapes (fewer points than columns, and more) are
  compared;
- ``exact_sums`` on blocks of the shapes the benchmark's workloads sum, and
  on blocks of those shapes that mix dense rows with the rows the one-level
  certificate leaves open (:func:`open_rows_block`): as they are, scaled
  near underflow, and with an ``inf`` row and a NaN row;
- ``json.dumps`` of the ``to_json_dict`` of a seeded ``GroupSequence``,
  ``VectorSequence``, ``SequenceMatrix`` and ``TransferMatrix``, each built
  from a transposed (F-ordered) array where it has more than one axis, of
  the Moore-Penrose ``LeftInverse`` of that system, and of a ``GroupSequence``
  loaded from a payload with signed zeros (see the end of this list);
- the semidirect functions on seeded C2 and C4 models on Z12 x Z12 with
  strides (3, 3): the generators of ``semidirect_reduce``, ``semidirect_analysis``
  of a dense input and of one with 90% exact zeros, ``quasi_regular_apply`` at
  seeded rotations and shifts (unreduced and negative tuples, and torus
  elements), and ``semidirect_sample_and_reconstruct`` with a Moore-Penrose
  procedure on R + 1 seeded probes (R rotations), called twice on the same
  model and procedure, so that the second, warm call reads what the first left
  cached; these reach the rotations directly, where the reports reach them only
  through ``roundtrip`` residuals;
- stdout, stderr and exit code of ``verify --all`` at seeds 0 to 9, of
  ``verify --all --seed 3 --inject-fault``, of ``analyze`` and ``roundtrip``
  on every bundled scenario (``roundtrip`` also with ``--left-inverse family``,
  with ``--left-inverse square`` and with ``--tol 1e-3``), of the
  ``cli_verify`` workload's commands at seeds 0 to 2: ``verify --all`` at its
  seed, and ``verify``, ``analyze`` and ``roundtrip`` on the finite-index
  scenario on Z48 it generates (its own ``CliVerify.setup``, imported from
  ``perfbench/``), and of the usage errors that must exit 2: bad tolerances on
  the command line and in a config, a malformed ``left_inverse.transfer``, and
  numbers no double holds: ``1e400`` and ``NaN`` in a probe, and ``10**400`` as
  ``tolerances.residual`` and as ``left_inverse.scale``, and negative seeds:
  ``roundtrip identity.json --seed -5``, ``verify --all --seed -1``, and
  ``"seed": -5`` and a ``left_inverse`` ``"seed": -3`` in a config.  Against a
  tree from before negative seeds were rejected, these six runs differ: there
  ``analyze`` accepts both configs, and ``roundtrip`` and ``verify`` end in
  numpy's ``ValueError: expected non-negative integer``.  Then the paths that
  cannot be read or written, which must exit 2 with nothing on stdout:
  ``analyze`` of a directory and of a file holding the bytes ``ff fe``, and
  ``analyze identity.json --report .``.  Against a tree from before these
  exited 2, these three runs differ: there each ends in a traceback, the
  last after the report has gone to stdout.  Last, ``analyze`` and
  ``roundtrip`` of configs whose ``system.rows`` is ``1.7``, ``true`` or
  ``"1"``, or whose ``left_inverse.transfer`` has ``"rows": 1.5`` and
  ``"cols": true``.  Against a tree from before these exited 2, these eight
  runs differ by design: there ``int()`` accepts each, and the run exits 0.
  Then four configs that each class's ``from_json_dict`` or the resolved model
  rejects: a system entry with an unknown ``imag`` key, a transfer with an
  unknown ``note`` key, a system on ``Z_2`` for a model sampled on ``Z_4``, and
  a 2 x 2 system for a one-generator model.  Against a tree from before these
  exited 2, these eight runs differ: there the unknown keys are ignored and
  the runs exit 0, the ``Z_2`` system's ``analyze`` exits 0 and its
  ``roundtrip`` ends in a ``GroupMismatchError`` traceback, and the 2 x 2
  system's ``analyze`` exits 1 and its ``roundtrip`` exits 2 with another message.
  Then three configs on the scenario that ``parse_config`` resolves: that 2 x 2
  system with ``"tolerances": {"residual": -1}``, whose tolerance error is
  reported first because the system is checked against the model after every
  key is read; the semidirect scenario with ``"Gamma": ["C4"]``, which exits 2;
  and a probe with ``-0.0`` real and imaginary parts (``SIGNED_ZEROS``), which
  runs.  ``from_json_dict/signed_zeros`` dumps a ``GroupSequence`` loaded from
  that payload; against a tree whose loaders build ``re + 1j * im`` it differs
  by design, because there every ``-0.0`` imaginary part, and each ``-0.0``
  real part whose imaginary part is not negative, comes back as ``+0.0``.
  The usage line that argparse prints with ``roundtrip identity.json --seed
  -5`` lists the ``--left-inverse`` choices in the order of
  ``sampling.LEFT_INVERSE_KINDS`` (``moore_penrose,mp,family,square``); a
  tree from before that tuple lists ``mp`` first, and that run's stderr differs.
  A report on stdout is compared as the JSON it parses to, with every float as
  its exact hex and every object as its ordered key/value pairs, so that two
  layouts of the same values compare equal; any other stdout is compared as
  text.  An exception that escapes ``main`` stands in for the output.

The two outputs are compared key by key.  Prints the number of outputs
compared and each one that differs; exits 0 when every output is bitwise
equal, 1 otherwise.  When both sides of a differing output decode to arrays of
the same shape (the encoded values, or a report's floats in order with every
other field equal), the line also gives the largest relative deviation,
max |a - b| / max(|a|, |b|) over the whole output, so that a change of
round-off can be bounded, not only counted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCALES = (1.0, 1e150, 1e-300, 5e-324)
ZERO_SHARES = (0.0, 0.3, 0.75, 0.95, 1.0)
MODULI = ((40,), (7, 9), (4, 3, 5), (32, 32), (48, 48), (1100,), (2, 3, 200))
BIG_ZERO_SHARES = (0.0, 0.75, 0.95)  # above 1024 points: dense, and two column subsets
BLOCK_SHAPES = ((16, 2048), (64, 512), (28, 1152), (30, 1024))
NON_FINITE = (float("inf"), float("-inf"), float("nan"))
VERIFY_SEEDS = range(10)
ROUNDTRIP_OPTIONS = ((), ("--left-inverse", "family"), ("--left-inverse", "square"),
                     ("--tol", "1e-3"))
BAD_TOLERANCES = ("-1", "nan", "inf")
BAD_TRANSFERS = ({"moduli": [4]}, 5)  # a dump without its values, and not an object
UNREPRESENTABLE = "1e400"  # a JSON number that parses to inf, written into the file as is
BAD_ROWS = (1.7, True, "1")  # system.rows values that are not integers
SEMIDIRECT_LABELS = ("C2", "C4")  # on Z12 x Z12, strides (3, 3)
SEMIDIRECT_SHIFTS = 6  # seeded (shift, rotation) pairs per model and shift form
SIGNED_ZEROS = {"re": [1.0, -0.0, 0.5, -0.0], "im": [-0.0, 0.25, -0.0, 0.0]}  # on Z4
GENERATED_SEEDS = range(3)
GENERATED = "generated_finite_index.json"  # the file ``CliVerify.setup`` writes
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _encode(call) -> str:
    """Hex of the output's bytes, or the exception it raised."""
    import numpy as np

    try:
        value = call()
    except Exception as exc:  # the exception is the output being compared
        return f"raises {type(exc).__name__}: {exc}"
    return np.ascontiguousarray(np.asarray(value, dtype=np.complex128)).tobytes().hex()


def open_rows_block(rng, rows: int, terms: int):
    """Dense products of normal draws, with eight rows that one extraction
    level cannot certify: rows of +0.0, of -0.0 and of both, a row of exactly
    cancelling pairs, three ties (to even downward, to even upward, and below
    a power of two) and a subnormal sum, each hidden among cancelling pairs."""
    import numpy as np

    def hidden(special):
        pairs = rng.standard_normal((terms - len(special)) // 2)
        row = np.zeros(terms)
        row[:len(special) + 2 * len(pairs)] = [*special, *pairs, *(-pairs)]
        return rng.permutation(row)

    u = 2.0 ** -53  # half an ulp of 1
    block = rng.standard_normal((rows, terms)) * rng.standard_normal((rows, terms))
    block[:8] = [np.zeros(terms), -np.zeros(terms), rng.choice([0.0, -0.0], size=terms),
                 hidden([]), hidden([1.0, u]), hidden([1.0 + 2 * u, u]), hidden([1.0, -u / 2]),
                 hidden([3 * 5e-324, -(2.0 ** -1022)])]
    return rng.permutation(block)


def _kernel_outputs(out: dict) -> None:
    import numpy as np
    import groupsampling as gs
    from groupsampling.groups import exact_inner, exact_norm_sq, exact_sums

    rng = np.random.default_rng(0)

    def draw(shape, zeros, scale):
        v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        v[rng.random(shape) < zeros] = 0
        return v

    def record(name, g, a, x):
        m_rows, n_cols = a.shape[:2]
        at = np.arange(0, g.order, 3)
        a0, x0 = gs.GroupSequence(g, a[0, 0]), gs.GroupSequence(g, x[0])
        out[f"{name}/convolve"] = _encode(lambda: gs.convolve(a0, x0).values)
        out[f"{name}/convolve_swapped"] = _encode(lambda: gs.convolve(x0, a0).values)
        out[f"{name}/convolve_at"] = _encode(lambda: gs.convolve(a0, x0, at=at))
        out[f"{name}/apply_{m_rows}x{n_cols}"] = _encode(
            lambda: gs.apply(gs.SequenceMatrix(g, a), gs.VectorSequence(g, x)).values)
        out[f"{name}/inner"] = _encode(lambda: exact_inner(a[0, 0], x[0]))
        out[f"{name}/norm_sq"] = _encode(lambda: exact_norm_sq(a[-1, -1]))

    for moduli in MODULI:
        g = gs.GroupSpec(moduli)
        big = g.order > 1024  # one 1x1 case per scale and zero share
        for scale in SCALES:
            for zeros in BIG_ZERO_SHARES if big else ZERO_SHARES:
                m_rows, n_cols = (1, 1) if big else rng.integers(1, 4, size=2)
                a = draw((m_rows, n_cols, g.order), zeros, scale)
                x = draw((n_cols, g.order), zeros, 1.0)
                record(f"{moduli}/scale={scale}/zeros={zeros}", g, a, x)
        if big:
            continue
        for value in NON_FINITE:
            for where in ("a", "x", "both"):
                a, x = draw((2, 2, g.order), 0.3, 1.0), draw((2, g.order), 0.3, 1.0)
                if where in ("a", "both"):
                    a[rng.integers(2), rng.integers(2), rng.integers(g.order)] = value
                if where in ("x", "both"):
                    x[rng.integers(2), rng.integers(g.order)] = complex(0.0, value)
                record(f"{moduli}/{value}_in_{where}", g, a, x)

    for shape in BLOCK_SHAPES:
        for kind in ("products", "cancelling", "zeros_half"):
            terms = rng.standard_normal(shape) * rng.standard_normal(shape)
            if kind == "cancelling":
                half = terms[:, : shape[1] // 2]
                terms = rng.permuted(np.concatenate([half, -half], axis=1), axis=1)
            elif kind == "zeros_half":
                terms[rng.random(shape) < 0.5] = 0.0
            out[f"exact_sums/{shape}/{kind}"] = _encode(lambda: exact_sums(terms))
    for shape in BLOCK_SHAPES:
        terms = open_rows_block(rng, *shape)
        tiny = np.ldexp(terms, -1000)  # the bound is too small for the certified level
        non_finite = terms.copy()
        non_finite[rng.choice(shape[0], 2, replace=False), rng.integers(shape[1])] = (
            float("inf"), float("nan"))
        for kind, block in (("open", terms), ("open_tiny", tiny), ("open_non_finite", non_finite)):
            out[f"exact_sums/{shape}/{kind}"] = _encode(lambda: exact_sums(block))


def _serializer_outputs(out: dict) -> None:
    import numpy as np
    import groupsampling as gs

    rng = np.random.default_rng(1)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = gs.GroupSpec((4, 3))
    system = gs.SequenceMatrix(g, draw(g.order, 2, 3).T)  # F-ordered (3, 2, order)
    for name, x in (("GroupSequence", gs.GroupSequence(g, draw(g.order))),
                    ("VectorSequence", gs.VectorSequence(g, draw(g.order, 2).T)),
                    ("SequenceMatrix", system),
                    ("TransferMatrix", gs.TransferMatrix(g, draw(2, 3, g.order).T)),
                    ("LeftInverse", gs.moore_penrose(system))):
        out[f"to_json_dict/{name}"] = json.dumps(x.to_json_dict())
    out["from_json_dict/signed_zeros"] = json.dumps(
        gs.GroupSequence.from_json_dict({"moduli": [4], **SIGNED_ZEROS}).to_json_dict())


def _semidirect_outputs(out: dict) -> None:
    import numpy as np
    import groupsampling as gs

    rng = np.random.default_rng(2)
    torus = gs.GroupSpec((12, 12))

    def draw(zeros=0.0):
        v = rng.standard_normal(torus.order) + 1j * rng.standard_normal(torus.order)
        v[rng.random(torus.order) < zeros] = 0
        return gs.GroupSequence(torus, v)

    for label in SEMIDIRECT_LABELS:
        model = gs.SemidirectModel(torus, label, gs.ProductSubgroup(torus, (3, 3)), draw(), draw())
        name = f"semidirect/{label}"
        reduced = gs.semidirect_reduce(model).model
        out[f"{name}/reduce_generators"] = _encode(lambda: [g.values for g in reduced.generators])
        f, sparse = draw(), draw(0.9)
        out[f"{name}/analysis"] = _encode(lambda: gs.semidirect_analysis(model, f).values)
        out[f"{name}/analysis_sparse"] = _encode(
            lambda: gs.semidirect_analysis(model, sparse).values)
        for _ in range(SEMIDIRECT_SHIFTS):
            coords = tuple(int(c) for c in rng.integers(-30, 30, size=2))
            gamma = int(rng.integers(model.n_rotations))
            for shift in (coords, torus.element(coords)):
                out[f"{name}/quasi_regular_apply/{shift}/{gamma}"] = _encode(
                    lambda: gs.quasi_regular_apply(model, shift, gamma, f).values)
        proc = gs.make_procedure(reduced, probes=[draw() for _ in range(model.n_rotations + 1)])
        for call in ("sample_and_reconstruct", "sample_and_reconstruct_warm"):
            out[f"{name}/{call}"] = _encode(
                lambda: gs.semidirect_sample_and_reconstruct(model, proc, f).values)


def _decoded(output):
    """(everything but the numbers, array of the numbers) of an output, or None.

    An encoded value decodes to its complex values; a CLI run whose stdout is a
    report decodes to the report's floats, in order, and its other fields.
    """
    import numpy as np

    if isinstance(output, str):
        try:
            return None, np.frombuffer(bytes.fromhex(output), dtype=np.complex128)
        except ValueError:  # an exception's message, or a JSON dump
            return None
    if not isinstance(output, dict) or not isinstance(output["stdout"], list):
        return None
    floats = []

    def skeleton(node):
        if isinstance(node, list) and node[:1] == ["float"]:
            floats.append(float.fromhex(node[1]))
            return "float"
        return [skeleton(v) for v in node] if isinstance(node, list) else node

    return [skeleton(output["stdout"]), output["stderr"], output["code"]], np.array(floats)


def relative_deviation(first, second) -> float | None:
    """max |a - b| / max(|a|, |b|) of two outputs that decode alike, else None.

    Equal entries (NaN against NaN too) deviate by zero; the scale is the largest
    finite magnitude on either side.
    """
    import numpy as np

    a, b = _decoded(first), _decoded(second)
    if a is None or b is None or a[0] != b[0] or a[1].shape != b[1].shape:
        return None
    a, b = a[1], b[1]
    with np.errstate(invalid="ignore"):  # inf - inf, which the mask below zeroes
        diff = np.abs(a - b)
    diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    both = np.abs(np.concatenate([a, b]))
    finite = both[np.isfinite(both)]
    scale = max(float(finite.max()) if finite.size else 0.0, np.finfo(float).tiny)
    return float(diff.max()) / scale if diff.size else 0.0


def _bits(value):
    """A parsed report with each float as its exact hex and each object as ordered pairs."""
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, dict):
        return ["object", [[key, _bits(v)] for key, v in value.items()]]
    if isinstance(value, list):
        return ["array", [_bits(v) for v in value]]
    return value


def _cli_outputs(out: dict, scenarios: Path) -> None:
    from groupsampling import cli

    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the exception is the output being compared
                code = f"raises {type(exc).__name__}: {exc}"
        try:
            report = ["report", _bits(json.loads(stdout.getvalue()))]
        except json.JSONDecodeError:
            report = stdout.getvalue()
        return {"stdout": report, "stderr": stderr.getvalue(), "code": code}

    for seed in VERIFY_SEEDS:
        out[f"verify --all --seed {seed}"] = run(["verify", "--all", "--seed", str(seed)])
    out["verify --all --seed 3 --inject-fault"] = run(
        ["verify", "--all", "--seed", "3", "--inject-fault"])
    os.chdir(scenarios)  # relative paths, so that messages do not name the tree
    for path in sorted(scenarios.glob("*.json")):
        out[f"analyze {path.name}"] = run(["analyze", path.name])
        for options in ROUNDTRIP_OPTIONS:
            argv = ["roundtrip", path.name, *options]
            out[" ".join(argv)] = run(argv)
    for tol in BAD_TOLERANCES:
        argv = ["analyze", "identity.json", f"--tol={tol}"]
        out[" ".join(argv)] = run(argv)
    for argv in (["roundtrip", "identity.json", "--seed", "-5"],
                 ["verify", "--all", "--seed", "-1"],
                 ["analyze", "."], ["analyze", "identity.json", "--report", "."]):
        out[" ".join(argv)] = run(argv)
    identity = json.loads((scenarios / "identity.json").read_text(encoding="utf-8"))
    from workloads import CliVerify

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        bad = {"frame_tolerance_-1": {**identity, "tolerances": {"frame": -1}}}
        for k, transfer in enumerate(BAD_TRANSFERS):
            bad[f"transfer_{k}"] = {**identity, "left_inverse": {"kind": "family",
                                                                 "transfer": transfer}}
        probe = identity["probes"][0]
        for name, value in (("1e400", UNREPRESENTABLE), ("nan", float("nan"))):
            bad[f"probe_re_{name}"] = {**identity, "probes": [
                {**probe, "re": [value, *probe["re"][1:]]}, *identity["probes"][1:]]}
        bad["residual_huge_int"] = {**identity, "tolerances": {"residual": 10 ** 400}}
        bad["scale_huge_int"] = {**identity, "left_inverse": {"kind": "family", "scale": 10 ** 400}}
        bad["seed_-5"] = {**identity, "seed": -5}
        bad["left_inverse_seed_-3"] = {**identity, "left_inverse": {"kind": "family", "seed": -3}}
        system = {k: v for k, v in identity.items() if k != "probes"}
        for k, rows in enumerate(BAD_ROWS):
            bad[f"system_rows_{k}"] = {**system, "system": {
                "moduli": [4], "rows": rows, "cols": 1,
                "entries": [{"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}]}}
        bad["transfer_rows_cols"] = {**identity, "left_inverse": {"kind": "family", "transfer": {
            "moduli": [4], "rows": 1.5, "cols": True, "re": [[[1.0]]] * 4, "im": [[[0.0]]] * 4}}}
        entry = {"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
        for name, moduli, size, entries in (
                ("system_entry_unknown_key", [4], 1, [{**entry, "imag": [0.0] * 4}]),
                ("system_wrong_group", [2], 1, [{"re": [1.0, 0.0]}]),
                ("system_wrong_cols", [4], 2, [entry] * 4)):
            bad[name] = {**system, "system": {"moduli": moduli, "rows": size, "cols": size,
                                              "entries": entries}}
        bad["transfer_unknown_key"] = {**identity, "left_inverse": {"kind": "family", "transfer": {
            "moduli": [4], "rows": 1, "cols": 1, "re": [[[1.0]]] * 4, "im": [[[0.0]]] * 4,
            "note": "x"}}}
        bad["system_wrong_cols_residual_-1"] = {**bad["system_wrong_cols"],
                                               "tolerances": {"residual": -1}}
        semidirect = json.loads((scenarios / "semidirect_c2.json").read_text(encoding="utf-8"))
        bad["gamma_list"] = {**semidirect, "model": {**semidirect["model"], "Gamma": ["C4"]}}
        bad["probe_signed_zeros"] = {**identity, "probes": [{**probe, **SIGNED_ZEROS}]}  # not bad
        for name, payload in bad.items():
            text = json.dumps(payload).replace(json.dumps(UNREPRESENTABLE), UNREPRESENTABLE)
            Path(f"{name}.json").write_text(text, encoding="utf-8")
            for command in ("analyze", "roundtrip"):
                out[f"{command} {name}.json"] = run([command, f"{name}.json"])
        Path("not_utf8.json").write_bytes(b"\xff\xfe")
        out["analyze not_utf8.json"] = run(["analyze", "not_utf8.json"])
        for seed in GENERATED_SEEDS:
            # the benchmark's own scenario and commands, written to a relative path
            commands = CliVerify().setup(seed, Path("."))["commands"]
            # all but the bundled scenarios' roundtrips, whose absolute paths name the tree
            for argv in (argv for argv, _ in commands
                         if argv[0] != "roundtrip" or argv[1] == GENERATED):
                out[f"cli_verify seed {seed}: {' '.join(argv)}"] = run(argv)
        os.chdir(scenarios)  # leave the directory before it is removed


def emit(src: Path) -> None:
    sys.path.insert(0, str(src))
    sys.path.append(str(PERFBENCH))  # for the benchmark's workload generators
    out: dict = {}
    _kernel_outputs(out)
    _serializer_outputs(out)
    _semidirect_outputs(out)
    _cli_outputs(out, src / "groupsampling" / "scenarios")
    sys.stdout.write(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a tree's src/ directory; give two")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.src[0].resolve())
        return 0
    if len(args.src) != 2:
        parser.error("give --src twice")
    outputs = []
    for src in args.src:
        done = subprocess.run([sys.executable, __file__, "--emit", "--src", str(src.resolve())],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 2
        outputs.append(json.loads(done.stdout))
    first, second = outputs
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differ:
        deviation = relative_deviation(first.get(key), second.get(key))
        tail = "" if deviation is None else f" (largest relative deviation {deviation:.3e})"
        print(f"differs: {key}{tail}")
    print(f"{len(first.keys() | second.keys())} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
