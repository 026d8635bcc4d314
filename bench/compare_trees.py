"""Bitwise comparison of the exactly rounded outputs of two source trees.

    python bench/compare_trees.py --src /path/to/parent/src --src src

Each tree is imported in its own subprocess, which computes the same seeded
outputs and prints them, encoded bit for bit, as one JSON object:

- ``convolve`` (both argument orders, and at a subset of points), ``apply``,
  ``exact_inner`` and ``exact_norm_sq`` on groups of one to three factors,
  with M, N in 1..3, operands scaled by 1, 1e150, 1e-300 and 5e-324, and 0,
  30, 75, 95 and 100% exact zeros; then the same with inf, -inf and NaN
  entries (the raised exception stands in for a value);
- ``exact_sums`` on blocks of the shapes the benchmark's workloads sum;
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
  numpy's ``ValueError: expected non-negative integer``.
  A report on stdout is compared as the JSON it parses to, with every float as
  its exact hex and every object as its ordered key/value pairs, so that two
  layouts of the same values compare equal; any other stdout is compared as
  text.  An exception that escapes ``main`` stands in for the output.

The two outputs are compared key by key.  Prints the number of outputs
compared and each one that differs; exits 0 when every output is bitwise
equal, 1 otherwise.
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
MODULI = ((40,), (7, 9), (4, 3, 5), (32, 32), (48, 48))
BLOCK_SHAPES = ((16, 2048), (64, 512), (28, 1152), (30, 1024))
NON_FINITE = (float("inf"), float("-inf"), float("nan"))
VERIFY_SEEDS = range(10)
ROUNDTRIP_OPTIONS = ((), ("--left-inverse", "family"), ("--left-inverse", "square"),
                     ("--tol", "1e-3"))
BAD_TOLERANCES = ("-1", "nan", "inf")
BAD_TRANSFERS = ({"moduli": [4]}, 5)  # a dump without its values, and not an object
UNREPRESENTABLE = "1e400"  # a JSON number that parses to inf, written into the file as is
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
        big = g.order > 1024  # one case per scale: the block path without the cached table
        for scale in SCALES:
            for zeros in ZERO_SHARES[:1] if big else ZERO_SHARES:
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
                 ["verify", "--all", "--seed", "-1"]):
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
        for name, payload in bad.items():
            text = json.dumps(payload).replace(json.dumps(UNREPRESENTABLE), UNREPRESENTABLE)
            Path(f"{name}.json").write_text(text, encoding="utf-8")
            for command in ("analyze", "roundtrip"):
                out[f"{command} {name}.json"] = run([command, f"{name}.json"])
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
        print(f"differs: {key}")
    print(f"{len(first.keys() | second.keys())} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
