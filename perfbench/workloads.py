"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload has ``setup(seed)``, which builds every input from the seed
(this is what ``setup_s`` times), ``prepare(inputs)``, which computes with
:mod:`oracle`, outside any timing, the expected outputs (and on semidirect_c4
the signals themselves), and ``run_round``, which runs one fixed round of
operations through a :class:`Recorder`.  A round is the same work every time,
so counts divided by rounds repeat exactly.

Library functions are looked up on the package at call time, so a tracer that
has replaced them is seen.

An operation (``op_s_mean``) is one sample set reconstructed on
``translation_roundtrip``, one verdict on ``stability_scan``, one signal
reconstructed on ``semidirect_c4`` and one CLI command on ``cli_verify``.  A
build (``build_s_mean``) is a procedure made ready for those operations.

Which end-to-end metric each per-module metric should move, and where:

- ``groups.convolve.self_s`` and ``.mults``: ``build_s_mean`` on
  translation_roundtrip, ``build_s_mean`` and ``op_s_mean`` on semidirect_c4.
  It is never called on stability_scan, so nothing should move there.
- ``systems.apply.self_s`` and ``.mults``: ``op_s_mean`` on translation_roundtrip.
- ``sampling.reconstruct_function.self_s``: ``op_s_mean``, and
  ``sampling.build_sampling_functions.self_s``: ``build_s_mean``, both on
  translation_roundtrip.
- ``frames.diagnostics.self_s`` and ``.calls_per_build``, ``duals.*.self_s``,
  ``systems.transfer.hit_ratio``: ``op_s_mean`` and ``build_s_mean`` on
  stability_scan.
- ``models.coefficients_of.self_s`` and
  ``sampling.semidirect_sample_and_reconstruct.self_s``: ``op_s_mean`` on
  semidirect_c4.
- ``config.parse_config``, ``report.render_report``, ``cli.main`` and
  ``frames.oracle_frame_bounds``: ``op_s_mean`` on cli_verify.
- subtraction tables and dense Gram sizes, reached through the calls above:
  ``peak_rss_mb`` on translation_roundtrip and semidirect_c4.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import groupsampling as gs
from groupsampling import cli
from groupsampling.errors import FrameConditionError

import oracle

RESIDUAL_TOL = 1e-9          # the library's residual and left-inverse tolerance
SEMIDIRECT_TOL = 1e-8        # the library's semidirect residual tolerance


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass
class Recorder:
    """Times operations, checks their outputs and counts failures."""

    tracer: object = None
    build: list = field(default_factory=list)
    op: list = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    _reported: int = 0

    def time(self, call, check):
        """Run ``call`` once under the clock; return (output, seconds) or (None, None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        try:
            out = call()
        except Exception:  # an operation that raises is a failed operation
            self.busy += perf_counter() - start
            self._fail(traceback.format_exc())
            return None, None
        elapsed = perf_counter() - start
        self.busy += elapsed
        try:
            ok = bool(check(out))
            reason = "output check failed"
        except Exception:
            ok, reason = False, traceback.format_exc()
        if not ok:
            self._fail(reason)
        return out, elapsed

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if self._reported < 3:
            self._reported += 1
            sys.stderr.write(f"perfbench: operation failed: {reason}\n")


def _build(make, *args, **kwargs):
    """A procedure ready to reconstruct: ``make(...)`` plus its lazy sampling functions."""
    proc = make(*args, **kwargs)
    proc.sampling_functions
    return proc


class TranslationRoundtrip:
    """Z_n x Z_n with strides (2, 2): one build, then one roundtrip per coefficient draw.

    Every round builds a new procedure from the same model, as a user who
    keeps a model does, so the group's tables cached on it are filled by the
    untimed first round and reused after.
    """

    name = "translation_roundtrip"
    STRIDE, GENERATORS, PROBES = 2, 2, 3

    def __init__(self, n: int = 32, draws: int = 4) -> None:
        self.shape, self.strides = (n, n), (self.STRIDE, self.STRIDE)
        self.n_draw = draws

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        g = gs.GroupSpec(self.shape)
        sub = gs.ProductSubgroup(g, self.strides)
        gens = tuple(gs.GroupSequence(g, _complex_normal(rng, g.order))
                     for _ in range(self.GENERATORS))
        probes = [gs.GroupSequence(g, _complex_normal(rng, g.order))
                  for _ in range(self.PROBES)]
        model = gs.TranslationModel(g, gs.GroupSequence.delta(g), sub, gens)
        habs = sub.abstract_group
        draws = [gs.VectorSequence(habs, _complex_normal(rng, (self.GENERATORS, habs.order)))
                 for _ in range(self.n_draw)]
        return {"model": model, "probes": probes, "draws": draws}

    def prepare(self, inputs: dict) -> dict:
        model = inputs["model"]
        gens = [g.values for g in model.generators]
        phi = model.phi.values
        system = oracle.sample_matrix(gens, [p.values for p in inputs["probes"]],
                                      self.shape, self.strides)
        tables = [oracle.correlate(oracle.synthesize(gens, x.values, self.shape, self.strides),
                                   phi, self.shape) for x in inputs["draws"]]
        return {"system": system, "tables": tables}

    def run_round(self, inputs: dict, expected: dict, rec: Recorder) -> None:
        proc, elapsed = rec.time(
            lambda: _build(gs.make_procedure, inputs["model"], probes=inputs["probes"]),
            lambda p: oracle.relative_residual(p.system.values,
                                               expected["system"]) <= RESIDUAL_TOL)
        if proc is None:
            return
        rec.build.append(elapsed)
        for x, table in zip(inputs["draws"], expected["tables"]):
            _, elapsed = rec.time(
                lambda: _roundtrip(proc, x),
                lambda out: (oracle.relative_residual(out[0].values, x.values) <= RESIDUAL_TOL
                             and oracle.relative_residual(out[1].flat(), table)
                             <= RESIDUAL_TOL))
            if elapsed is not None:
                rec.op.append(elapsed)


def _roundtrip(proc, x):
    samples = gs.take_samples(proc, x)
    return (gs.reconstruct_coefficients(proc, samples),
            gs.reconstruct_function(proc, samples))


class StabilityScan:
    """Verdicts on explicit random systems over Z_n x Z_n, each with an uncached transfer.

    One round is the fixed mix below; a degenerate system has a duplicated
    column, so its transfer is rank deficient at every character and it must
    be rejected.
    """

    name = "stability_scan"
    ACCEPTED = (("moore_penrose", 6, False), ("square", 4, False), ("family", 6, False))
    MIX = (ACCEPTED * 2 + (("moore_penrose", 6, True),) + ACCEPTED * 2
           + (("square", 4, True),))
    COLS = 4

    def __init__(self, n: int = 64) -> None:
        self.shape = (n, n)

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        h = gs.GroupSpec(self.shape)
        model = gs.TranslationModel(
            h, gs.GroupSequence.delta(h), gs.ProductSubgroup(h, (1, 1)),
            tuple(gs.GroupSequence.delta(h, h.element_at(k)) for k in range(self.COLS)))
        systems = []
        for kind, rows, degenerate in self.MIX:
            values = _complex_normal(rng, (rows, self.COLS, h.order))
            if degenerate:
                values[:, 1] = values[:, 0]
            systems.append(values)
        family = gs.TransferMatrix(h, _complex_normal(rng, (h.order, self.COLS, 6)))
        return {"model": model, "systems": systems, "family": family}

    def prepare(self, inputs: dict) -> dict:
        return {}

    def run_round(self, inputs: dict, expected: dict, rec: Recorder) -> None:
        model = inputs["model"]
        habs = model.subgroup.abstract_group
        for (kind, _, degenerate), values in zip(self.MIX, inputs["systems"]):
            system = gs.SequenceMatrix(habs, values)  # a new object carries no transfer
            c = inputs["family"] if kind == "family" else None
            out, elapsed = rec.time(
                lambda: _verdict(model, system, kind, c),
                lambda out: _verdict_ok(out, degenerate, values, self.shape))
            if elapsed is None:
                continue
            rec.op.append(elapsed)
            if not degenerate:
                rec.build.append(elapsed)


def _verdict(model, system, kind, c):
    try:
        return gs.make_procedure(model, system=system, left_inverse=kind, c=c)
    except FrameConditionError as exc:
        return exc


def _verdict_ok(out, degenerate: bool, values: np.ndarray, shape) -> bool:
    if degenerate:
        return isinstance(out, FrameConditionError)
    if isinstance(out, FrameConditionError):
        return False
    return oracle.left_inverse_residual(values, out.dual.transfer.matrices,
                                        shape) <= RESIDUAL_TOL


class SemidirectC4:
    """Quarter-turn orbit on Z_n x Z_n sampled on a stride-3 lattice: one build, then signals.

    As on translation_roundtrip, every round builds from the same model.  The
    signals are synthesized by :mod:`oracle` in ``prepare``, from coefficients
    drawn in ``setup``, so that ``setup_s`` does not time the benchmark's own
    reference code.
    """

    name = "semidirect_c4"
    STRIDE, PROBES = 3, 5

    def __init__(self, n: int = 24, signals: int = 2) -> None:
        self.side, self.strides = n, (self.STRIDE, self.STRIDE)
        self.n_signal = signals

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        torus = gs.GroupSpec((self.side, self.side))
        lattice = gs.ProductSubgroup(torus, self.strides)
        phi = gs.GroupSequence(torus, _complex_normal(rng, torus.order))
        varphi = gs.GroupSequence(torus, _complex_normal(rng, torus.order))
        model = gs.SemidirectModel(torus, "C4", lattice, phi, varphi)
        reduction = gs.semidirect_reduce(model)
        probes = [gs.GroupSequence(torus, _complex_normal(rng, torus.order))
                  for _ in range(self.PROBES)]
        k = lattice.abstract_group.order
        coefficients = [_complex_normal(rng, (len(oracle.QUARTER_TURNS), k))
                        for _ in range(self.n_signal)]
        return {"model": model, "reduction": reduction, "probes": probes,
                "coefficients": coefficients}

    def prepare(self, inputs: dict) -> dict:
        model = inputs["model"]
        shape = (self.side, self.side)
        rotated = [oracle.rotate(model.varphi.values, r, self.side)
                   for r in oracle.QUARTER_TURNS]
        windows = [oracle.rotate(model.phi.values, r, self.side) for r in oracle.QUARTER_TURNS]
        system = oracle.sample_matrix(rotated, [p.values for p in inputs["probes"]],
                                      shape, self.strides)
        signals = [gs.GroupSequence(model.torus,
                                   oracle.synthesize(rotated, x, shape, self.strides))
                   for x in inputs["coefficients"]]
        tables = [np.stack([oracle.correlate(f.values, w, shape) for w in windows])
                  for f in signals]
        return {"system": system, "signals": signals, "tables": tables}

    def run_round(self, inputs: dict, expected: dict, rec: Recorder) -> None:
        proc, elapsed = rec.time(
            lambda: _build(gs.make_procedure, inputs["reduction"].model,
                           probes=inputs["probes"]),
            lambda p: oracle.relative_residual(p.system.values,
                                               expected["system"]) <= RESIDUAL_TOL)
        if proc is None:
            return
        rec.build.append(elapsed)
        for f, table in zip(expected["signals"], expected["tables"]):
            _, elapsed = rec.time(
                lambda: gs.semidirect_sample_and_reconstruct(inputs["model"], proc, f),
                lambda out: oracle.relative_residual(out.values, table) <= SEMIDIRECT_TOL)
            if elapsed is not None:
                rec.op.append(elapsed)


class CliVerify:
    """In-process CLI commands on the bundled scenarios and one generated finite-index one.

    A round builds the generated scenario's procedure through the library (the
    procedure its ``roundtrip`` command builds), then runs ``verify --all``
    twice, ``verify`` and ``analyze`` on the generated file and ``roundtrip`` on
    every scenario.
    """

    name = "cli_verify"
    FAILING = "nonframe_counterexample"  # the one scenario whose roundtrip must exit 1
    STRIDE, INNER, GENERATORS, PROBES = 2, 2, 2, 5

    def __init__(self, n: int = 48) -> None:
        self.shape = (n,)

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        g = gs.GroupSpec(self.shape)
        gens = tuple(gs.GroupSequence(g, _complex_normal(rng, g.order))
                     for _ in range(self.GENERATORS))
        probes = [gs.GroupSequence(g, _complex_normal(rng, g.order))
                  for _ in range(self.PROBES)]
        model = gs.TranslationModel(g, gs.GroupSequence.delta(g),
                                    gs.ProductSubgroup(g, (self.STRIDE,)), gens)
        cli_seed = int(rng.integers(2 ** 31))
        scenario = {
            "name": "generated_finite_index",
            "model": model.to_json_dict(),
            "probes": [p.to_json_dict() for p in probes],
            "finite_index": {"strides": [self.INNER]},
            "left_inverse": {"kind": "moore_penrose"},
            "seed": cli_seed,
        }
        path = workdir / "generated_finite_index.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        seed_arg = ["--seed", str(cli_seed)]
        commands = [(["verify", "--all", *seed_arg], 0),
                    (["verify", str(path), *seed_arg], 0),
                    (["verify", "--all", *seed_arg], 0),
                    (["analyze", str(path)], 0)]
        for scenario_path in [*cli.bundled_scenario_paths(), str(path)]:
            code = 1 if Path(scenario_path).stem == self.FAILING else 0
            commands.append((["roundtrip", scenario_path, *seed_arg], code))
        return {"model": model, "probes": probes, "commands": commands}

    def prepare(self, inputs: dict) -> dict:
        model = inputs["model"]
        n = self.shape[0]
        # generator-major, coset-minor copies shifted by the embedded coset representatives
        regrouped = [oracle.shift(gen.values, (self.STRIDE * rep,), self.shape)
                     for gen in model.generators for rep in range(self.INNER)]
        system = oracle.sample_matrix(regrouped, [p.values for p in inputs["probes"]],
                                      (n,), (self.STRIDE * self.INNER,))
        return {"system": system}

    def run_round(self, inputs: dict, expected: dict, rec: Recorder) -> None:
        _, elapsed = rec.time(
            lambda: _build(gs.finite_index_procedure, inputs["model"], (self.INNER,),
                           probes=inputs["probes"]),
            lambda p: oracle.relative_residual(p.system.values,
                                               expected["system"]) <= RESIDUAL_TOL)
        if elapsed is not None:
            rec.build.append(elapsed)
        for argv, code in inputs["commands"]:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                _, elapsed = rec.time(lambda: cli.main(argv), lambda got: got == code)
            if elapsed is not None:
                rec.op.append(elapsed)


WORKLOADS = {w.name: w for w in (TranslationRoundtrip, StabilityScan, SemidirectC4,
                                 CliVerify)}
