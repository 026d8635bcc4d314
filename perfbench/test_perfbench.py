"""Checks of the benchmark itself, on tiny instances of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupsampling as gs
from groupsampling import cli

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "translation_roundtrip": lambda: workloads.TranslationRoundtrip(n=8, draws=2),
    "stability_scan": lambda: workloads.StabilityScan(n=4),
    "semidirect_c4": lambda: workloads.SemidirectC4(n=6, signals=2),
    "cli_verify": lambda: workloads.CliVerify(n=16),
}


def _one_round(name, tmp_path, tracer=None):
    workload = TINY[name]()
    inputs = workload.setup(7, tmp_path)
    rec = workloads.Recorder(tracer=tracer)
    workload.run_round(inputs, workload.prepare(inputs), rec)
    return rec


@pytest.mark.parametrize("name", sorted(TINY))
def test_outputs_pass_the_oracle(name, tmp_path):
    rec = _one_round(name, tmp_path)
    assert rec.failed == 0
    assert rec.build and rec.op and rec.attempted >= len(rec.op)


def _perturbed_table(original):
    def corrupted(*args):
        out = original(*args)
        return gs.FunctionOnG(out.group, out.values * (1 + 1e-6))
    return corrupted


def _accept_degenerate(original):
    def corrupted(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except gs.FrameConditionError:
            return object()
    return corrupted


CORRUPTIONS = {
    # workload: (object, attribute, corruption, failures expected in one round)
    "translation_roundtrip": (gs, "reconstruct_function", _perturbed_table, 2),
    "semidirect_c4": (gs, "semidirect_sample_and_reconstruct", _perturbed_table, 2),
    "stability_scan": (gs, "make_procedure", _accept_degenerate, 2),
    "cli_verify": (cli, "main", lambda original: lambda argv: 0, 1),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    owner, attr, corrupt, expected = CORRUPTIONS[name]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    assert _one_round(name, tmp_path).failed == expected


def test_raising_operation_counts_as_failure(tmp_path, monkeypatch):
    def broken(proc, samples):
        raise RuntimeError("broken")
    monkeypatch.setattr(gs, "take_samples", broken)
    rec = _one_round("translation_roundtrip", tmp_path)
    assert rec.failed == 2 and not rec.op


def test_trace_counts_and_coverage(tmp_path):
    tracer = Tracer()
    with tracer:
        rec = _one_round("translation_roundtrip", tmp_path, tracer)
    metrics = tracer.metrics(rounds=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_run = {"error_rate", "trace.coverage", "trace.spans"}
    declared = {m["name"] for m in spec["per_layer"]
                if m["name"] not in added_by_run and not m["name"].startswith("trace.overhead")}
    assert set(metrics) == declared
    # 2 generators x 3 probes in sample_matrix, then 3 channels x (2 synthesize + 1 analysis)
    assert metrics["groups.convolve.calls"] == 15
    assert metrics["groups.convolve.mults"] == 15 * 64 ** 2
    assert metrics["systems.apply.calls"] == 2 * len(rec.op)
    assert metrics["frames.diagnostics.calls_per_build"] == 2
    assert metrics["sampling.make_procedure.rejected"] == 0
    assert tracer.root_seconds() / rec.busy > 0.9
    # uninstalling restores the original functions everywhere
    assert not hasattr(gs.make_procedure, "__wrapped__")


def test_trace_separates_rejections_from_failures(tmp_path):
    tracer = Tracer()
    with tracer:
        _one_round("stability_scan", tmp_path, tracer)
    metrics = tracer.metrics(rounds=1)
    assert metrics["sampling.make_procedure.rejected"] == 2
    assert all(metrics[f"{mod}.failures"] == 0 for mod in ("sampling", "frames", "duals"))
    # one fresh system per verdict: only the first transfer of each system misses
    assert metrics["systems.transfer.hit_ratio"] == pytest.approx(
        1 - len(workloads.StabilityScan.MIX) / metrics["systems.transfer.calls"])


def test_exits_without_result_when_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_matches_library_convolution():
    rng = np.random.default_rng(3)
    g = gs.GroupSpec((4, 6))
    a, b = (rng.standard_normal(24) + 1j * rng.standard_normal(24) for _ in range(2))
    want = gs.convolve(gs.GroupSequence(g, a), gs.GroupSequence(g, b)).values
    assert np.abs(workloads.oracle.convolve(a, b, (4, 6)) - want).max() < 1e-12
