"""Benchmark of the groupsampling package: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else, so a directory without it fails with
exit code 2 and prints no result.  Load comes from this one process, one
operation at a time (a closed loop with one client), with BLAS pinned to
``BLAS_THREADS`` threads.

``--trace 0`` times the workload and prints the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced rounds and
prints the per-module metrics: calls, self time and counts per round from
spans recorded around the package's public functions (see ``spans.py``), the
traced-minus-untraced difference of every end-to-end timing, and how much of
the timed operations the spans cover.  Spans are written to
``.bench_build/perfbench/`` in the checkout.

A round is a fixed piece of work (see ``workloads.py``).  One untimed round
runs first, so that caches the package keeps on a reused model, and numpy's
first calls, are warm before timing; its outputs are checked too.  Timed
rounds then repeat until the next one would end after ``--seconds``.
``build_s_mean`` and ``op_s_mean`` are the mean times of single builds and
operations.  On a shared two-vCPU x86_64 virtual machine, other tenants slow
this process down in spells of one to twenty seconds, by 1.25 to 1.6 times,
with its CPU time slowed alike.  In a one-minute probe the spells filled
about half the time; how much of a run they fill varies from run to run, up
to all of it.  The mean moves in proportion to that share, while the median
of a run, and the fastest repeat of each operation, jump between a fast and a
slow value as the share crosses a half or reaches the whole run.  The medians
of single builds and operations, the highest percentile with at least ten
samples beyond it where there is one, and the sample counts are printed on
the environment line and are not gated.  ``setup_s`` is the median of
``SETUP_SAMPLES`` samples taken between timed rounds, spread over the run
(see ``SetupClock``); ``peak_rss_mb`` is the peak resident memory at the end
of the untimed round.  Every output is checked against the numpy-FFT
references in ``oracle.py``; ``failed`` counts operations that raised, gave a
wrong verdict or exit code, or missed a residual tolerance.

Tests: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 15
SETUP_SAMPLE_S = 0.1


def _timings(rec) -> dict[str, float]:
    return {"build_s_mean": statistics.fmean(rec.build), "op_s_mean": statistics.fmean(rec.op)}


def _tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it, if any."""
    q = int(100 * (1 - 10 / len(values)))
    if q < 51:
        return None
    return {"p": q, "s": statistics.quantiles(values, n=100, method="inclusive")[q - 1]}


class SetupClock:
    """Set-up timed in samples spread over the run.

    On a shared machine the process slows down in spells of one to twenty
    seconds, so samples taken together would all fall in one spell or all
    outside it.  A sample is the mean of as many back-to-back set-ups as
    fitted in ``SETUP_SAMPLE_S`` at the start; ``inputs`` is what the first
    set-up made.
    """

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self._setup = lambda: workload.setup(seed, workdir)
        self.inputs = self._setup()
        self.repeats, begun = 1, perf_counter()
        while perf_counter() - begun < SETUP_SAMPLE_S:
            self._setup()
            self.repeats += 1
        self.samples: list[float] = []

    def catch_up(self, share: float) -> None:
        """Take samples until ``share`` of ``SETUP_SAMPLES`` are taken."""
        while len(self.samples) < min(share, 1.0) * SETUP_SAMPLES:
            begun = perf_counter()
            for _ in range(self.repeats):
                self._setup()
            self.samples.append((perf_counter() - begun) / self.repeats)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rounds(body, seconds: float, clock: SetupClock | None = None) -> int:
    """Closed loop of whole rounds; stop when the next one would end after ``seconds``.

    Between rounds, ``clock`` takes the set-up samples due by then.
    """
    start = perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        if clock is not None:
            clock.catch_up((perf_counter() - start) / seconds)
        begun = perf_counter()
        body()
        rounds += 1
        now = perf_counter()
        longest = max(longest, now - begun)
        if now - start + longest > seconds:
            if clock is not None:
                clock.catch_up(1.0)
            return rounds


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupsampling" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}\n")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy as np
    import groupsampling
    if Path(groupsampling.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"perfbench: imported {groupsampling.__file__}, not {SRC}\n")
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Recorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clock = SetupClock(workload, args.seed, workdir)
        inputs = clock.inputs
        expected = workload.prepare(inputs)
        warm = Recorder()  # the untimed round: not timed, but its outputs are checked
        workload.run_round(inputs, expected, warm)
        # later rounds repeat this work; the peak they reach drifts with allocator
        # fragmentation and with how many rounds fit
        rss = _peak_rss_mb()

        if args.trace == 0:
            rec = Recorder()
            rounds = _rounds(lambda: workload.run_round(inputs, expected, rec), args.seconds, clock)
            values = {"setup_s": statistics.median(clock.samples), **_timings(rec),
                      "peak_rss_mb": rss}
            declared = spec["end_to_end"]
            recorders = (warm, rec)
            samples = {"builds": len(rec.build), "ops": len(rec.op), "rounds": rounds,
                       "setup_samples": len(clock.samples), "setup_repeats": clock.repeats,
                       "build_s_p50": statistics.median(rec.build),
                       "op_s_p50": statistics.median(rec.op),
                       "build_tail": _tail(rec.build), "op_tail": _tail(rec.op),
                       "ops_per_s": len(rec.op) / rec.busy,
                       "peak_rss_mb_at_end": _peak_rss_mb()}
        else:
            tracer = Tracer()
            plain, traced = Recorder(), Recorder(tracer=tracer)

            def pair() -> None:
                # untraced, then traced: drift hits both sides of the overhead alike
                workload.run_round(inputs, expected, plain)
                with tracer:
                    workload.run_round(inputs, expected, traced)

            rounds = _rounds(pair, args.seconds)
            values = tracer.metrics(rounds)
            untraced, with_spans = _timings(plain), _timings(traced)
            for key in untraced:
                values[f"trace.overhead.{key}"] = with_spans[key] - untraced[key]
            values["trace.coverage"] = tracer.root_seconds() / traced.busy
            values["trace.spans"] = len(tracer.spans) / rounds
            recorders = (warm, plain, traced)
            declared = spec["per_layer"]
            samples = {"timed_rounds": 2 * rounds, "traced_rounds": rounds,
                       "computed_counts": ["groups.convolve.mults", "systems.apply.mults"]}
            spans_file = WORKDIR / f"spans-{args.workload}.jsonl"
            tracer.dump(spans_file)
            samples["spans_file"] = str(spans_file.relative_to(ROOT))
        attempted = sum(r.attempted for r in recorders)
        failed = sum(r.failed for r in recorders)
        if args.trace == 1:
            values["error_rate"] = failed / attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = {m["name"] for m in declared}
    if set(values) != names:
        sys.stderr.write(f"perfbench: metrics {sorted(set(values) ^ names)} do not match "
                         f"BENCHMARK.json\n")
        return 3
    env = {**_environment(np), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, **samples}
    print(json.dumps({"perfbench_environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
