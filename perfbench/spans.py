"""Nested spans around the package's public functions, recorded from outside.

The tracer replaces each traced function by a wrapper in every module that
imports it (the package root, ``sampling``, ``models``, ``frames``, ``duals``,
``systems`` and ``cli``), so calls between modules are seen while calls inside
one module (say ``groups.convolve_fft`` calling ``dft``) stay part of the
caller's self time.  No file of the package changes.

A span is ``[function index, start, end, parent span or -1, operation id,
outcome]``.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

from groupsampling.errors import FrameConditionError, SingularCharacterError

# Stability verdicts the library raises on purpose; any other exception is a failure.
VERDICT_ERRORS = (FrameConditionError, SingularCharacterError)

TRACED = {
    "groups": ("convolve", "dft", "idft"),
    "systems": ("apply", "transfer", "from_transfer"),
    "frames": ("diagnostics", "oracle_frame_bounds", "kernel_witness"),
    "duals": ("moore_penrose", "square_inverse", "left_inverse_family",
              "verify_left_inverse"),
    "models": ("sample_matrix", "synthesize", "analysis_transform", "coefficients_of",
               "semidirect_analysis"),
    "sampling": ("make_procedure", "build_sampling_functions", "take_samples",
                 "reconstruct_coefficients", "reconstruct_function",
                 "semidirect_sample_and_reconstruct", "interpolation_check"),
    "config": ("parse_config",),
    "cli": ("main",),
    "report": ("render_report",),
}

IMPORTERS = ("groupsampling", "groupsampling.sampling", "groupsampling.models",
             "groupsampling.frames", "groupsampling.duals", "groupsampling.systems",
             "groupsampling.cli")

OK, REJECTED, FAILED = 0, 1, 2


class Tracer:
    """Records spans while installed; :meth:`metrics` turns them into per-module numbers."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for index, name in enumerate(self.names):
            mod, fn = name.split(".")
            home = importlib.import_module(f"groupsampling.{mod}")
            originals[id(getattr(home, fn))] = self._wrap(index, getattr(home, fn))
        for modname in IMPORTERS:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index: int, fn):
        name = self.names[index]
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op, OK]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = REJECTED if isinstance(exc, VERDICT_ERRORS) else FAILED
                if span[5] == FAILED and not getattr(exc, "_perfbench_counted", False):
                    # counted once, by the innermost module that let it escape
                    exc._perfbench_counted = True
                    counts[name.split(".")[0] + ".failures"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- analysis -----------------------------------------------------------

    def root_seconds(self) -> float:
        """Total duration of spans with no traced parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-module numbers, each divided by the number of workload rounds."""
        per = 1.0 / max(rounds, 1)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = Counter()
        self_s = Counter()
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += (s[2] - s[1]) - child[i]
        out = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index] * per
            out[f"{name}.self_s"] = self_s[index] * per
        for mod in TRACED:
            out[f"{mod}.failures"] = self.counts[f"{mod}.failures"] * per
        out["groups.convolve.mults"] = self.counts["groups.convolve.mults"] * per
        out["systems.apply.mults"] = self.counts["systems.apply.mults"] * per
        transfers = calls[self.names.index("systems.transfer")]
        out["systems.transfer.hit_ratio"] = (
            self.counts["systems.transfer.hits"] / transfers if transfers else 0.0)
        out["frames.diagnostics.calls_per_build"] = self._diagnostics_per_build()
        make = self.names.index("sampling.make_procedure")
        out["sampling.make_procedure.rejected"] = per * sum(
            1 for s in self.spans if s[0] == make and s[5] == REJECTED)
        return out

    def _diagnostics_per_build(self) -> float:
        """Diagnostics calls inside each accepted ``make_procedure`` call."""
        make = self.names.index("sampling.make_procedure")
        diag = self.names.index("frames.diagnostics")
        builds = {i for i, s in enumerate(self.spans) if s[0] == make and s[5] == OK}
        inside = 0
        for s in self.spans:
            if s[0] != diag:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] != make:
                parent = self.spans[parent][3]
            inside += parent in builds
        return inside / len(builds) if builds else 0.0

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, outcome."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([self.names[s[0]], s[1], s[2], s[3], s[4],
                                      ("ok", "rejected", "failed")[s[5]]]) + "\n")


def _count_convolve(counts: Counter, args) -> None:
    # computed, not measured: the brute-force kernel multiplies |G|^2 pairs
    counts["groups.convolve.mults"] += args[0].group.order ** 2


def _count_apply(counts: Counter, args) -> None:
    # computed: M*N*|H|^2 products for an M x N system over H
    a = args[0]
    counts["systems.apply.mults"] += a.rows * a.cols * a.group.order ** 2


def _count_transfer(counts: Counter, args) -> None:
    # a hit is a call on a system object that already holds its transfer
    if getattr(args[0], "_transfer", None) is not None:
        counts["systems.transfer.hits"] += 1


_COUNTERS = {
    "groups.convolve": _count_convolve,
    "systems.apply": _count_apply,
    "systems.transfer": _count_transfer,
}
