"""Per-stage timings of the exactly rounded kernels, for the performance record.

    python bench/stages.py --out BENCH.json --label change
    python bench/stages.py --out BENCH.json --label parent --src /path/to/other/checkout/src

Times ``convolve`` and ``apply`` (a 3x2 system) on square tori of order 64,
256, 1024 and 2304; on the same tori the build stages ``sample_matrix`` (2
generators, 3 probes), ``synthesize`` and ``analysis_transform`` of a
translation model with a delta window and strides (2, 2); the stability
verdicts ``diagnostics`` and ``moore_penrose`` and ``left_inverse_family``
(6x4 systems) and ``square_inverse`` (4x4) on the same tori and on order
4096, the size of the benchmark's ``stability_scan``; and ``verify --all``
end to end.  Each is
repeated ``REPEATS`` times after one untimed call; reports the minimum and the
median.  A verdict is timed on a new system object each call, so that its
transfer is computed, not read from the cache.
The package is imported from ``--src`` (default: this checkout's ``src/``),
so two trees are compared by running the script once for each.  Each run
replaces its label's entry in the ``--out`` file, keeps the other labels and
records the machine facts (cores, Python, numpy).  BLAS is pinned to one
thread.  Timings are wall-clock and reported, not gated.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

REPEATS = 5
SIDES = (8, 16, 32, 48)  # square tori: |G| = 64, 256, 1024, 2304
VERDICT_SIDES = SIDES + (64,)  # and |G| = 4096
ROOT = Path(__file__).resolve().parent.parent


def _timed(call) -> dict:
    call()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return {"min_s": min(times), "median_s": statistics.median(times), "repeats": REPEATS}


def stages() -> dict:
    import numpy as np
    import groupsampling as gs
    from groupsampling import cli

    rng = np.random.default_rng(0)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    out = {}
    for side in SIDES:
        g = gs.GroupSpec((side, side))
        a, x = gs.GroupSequence(g, draw(g.order)), gs.GroupSequence(g, draw(g.order))
        system = gs.SequenceMatrix(g, draw((3, 2, g.order)))
        coeffs = gs.VectorSequence(g, draw((2, g.order)))
        out[f"convolve/{g.order}"] = _timed(lambda: gs.convolve(a, x))
        out[f"apply_3x2/{g.order}"] = _timed(lambda: gs.apply(system, coeffs))
        sub = gs.ProductSubgroup(g, (2, 2))
        habs = sub.abstract_group
        gens = tuple(gs.GroupSequence(g, draw(g.order)) for _ in range(2))
        probes = [gs.GroupSequence(g, draw(g.order)) for _ in range(3)]
        model = gs.TranslationModel(g, gs.GroupSequence.delta(g), sub, gens)
        lattice_coeffs = gs.VectorSequence(habs, draw((2, habs.order)))
        out[f"sample_matrix/{g.order}"] = _timed(lambda: gs.sample_matrix(model, probes))
        out[f"synthesize/{g.order}"] = _timed(lambda: gs.synthesize(model, lattice_coeffs))
        out[f"analysis_transform/{g.order}"] = _timed(lambda: gs.analysis_transform(model, a))

    for side in VERDICT_SIDES:
        g = gs.GroupSpec((side, side))
        tall, square = draw((6, 4, g.order)), draw((4, 4, g.order))
        c = gs.TransferMatrix(g, draw((g.order, 4, 6)))
        verdicts = {
            "diagnostics_6x4": lambda: gs.diagnostics(gs.SequenceMatrix(g, tall)),
            "moore_penrose_6x4": lambda: gs.moore_penrose(gs.SequenceMatrix(g, tall)),
            "left_inverse_family_6x4": lambda: gs.left_inverse_family(
                gs.SequenceMatrix(g, tall), c),
            "square_inverse_4x4": lambda: gs.square_inverse(gs.SequenceMatrix(g, square)),
        }
        for name, call in verdicts.items():
            out[f"{name}/{g.order}"] = _timed(call)

    def verify_all():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["verify", "--all", "--seed", "0"]) != 0:
                raise RuntimeError("verify --all failed")

    out["verify_all"] = _timed(verify_all)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    timings = stages()
    import numpy as np

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "machine": platform.machine()}
    record.setdefault("timings", {})[args.label] = timings
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, t in timings.items():
        print(f"{args.label:>8} {name:<29} min {t['min_s']:.4f} s  median {t['median_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
