"""Per-stage timings of the exactly rounded kernels, for the performance record.

    python bench/stages.py --out BENCH.json --label change
    python bench/stages.py --out BENCH.json --label parent --src /path/to/other/checkout/src

Times ``convolve`` and ``apply`` (a 3x2 system) on square tori of order 64,
256, 1024 and 2304, and ``verify --all`` end to end, each repeated
``REPEATS`` times after one untimed call; reports the minimum and the median.
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
        print(f"{args.label:>8} {name:<16} min {t['min_s']:.4f} s  median {t['median_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
