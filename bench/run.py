"""Run one stormkan benchmark workload and print its metrics.

    python3 bench/run.py --workload serve_b1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  With ``--trace 0`` the result line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics and the
run's spans are written to ``bench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

from layers import PER_LAYER, write_spans
from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_stormkan():
    """The package from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "stormkan" / "__init__.py").is_file():
        sys.exit(f"bench: no stormkan package under {src}; run from a "
                 f"source checkout")
    sys.path.insert(0, str(src))
    import stormkan
    if Path(stormkan.__file__).resolve().parent != src / "stormkan":
        sys.exit(f"bench: imported stormkan from {stormkan.__file__}, "
                 f"not from {src}")
    return stormkan


def blas_threads() -> str:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sk = import_stormkan()
    env = environment()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](sk, args.seed, OUT)
    outcome = workload.run(args.seconds, bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    units = {n: u for n, u, _ in (PER_LAYER if args.trace else END_TO_END)}
    for name, value, unit, note in outcome.rows:
        unit = unit or units.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"  attempted {outcome.attempted}  succeeded "
          f"{outcome.attempted - outcome.failed}  failed {outcome.failed}")
    for err in outcome.errors[:10]:
        print(f"  error: {err}")

    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "rows": outcome.rows, "errors": outcome.errors, **result}
    with open(OUT / f"{stem}.json", "w") as fp:
        json.dump(record, fp, indent=1)
    if outcome.tracer is not None:
        write_spans(OUT / f"{stem}-spans.json", outcome.tracer,
                    {"workload": args.workload, "seed": args.seed, "env": env})
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
