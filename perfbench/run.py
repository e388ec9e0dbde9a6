"""Pie-vs-pid benchmark of the multiprompt package, run from a source checkout.

    python3 perfbench/run.py --workload shared-input --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation in
the program; ``--trace 1`` runs a separate traced pass that reports the
per-layer metrics and the cost of tracing.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see ``BENCHMARK.json`` for why each was chosen): shared-input,
long-decode, train-step.  The package is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    # one BLAS thread: with two, op times on a 2-core host spread far
    # more run to run; must be set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "multiprompt").is_dir():
        print(f"multiprompt sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    args = parse_args(argv, harness.WORKLOADS)
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    bench, setup_s = harness.set_up(args.workload, args.seed)
    bench.build_gate()
    m = harness.measure(bench, args.seconds, trace=bool(args.trace))
    missing = [eng for eng in harness.ENGINES if not m.op_s[eng] or (args.trace and not m.layers[eng])]
    if missing:
        print(f"no op of {missing} completed; nothing to report", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {m.attempted} ops, {m.failed} failed")
    if args.trace:
        values = harness.per_layer(m)
        specs = harness.per_layer_metrics()
        counts = {eng: len(m.layers[eng]) for eng in harness.ENGINES}
        print(f"per-layer values are medians over traced ops {counts}")
        lines = [(name, unit, "") for name, unit, _ in specs]
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = harness.end_to_end(m, setup_s, peak_rss_mb)
        specs = harness.END_TO_END
        counts = {eng: len(m.op_s[eng]) for eng in harness.ENGINES}
        lines = [(name, unit, "") for name, unit, _ in specs]
        lines += [(name, unit, " [not gated]") for name, unit in harness.REPORTED]
        print(f"setup_s is the median of {harness.SETUP_REPEATS} set-ups; "
              f"pid_speedup is the median over {len(m.pair_speedups)} pairs")
    for name, unit, note in lines:
        n = f"  (n={counts[name[:3]]} ops)" if name.endswith(("_mean", "_p50", "_p90")) and name[:3] in counts else ""
        print(f"{name} = {values[name]:.6g} {unit}{n}{note}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
