"""One benchmark iteration in a fresh Python process.

Started by ``run.py`` with the monotonic time of its spawn, so ``setup_s``
covers interpreter start, ``import theta_fbsde``, config parsing and the
problem and grid build.  Then the workload runs once (``wall_s``) between two
timings of its reference task (``ref_s``, see ``reference.py``), the peak
resident memory is read, and the untimed checks follow.  The result is written
as JSON to ``--result``.  With ``--trace 1`` the hooks record spans over the
set-up and the timed region and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": platform.machine(),
        "threads_flag": "unset (--threads is never passed)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawned-ns", required=True, type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import theta_fbsde  # noqa: F401  (the set-up cost being measured)
    import tracer
    import workloads

    recorder = tracer.Recorder()
    if args.trace:
        recorder.install()
        recorder.enabled = True
    args.out.mkdir(parents=True, exist_ok=True)
    with recorder.span("benchmark.setup"):
        workload = workloads.WORKLOADS[args.workload](args.config, args.out)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import reference

        task = reference.FOR_WORKLOAD[args.workload]
        ref = reference.seconds(task)
        start = time.perf_counter()
        with recorder.span("benchmark.workload"):
            workload.run()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["ref_s"] = statistics.median(ref + reference.seconds(task))
        recorder.enabled = False
        recorder.uninstall()
        metrics, gates = workload.check()
        result.update(metrics=metrics, gates=gates, env=environment())
        if args.trace:
            layers = recorder.layer_metrics("benchmark.workload")
            layers["properties.checks_failed"] = (metrics.get("properties.checks_failed", 0), "count")
            result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            if args.spans is not None:
                recorder.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
