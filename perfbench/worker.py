"""One pass of one workload in a fresh interpreter; prints its measurements as one JSON line.

run.py starts a new process for every pass, so package caches
(`pipelines.GLOBAL_CACHE`, the `lru_cache` on subsystem indices) never let a
pass skip work that a user pays for on every run.

Modes:
  setup   import and build the inputs, then stop before the first call
  plain   time the operations with nothing wrapped
  spans   time them with every layer wrapped in a span
  memory  wrap them with per-layer tracemalloc peaks and eigensolver checks

Usage: python3 perfbench/worker.py <workload> <seed> <mode>
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(workload: str, seed: int, mode: str) -> dict:
    if not (SRC / "qensembles" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'qensembles'}")
    sys.path.insert(0, str(SRC))
    import qensembles

    if Path(qensembles.__file__).resolve().parent != (SRC / "qensembles").resolve():
        raise SystemExit(f"imported qensembles from {qensembles.__file__}, not from {SRC}")

    import workloads  # imports numpy, scipy, mpmath and every package layer

    recorder = None
    if mode in ("spans", "memory"):
        import spans

        recorder = spans.Recorder(memory=mode == "memory")
        spans.install(recorder)
    ops = workloads.WORKLOADS[workload](seed)
    first_call_at = time.monotonic()
    if mode == "setup":
        return {"first_call_at": first_call_at}

    outputs = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if recorder:
        recorder.active = True
    for op in ops:
        try:
            outputs.append((op.run(), None))
        except Exception:
            outputs.append((None, traceback.format_exc()))
    if recorder:
        recorder.active = False
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    # peak before the checks, whose oracles allocate more than some workloads do
    peak_rss_mb = cpu1.ru_maxrss / 1024.0

    failures = {}
    for op, (out, raised) in zip(ops, outputs):
        try:
            errors = [raised] if raised else op.check(out)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            failures[op.label] = errors
    result = {
        "first_call_at": first_call_at,
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "env": _environment(),
    }
    if recorder:
        result["layers"] = recorder.metrics()
    return result


if __name__ == "__main__":
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(main(name, seed, mode)))
