"""Benchmark of the qensembles paper workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record FILE]

The workloads and their metrics are defined in BENCHMARK.json and
perfbench/workloads.py. Every pass runs in a fresh interpreter
(perfbench/worker.py) with BLAS threads set to the number of usable cores and
the package's own task threads set to one.

--trace 0 starts passes until --seconds have elapsed and MIN_PASSES are done
(at least one), and reports the medians of the end-to-end metrics:
  wall_s       time from the first call to the last result
  cpu_s        user+sys CPU of the process over the same interval, BLAS threads included
  peak_rss_mb  peak resident memory of the pass's own process (getrusage RUSAGE_SELF)
  setup_s      interpreter start, imports and input generation, up to the first call;
               SETUP_SAMPLES samples per run, extra ones from set-up-only processes
  pass_frac    1 - failed/attempted operations, over all passes of the run

--trace 1 runs three passes: an untraced one, one with per-layer spans and
one with per-layer memory peaks, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it start with '#' and carry the
environment and a readable breakdown. --record appends the full result to a
JSON file that holds one list of runs per workload and trace setting.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 3
# Passes per timed run, when more than one. The mpmath-bound projected-gen is the
# workload most sensitive to CPU-speed noise on a shared 2-core host (run-to-run
# spread of a single pass: 15-23 %), so its runs report the median of two.
MIN_PASSES = {"projected-gen": 2}


def _child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        QENSEMBLES_THREADS="1",
    )


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker pass and return its measurements, with setup_s added."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), mode],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=max(deadline - started, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} pass of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("first_call_at") - started
    return result


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    passes = [spawn(workload, seed, "plain", deadline)]
    while time.monotonic() - start < seconds or len(passes) < MIN_PASSES.get(workload, 1):
        passes.append(spawn(workload, seed, "plain", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
    metrics = {
        key: statistics.median(p[key] for p in passes) for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    for p in passes:
        print(f"# pass wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} setup_s={p['setup_s']:.4f}")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    return passes, metrics


def traced_run(workload: str, seed: int, deadline: float):
    plain = spawn(workload, seed, "plain", deadline)
    traced = spawn(workload, seed, "spans", deadline)
    memory = spawn(workload, seed, "memory", deadline)
    metrics = dict(traced["layers"])
    for key, value in memory["layers"].items():
        if key.endswith((".peak_mb", ".residual_max", ".orth_defect")):
            metrics[key] = value
    wrapped = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
    metrics["unwrapped.self_s"] = traced["wall_s"] - wrapped
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"# wall_s untraced={plain['wall_s']:.4f} traced={traced['wall_s']:.4f}")
    for key, value in sorted(traced["layers"].items(), key=lambda kv: -kv[1]):
        if key.endswith(".self_s") and value >= 0.01 * traced["wall_s"]:
            print(f"# {key:<55} {value:9.4f}  {value / traced['wall_s']:6.1%}")
    return [plain, traced, memory], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", type=Path, help="append the full result to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "qensembles" / "__init__.py").is_file():
        print("perfbench: no package source under src/qensembles", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        passes, measured = traced_run(args.workload, args.seed, deadline)
        wanted = spec["per_layer"]
    else:
        passes, measured = timed_run(args.workload, args.seed, args.seconds, deadline)
        wanted = spec["end_to_end"]
    for p in passes:
        for label, errors in p["failures"].items():
            print(f"# FAILED {label}: {' | '.join(e.strip() for e in errors)}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    measured["pass_frac"] = 1.0 - failed / attempted
    env = dict(passes[0]["env"], git_sha=_git_sha(), nproc=len(os.sched_getaffinity(0)),
               **{k: v for k, v in _child_env().items() if k.endswith("_THREADS")})
    print(f"# env {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    if args.record:
        book = json.loads(args.record.read_text()) if args.record.exists() else {}
        runs = book.setdefault(f"{args.workload}/trace={args.trace}", [])
        runs.append({"seed": args.seed, "env": env, "result": result})
        args.record.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
