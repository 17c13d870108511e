"""swflow benchmark: run one workload for a fixed time and print its metrics.

  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each round is a fresh worker process
(bench/worker.py) with BLAS pinned to one thread: a closed loop, one caller,
one process at a time. Rounds run back to back while the next one is
expected to end within --seconds (at least one round runs). Round r draws
its inputs from (seed, r), so the median over rounds evens out both timing
noise and how hard each input happens to be. The last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (wall_s, setup_s, peak_rss_mb; medians over
rounds) when --trace is 0, and the per-layer metrics of a traced run (medians
over rounds) when --trace is 1. The line before it is a JSON document with
the environment and every round's figures, for diffing two runs. An
operation is one round; it fails when the timed section raises. The exit
status is non-zero, with no result printed, when the checkout's swflow
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# gauge-pair is left out of BENCHMARK.json (see README) but can be run by hand
WORKLOADS = ("ladder-flat", "check-sobolev", "flux-n16", "gauge-pair")
# set-up is a fraction of a second, so extra set-up-only processes make its
# median steady without costing measurement time
SETUP_SAMPLES = 5
# a run must end within 180 s; a worker still running at this point is killed
RUN_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The checkout's program could not be run; no result is printed."""


def worker(workload: str, seed: int, rnd: int, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports swflow from this checkout only
    started = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--trace", str(trace), "--started", repr(started)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker for {workload} did not end within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def median_metrics(rows: list[dict], units: dict) -> dict:
    return {name: {"value": float(statistics.median(r[name] for r in rows)), "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one swflow benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "swflow", "__init__.py")):
        print(f"bench: no swflow package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds, durations = [], []
    try:
        while True:
            t0 = time.monotonic()
            rounds.append(worker(args.workload, args.seed, len(rounds), args.trace, deadline))
            durations.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(durations) > args.seconds:
                break
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(worker(args.workload, args.seed, len(setups), 0, deadline,
                                 setup_only=True)["setup_s"])
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = median_metrics([r["layers"] for r in rounds], UNITS)
    else:
        metrics = median_metrics(rounds, {"wall_s": "s", "peak_rss_mb": "MB"})
        metrics["setup_s"] = {"value": float(statistics.median(setups)), "unit": "s"}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": environment(),
                      "rounds": rounds, "setup_samples": setups if not args.trace else None}))
    print(json.dumps({
        "correct": all(not r["failures"] for r in rounds),
        "attempted": len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
