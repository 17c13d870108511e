"""One benchmark round in a fresh process: set up, time, check, report.

run.py starts this script once per round, so every round pays the import
and starts with cold caches (hodge_constants is cached per process), as a
user's `swflow` process does. It prints one JSON line:

  setup_s      process start (the parent's clock reading just before it
               started this process) to inputs ready
  wall_s       the workload's timed section
  peak_rss_mb  this process's peak resident memory at the end of the timed
               section
  failed       1 when the timed section raised, else 0
  failures     messages of the reference checks that did not hold
  layers       per-layer metrics, with --trace 1

Exit status 3 means swflow could not be imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() read by the parent just before starting this process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_swflow():
    sys.path.insert(0, SRC)
    try:
        import swflow
    except ImportError as exc:
        print(f"bench worker: cannot import swflow from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(swflow.__file__).startswith(SRC + os.sep):
        print(f"bench worker: swflow came from {swflow.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(3)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_swflow()
    import numpy as np

    import tracing
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = setup(np.random.default_rng([args.seed, args.round]), workdir)
        result = {"setup_s": time.monotonic() - args.started}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        outputs, error = None, None
        t0 = time.perf_counter()
        try:
            outputs = run(inputs)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        if error is None:
            try:
                failures = check(inputs, outputs)
            except Exception:  # a check that cannot run has not passed
                failures = ["check raised: " + traceback.format_exc()]
        else:
            print(error, file=sys.stderr)
        result.update(wall_s=wall, peak_rss_mb=peak, failed=int(error is not None),
                      failures=failures, error=error)
        if tracer:
            result["layers"], result["layer_share"] = tracing.summarize(tracer.spans, wall)
            os.makedirs(TRACE_DIR, exist_ok=True)
            tracer.write(os.path.join(TRACE_DIR, f"spans-{args.workload}.jsonl"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
