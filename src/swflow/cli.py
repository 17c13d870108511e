"""Command-line front end: run experiments, check invariants, fix gauges.

Subcommands:
  swflow run <config.json>        minimize from a random seed configuration
  swflow check [--level fast|full] [--json]  run the invariant suite
  swflow gaugefix <in> <out>       normalize a saved configuration

The run config is a JSON object: dims (four ints) and spacing, both required;
flux (4x4 antisymmetric integer matrix), scalar_curvature (a number or
"bump:<v>,<radius>"), seed, amplitudes ({"a": .., "phi": ..}, both required),
minimize (MinimizeParams fields, all optional), output_dir. _require_keys
refuses each section by key. Outputs: history.csv, final.json, summary.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from .checks import run_checks
from .fields import (
    json_text, load_configuration, random_configuration, read_json, save_configuration,
)
from .functional import energy_weitzenbock
from .gaugefix import full_gauge_fix
from .lattice import Lattice, require_real
from .optimize import MinimizeParams, Trajectory, minimize

RUN_KEYS = ("dims", "spacing", "flux", "scalar_curvature", "seed", "amplitudes", "minimize", "output_dir")
MINIMIZE_KEYS = tuple(f.name for f in dataclasses.fields(MinimizeParams))

HISTORY_COLUMNS = (
    "iter",
    "energy",
    "grad_norm",
    "phi_linf",
    "excess_measure",
    "radial_excess",
    "gauge_step_distance",
)


def parse_scalar_curvature(value, lat: Lattice) -> np.ndarray:
    """Expand a curvature spec into a site field.

    Accepts a bare number (constant field) or "bump:<v>,<radius>": a
    Gaussian bump of height v and width radius
    (physical units) centered in the box, s(x) = v exp(-d(x, center)^2 / radius^2)
    with periodic distance, which from the centre never wraps: no site is farther than L/2.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return require_real(value, "scalar_curvature") * np.ones(lat.dims)
    if not isinstance(value, str):
        raise ValueError(f"scalar_curvature must be a number or profile string, got {value!r}")
    if value.startswith("bump:"):
        try:
            height_s, radius_s = value[len("bump:"):].split(",")
            height, radius = float(height_s), float(radius_s)
        except ValueError:
            raise ValueError(f"bump profile needs 'bump:<v>,<radius>', got {value!r}")
        if not (radius > 0 and 0 < radius * radius < np.inf):  # 0 would divide by 0, inf gives s = v
            raise ValueError(f"bump radius must be positive with a nonzero finite square, got {radius_s!r}")
        dist2 = sum((x * lat.spacing - length / 2.0) ** 2
                    for x, length in zip(np.indices(lat.dims, sparse=True), lat.lengths))
        return height * np.exp(-dist2 / radius**2)
    raise ValueError(f"unknown scalar_curvature profile {value!r}; expected a number or 'bump:<v>,<radius>'")


def _require_keys(obj, known: tuple, where: str, required: tuple = ()):
    """obj if an object with no key outside known and every key of required; each refusal names its key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; expected some of {', '.join(known)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{where} key {missing[0]!r} is required")
    return obj


def _build_run(config: dict):
    _require_keys(config, RUN_KEYS, "config", ("dims", "spacing"))
    lat = Lattice(config["dims"], config["spacing"])
    amplitudes = config.get("amplitudes", {"a": 0.0, "phi": 0.0})
    _require_keys(amplitudes, ("a", "phi"), "amplitudes", ("a", "phi"))
    s = parse_scalar_curvature(config.get("scalar_curvature", 0.0), lat)
    cfg = random_configuration(lat, config.get("seed", 0), (amplitudes["a"], amplitudes["phi"]),
                               flux=config.get("flux"), scalar_curvature=s)
    params = MinimizeParams(**_require_keys(config.get("minimize", {}), MINIMIZE_KEYS, "minimize"))
    out_dir = config.get("output_dir", ".")
    if not isinstance(out_dir, str) or not out_dir:  # "" would fail only after the solve
        raise ValueError(f"output_dir must be a nonempty string, got {out_dir!r}")
    nearest = out_dir  # and so would a file at or above it: makedirs runs only after the solve
    while not os.path.lexists(nearest):
        nearest = os.path.dirname(nearest) or "."
    if not os.path.isdir(nearest):
        raise ValueError(f"output_dir {out_dir!r}: {nearest!r} exists and is not a directory")
    return cfg, params, out_dir


def _write_outputs(out_dir: str, config: dict, traj: Trajectory, wall_time: float):
    os.makedirs(out_dir, exist_ok=True)
    history = io.StringIO()
    writer = csv.writer(history)
    writer.writerow(HISTORY_COLUMNS)
    writer.writerows([getattr(rec, col) for col in HISTORY_COLUMNS] for rec in traj.records)
    last = traj.records[-1]
    summary = {
        "reason": traj.reason,
        "iterations": last.iter,
        "wall_time_seconds": wall_time,
        "final": {k: v for k, v in vars(last).items() if k not in ("iter", "gauge_step_distance")},
        "config": config,
    }
    # all three texts exist before any file is touched; final.json is renamed last
    save_configuration(traj.final, os.path.join(out_dir, "final.json"), {
        os.path.join(out_dir, "history.csv"): history.getvalue(),
        os.path.join(out_dir, "summary.json"): json_text(summary),
    })


def cmd_run(args) -> int:
    try:
        config = read_json(args.config)
        cfg, params, out_dir = _build_run(config)
    except (ValueError, KeyError, TypeError, OverflowError, MemoryError) as exc:
        print(f"swflow run: bad config: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        traj = minimize(cfg, params)
    except Exception as exc:
        print(f"swflow run: solver failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    try:
        _write_outputs(out_dir, config, traj, wall)
    except (OSError, ValueError) as exc:
        print(f"swflow run: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    last = traj.records[-1]
    print(
        f"{traj.reason} after {last.iter} iterations: "
        f"energy {last.energy:.6e}, grad norm {last.grad_norm:.3e}; outputs in {out_dir}"
    )
    return 0


def cmd_check(args) -> int:
    results = run_checks(args.level)
    failed = sum(not r.passed for r in results)
    if args.json:
        # a non-finite measurement (always a failure) prints as null
        print(json.dumps([dict(name=r.name, measured=float(r.measured) if np.isfinite(r.measured) else None,
                               tolerance=float(r.tolerance), passed=bool(r.passed)) for r in results],
                         allow_nan=False))
    else:
        for result in results:
            print(result.line())
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# the finiteness gates and json_text turn NaN and inf into the command's own error
@np.errstate(all="ignore")
def cmd_gaugefix(args) -> int:
    try:
        cfg = load_configuration(args.input)
    except ValueError as exc:
        print(f"swflow gaugefix: cannot read configuration: {exc}", file=sys.stderr)
        return 2
    try:
        before = energy_weitzenbock(cfg)
        fixed, report = full_gauge_fix(cfg)
        after = energy_weitzenbock(fixed)
        if not (np.isfinite(before) and np.isfinite(after)):
            raise ValueError(f"energy is not finite: {before} before, {after} after the fix")
        # the report is renamed first: if that fails, neither target changes
        save_configuration(fixed, args.output, {args.output + ".report.json": json_text({
            "residual": report.residual,
            "winding": list(report.winding),
            "harmonic": list(report.harmonic),
        })})
    except (OSError, ValueError, RuntimeError, OverflowError) as exc:
        print(f"swflow gaugefix: cannot fix or write: {exc}", file=sys.stderr)
        return 1
    drift = abs(after - before)
    rel = drift / abs(before) if before != 0.0 else drift
    print(f"energy drift {drift:.3e} ({rel:.3e} relative)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swflow",
        description="Discretized Seiberg-Witten energy: minimize, check, gauge-fix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="minimize the energy per an experiment config")
    p_run.add_argument("config", help="path to the experiment JSON")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--level", choices=("fast", "full"), default="fast")
    p_check.add_argument("--json", action="store_true",
                         help="print one JSON array of the checks instead of text lines")
    p_check.set_defaults(func=cmd_check)

    p_fix = sub.add_parser("gaugefix", help="bring a saved configuration to normal form")
    p_fix.add_argument("input", help="configuration JSON to read")
    p_fix.add_argument("output", help="where to write the fixed configuration")
    p_fix.set_defaults(func=cmd_gaugefix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
