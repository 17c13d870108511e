"""Command-line front end: run experiments, check invariants, fix gauges.

Subcommands:
  swflow run <config.json>        minimize from a random seed configuration
  swflow check [--level fast|full] [--json]  run the invariant suite
  swflow gaugefix <in> <out>       normalize a saved configuration

The run config is a JSON object with keys: dims (four ints), spacing,
flux (4x4 antisymmetric integer matrix, optional), scalar_curvature
(number, "constant:<v>", or "bump:<v>,<radius>"), seed, amplitudes
({"a": .., "phi": ..}), minimize (MinimizeParams fields, all optional),
output_dir. Outputs: history.csv, final.json, summary.json.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from .checks import run_checks
from .fields import (
    json_text, load_configuration, random_configuration, save_configuration,
)
from .functional import energy_weitzenbock
from .gaugefix import full_gauge_fix
from .lattice import Lattice
from .optimize import MinimizeParams, Trajectory, minimize

RUN_KEYS = ("dims", "spacing", "flux", "scalar_curvature", "seed", "amplitudes", "minimize", "output_dir")

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

    Accepts a bare number (constant field), "constant:<v>", or
    "bump:<v>,<radius>": a Gaussian bump of height v and width radius
    (physical units) centered in the box, s(x) = v exp(-d(x, center)^2 / radius^2)
    with periodic distance.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) * np.ones(lat.dims)
    if not isinstance(value, str):
        raise ValueError(f"scalar_curvature must be a number or profile string, got {value!r}")
    if value.startswith("constant:"):
        return float(value[len("constant:"):]) * np.ones(lat.dims)
    if value.startswith("bump:"):
        try:
            height_s, radius_s = value[len("bump:"):].split(",")
            height, radius = float(height_s), float(radius_s)
        except ValueError:
            raise ValueError(f"bump profile needs 'bump:<v>,<radius>', got {value!r}")
        if not (radius > 0 and radius**2 > 0):  # a square that underflows would divide by 0
            raise ValueError(f"bump radius must be positive with a nonzero square, got {radius_s!r}")
        dist2 = np.zeros(lat.dims)
        for mu, (n, length) in enumerate(zip(lat.dims, lat.lengths)):
            x = np.arange(n) * lat.spacing
            delta = np.abs(x - length / 2.0)
            delta = np.minimum(delta, length - delta)
            shape = [1, 1, 1, 1]
            shape[mu] = n
            dist2 = dist2 + (delta**2).reshape(shape)
        return height * np.exp(-dist2 / radius**2)
    raise ValueError(f"unknown scalar_curvature profile {value!r}")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _require_keys(obj, known: tuple, where: str):
    """Refuse a non-object or a key outside known, so a misspelt key is not silently ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; expected some of {', '.join(known)}")


def _build_run(config: dict):
    _require_keys(config, RUN_KEYS, "config")
    lat = Lattice(tuple(config["dims"]), config["spacing"])
    amplitudes = config.get("amplitudes", {"a": 0.0, "phi": 0.0})
    _require_keys(amplitudes, ("a", "phi"), "amplitudes")
    cfg = random_configuration(
        lat,
        config.get("seed", 0),
        (amplitudes["a"], amplitudes["phi"]),
        flux=config.get("flux"),
        scalar_curvature=parse_scalar_curvature(config.get("scalar_curvature", 0.0), lat),
    )
    params = MinimizeParams(**config.get("minimize", {}))
    out_dir = config.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ValueError(f"output_dir must be a string, got {out_dir!r}")
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
        "final": {
            "energy": last.energy,
            "grad_norm": last.grad_norm,
            "phi_linf": last.phi_linf,
            "threshold": last.threshold,
            "excess_measure": last.excess_measure,
            "radial_excess": last.radial_excess,
            "eta_norm": last.eta_norm,
        },
        "config": config,
    }
    # all three texts exist before any file is touched; final.json is renamed last
    save_configuration(traj.final, os.path.join(out_dir, "final.json"), {
        os.path.join(out_dir, "history.csv"): history.getvalue(),
        os.path.join(out_dir, "summary.json"): json_text(summary),
    })


def cmd_run(args) -> int:
    path = args.config
    if not os.path.isfile(path):
        print(f"swflow run: config file not found: {path}", file=sys.stderr)
        return 2
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
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
        print(json.dumps([dict(
            name=r.name, measured=float(r.measured) if np.isfinite(r.measured) else None,
            tolerance=float(r.tolerance), op=r.op, passed=bool(r.passed),
        ) for r in results], allow_nan=False))
    else:
        for result in results:
            print(result.line())
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# the finiteness gates and json_text turn NaN and inf into the command's own error
@np.errstate(all="ignore")
def cmd_gaugefix(args) -> int:
    if not os.path.isfile(args.input):
        print(f"swflow gaugefix: file not found: {args.input}", file=sys.stderr)
        return 2
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


if __name__ == "__main__":
    sys.exit(main())
