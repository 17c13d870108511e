"""The four benchmark workloads: inputs from a seed, a timed section, checks.

Every workload is a triple of functions. setup(rng, workdir, size) builds
all inputs from the generator (the program only ever sees these generated
inputs) and returns them; run(inputs) is the timed section and calls swflow
only through `swflow.<name>` and `swflow.cli.main`, so the tracer sees every
call; check(inputs, outputs) returns failure messages from the closed-form
checks in refchecks. `size` is "full" for measurement and "reduced" for the
benchmark's own tests, which run the same check paths on small lattices.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import refchecks as rc
import swflow as sw
import swflow.cli  # noqa: F401  (binds sw.cli)


def _flux(entries) -> np.ndarray:
    m = np.zeros((4, 4), dtype=int)
    for (mu, nu), n in entries.items():
        m[mu, nu], m[nu, mu] = n, -n
    return m


def _spinor(rng, dims, rms: float) -> np.ndarray:
    shape = tuple(dims) + (2,)
    return (rms / math.sqrt(2.0)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _config(dims, spacing, rng, amp_a, amp_phi, s, flux=None):
    lat = sw.Lattice(tuple(dims), spacing)
    a = amp_a * rng.standard_normal(lat.dims + (4,))
    flux = np.zeros((4, 4), dtype=int) if flux is None else flux
    return sw.Configuration(lat, sw.GaugeField(a, flux), _spinor(rng, dims, amp_phi),
                            np.full(lat.dims, float(s)))


def _transformed(cfg, zeta, winding):
    """cfg moved by the benchmark's own gauge action (refchecks.gauge_transform)."""
    a, phi = rc.gauge_transform(cfg.gauge.a, cfg.phi, cfg.lattice.spacing, zeta, winding)
    return sw.Configuration(cfg.lattice, sw.GaugeField(a, cfg.gauge.flux), phi,
                            cfg.scalar_curvature, cfg.seed)


def _unit(da, dphi):
    """Scale a tangent pair (da, dphi) to unit length in the pairing's metric."""
    norm = math.sqrt(float(np.sum(da**2)) + 2.0 * float(np.sum(np.abs(dphi) ** 2)))
    return da / norm, dphi / norm


def _random_directions(rng, cfg, count):
    """Random unit tangent pairs (da, dphi), the free part of each test direction."""
    return [_unit(rng.standard_normal(cfg.gauge.a.shape), _spinor(rng, cfg.lattice.dims, 1.0))
            for _ in range(count)]


def _tilted(g, free):
    """Unit directions halfway between the gradient and each free direction.

    A random direction is nearly orthogonal to the gradient on 16^4, and its
    tiny directional derivative drowns in the energy's rounding error; the
    gradient part keeps the derivative of order |g| and the check tight.
    """
    ga, gphi = _unit(g.da, g.dphi)
    return [_unit(ga + da, gphi + dphi) for da, dphi in free]


def _energy_along(cfg):
    def energy_at(t, direction):
        da, dphi = direction
        return sw.energy_weitzenbock(cfg.replace(a=cfg.gauge.a + t * da, phi=cfg.phi + t * dphi))
    return energy_at


# --- ladder-flat: `swflow run` to a minimizer of a flux-free problem --------

LADDER = {"full": {"dims": [6, 6, 6, 6]}, "reduced": {"dims": [4, 4, 4, 4]}}
LADDER_SIDE = 6.0
LADDER_S = -1.0


def setup_ladder(rng, workdir, size="full"):
    dims = LADDER[size]["dims"]
    config = {
        "dims": dims,
        "spacing": LADDER_SIDE / dims[0],
        "scalar_curvature": LADDER_S,
        "seed": int(rng.integers(2**31)),
        "amplitudes": {"a": 0.3, "phi": 1.0},
        "minimize": {"max_iters": 4000, "grad_tol": 1e-4, "method": "conjugate",
                     "gaugefix_every": 10, "record_every": 50},
        "output_dir": os.path.join(workdir, "out"),
    }
    path = os.path.join(workdir, "run.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return {"config": config, "path": path}


def run_ladder(inp):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sw.cli.main(["run", inp["path"]])
    return {"code": code}


def check_ladder(inp, out) -> list[str]:
    if out["code"] != 0:
        return [f"ladder-flat: swflow run exited {out['code']}"]
    out_dir = inp["config"]["output_dir"]
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "final.json")) as fh:
        doc = json.load(fh)
    with open(os.path.join(out_dir, "history.csv"), newline="") as fh:
        energies = [float(row["energy"]) for row in csv.DictReader(fh)]
    # final.json stores each site's two components next to each other
    phi = (np.asarray(doc["phi_re"]) + 1j * np.asarray(doc["phi_im"])).reshape(-1, 2)
    s = np.asarray(doc["s"], dtype=float)
    h = float(doc["spacing"])
    energy = summary["final"]["energy"]
    failures = [] if summary["reason"] == "converged" else [
        f"ladder-flat: run stopped with {summary['reason']!r}"]
    failures += rc.check_at_floor("ladder-flat", energy, h, s, tol=1e-6)
    failures += rc.check_phi2_matches_s("ladder-flat", phi, s, tol=1e-4)
    failures += rc.check_nonincreasing("ladder-flat history.csv", energies)
    reloaded = sw.load_configuration(os.path.join(out_dir, "final.json"))
    failures += rc.check_close("ladder-flat final.json energy", sw.energy_weitzenbock(reloaded),
                               energy, rel_tol=1e-12)
    failures += rc.check_plane_sums("ladder-flat", sw.curvature(reloaded), reloaded.gauge.flux, h)
    return failures


# --- gauge-pair: two gauge-equivalent starts descend to one orbit -----------

PAIR = {"full": {"dims": (3, 3, 3, 3), "spacing": 1.5}, "reduced": {"dims": (2, 2, 2, 2), "spacing": 2.0}}
PAIR_WINDING = (2, -1, 0, 1)
PAIR_PARAMS = {"max_iters": 4000, "grad_tol": 1e-5, "gaugefix_every": 1, "record_every": 1}


def setup_pair(rng, workdir, size="full"):
    p = PAIR[size]
    cfg = _config(p["dims"], p["spacing"], rng, 0.4, 1.1, -1.0)
    phi_sup = float(np.max(np.sqrt(np.sum(np.abs(cfg.phi) ** 2, axis=-1))))
    cfg = cfg.replace(phi=cfg.phi * (2.0 / phi_sup))
    zeta = 0.7 * rng.standard_normal(cfg.lattice.dims)
    return {"starts": (cfg, _transformed(cfg, zeta, PAIR_WINDING)),
            "params": sw.MinimizeParams(**PAIR_PARAMS)}


def run_pair(inp):
    runs = [sw.minimize(start, inp["params"]) for start in inp["starts"]]
    return {"runs": runs, "distance": sw.gauge_distance(runs[0].final, runs[1].final)}


def check_pair(inp, out) -> list[str]:
    failures = []
    for j, traj in enumerate(out["runs"]):
        label = f"gauge-pair run {j}"
        final = traj.final
        if traj.reason != "converged":
            failures.append(f"{label}: stopped with {traj.reason!r}")
        failures += rc.check_at_floor(label, traj.records[-1].energy, final.lattice.spacing,
                                      final.scalar_curvature, tol=1e-8)
        failures += rc.check_phi2_matches_s(label, final.phi, final.scalar_curvature, tol=1e-4)
        failures += rc.check_nonincreasing(label, [r.energy for r in traj.records])
        diag = sw.ps_diagnostics(traj)
        if not (diag.summable and diag.contraction_ratio >= 10.0):
            failures.append(f"{label}: gauge steps not summable (contraction {diag.contraction_ratio:.3g})")
    if not out["distance"] <= 1e-6:
        failures.append(f"gauge-pair: finals are {out['distance']:.3e} apart (tol 1e-6)")
    return failures


# --- check-sobolev: `swflow check --level full` plus a Sobolev-bound sweep --

SOBOLEV = {
    "full": {"level": "full", "lattices": (((3, 4, 2, 5), 0.5), ((5, 5, 5, 5), 0.5)), "configs": 8},
    "reduced": {"level": "fast", "lattices": (((2, 3, 2, 2), 0.5), ((3, 3, 3, 3), 0.5)), "configs": 2},
}
# lattices whose constants `swflow check` computes on the way
CHECK_LATTICES = {"fast": (((3, 3, 3, 3), 0.5),), "full": (((3, 3, 3, 3), 0.5), ((4, 4, 4, 4), 0.5))}


def setup_sobolev(rng, workdir, size="full"):
    p = SOBOLEV[size]
    sweep = []
    for dims, spacing in p["lattices"]:
        items = []
        for _ in range(p["configs"]):
            upper = rng.integers(-2, 3, size=6)
            flux = _flux({pl: int(n) for pl, n in zip(rc.PLANES, upper)})
            cfg = _config(dims, spacing, rng, 0.8, 0.5, -1.0, flux)
            winding = tuple(int(k) for k in rng.integers(-3, 4, size=4))
            items.append((cfg, sw.GaugeTransform(0.5 * rng.standard_normal(dims), winding)))
        sweep.append((sw.Lattice(dims, spacing), items))
    return {"level": p["level"], "sweep": sweep}


def run_sobolev(inp):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sw.cli.main(["check", "--level", inp["level"]])
    bounds = []
    for lat, items in inp["sweep"]:
        consts = sw.hodge_constants(lat)
        for cfg, g in items:
            fixed, report = sw.full_gauge_fix(sw.apply_gauge(g, cfg))
            a = fixed.gauge.a
            lhs = sw.sobolev12_norm(lat, a)
            rhs = consts.curl_factor * sw.l2_norm(lat, sw.d1(lat, a)) + consts.harmonic_radius
            bounds.append((lat, lhs, rhs, report.harmonic))
    return {"code": code, "lines": out.getvalue().splitlines(), "bounds": bounds}


def check_sobolev(inp, out) -> list[str]:
    failures = []
    lines = out["lines"]
    failing = [line for line in lines[:-1] if not line.startswith("PASS ")]
    total = len(lines) - 1
    if out["code"] != 0 or failing or not lines or lines[-1] != f"{total}/{total} checks passed":
        failures.append(f"check-sobolev: swflow check exited {out['code']}, failing {failing[:3]}")
    lattices = [(lat.dims, lat.spacing) for lat, _ in inp["sweep"]] + list(CHECK_LATTICES[inp["level"]])
    for dims, spacing in lattices:
        consts = sw.hodge_constants(sw.Lattice(dims, spacing))
        failures += rc.check_hodge_constants(f"check-sobolev {dims}", consts, dims, spacing)
    violations = sum(1 for _, lhs, rhs, _ in out["bounds"] if not lhs <= rhs)
    if violations:
        failures.append(f"check-sobolev: {violations} Sobolev-bound violations")
    for lat, _, _, harmonic in out["bounds"]:
        outside = [mu for mu, hmu in enumerate(harmonic)
                   if not -math.pi / lat.lengths[mu] <= hmu < math.pi / lat.lengths[mu]]
        if outside:
            failures.append(f"check-sobolev {lat.dims}: harmonic part outside the fundamental domain in {outside}")
    return failures


# --- flux-n16: a fixed descent budget on the large mixed-flux lattice -------

FLUX = {"full": {"n": 16, "iters": 6}, "reduced": {"n": 6, "iters": 2}}
FLUX_SIDE = 6.0
FLUX_SECTOR = {(0, 1): 1, (2, 3): -1}


def setup_flux(rng, workdir, size="full"):
    p = FLUX[size]
    n = p["n"]
    cfg = _config((n,) * 4, FLUX_SIDE / n, rng, 0.3, 1.0, -1.0, _flux(FLUX_SECTOR))
    half = max(1, p["iters"] // 2)
    params = sw.MinimizeParams(max_iters=p["iters"], grad_tol=1e-12, method="conjugate",
                               gaugefix_every=half, record_every=half)
    gauge = (rng.standard_normal(cfg.lattice.dims), tuple(int(k) for k in rng.integers(-3, 4, size=4)))
    return {"cfg": cfg, "params": params, "gauge": gauge,
            "directions": _random_directions(rng, cfg, 2)}


def run_flux(inp):
    traj = sw.minimize(inp["cfg"], inp["params"])
    final = traj.final
    first_order = sw.energy_first_order(final)
    residual = sw.sw_equation_residual(final)
    fixed, _ = sw.full_gauge_fix(final)
    return {"traj": traj, "first_order": first_order, "residual": residual, "fixed": fixed}


def check_flux(inp, out) -> list[str]:
    traj, fixed = out["traj"], out["fixed"]
    final = traj.final
    lat = final.lattice
    failures = [] if traj.reason == "max_iters" and traj.records[-1].iter == inp["params"].max_iters else [
        f"flux-n16: stopped with {traj.reason!r} after {traj.records[-1].iter} iterations"]
    energies = [r.energy for r in traj.records]
    failures += rc.check_nonincreasing("flux-n16", energies)
    failures += rc.check_above_floor("flux-n16", energies[-1], lat.spacing, final.scalar_curvature)
    failures += rc.check_plane_sums("flux-n16", sw.curvature(final), _flux(FLUX_SECTOR), lat.spacing)
    failures += rc.check_residual_split("flux-n16", out["first_order"], *out["residual"])
    failures += rc.check_gauge_invariance("flux-n16 full_gauge_fix", energies[-1],
                                          sw.energy_weitzenbock(fixed))
    zeta, winding = inp["gauge"]
    failures += rc.check_gauge_invariance("flux-n16", energies[-1],
                                          sw.energy_weitzenbock(_transformed(final, zeta, winding)))
    g = sw.gradient(final)
    failures += rc.check_central_differences("flux-n16", _energy_along(final), g.da, g.dphi,
                                             lat.spacing, _tilted(g, inp["directions"]))
    return failures


WORKLOADS = {
    "ladder-flat": (setup_ladder, run_ladder, check_ladder),
    "gauge-pair": (setup_pair, run_pair, check_pair),
    "check-sobolev": (setup_sobolev, run_sobolev, check_sobolev),
    "flux-n16": (setup_flux, run_flux, check_flux),
}
