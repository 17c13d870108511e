"""The benchmark's own tests: `python -m pytest bench` from the repository root.

A reduced-size pass runs every workload's timed section and check path on
small lattices, and each reference check is shown to reject a corrupted
result. The tracer is checked against BENCHMARK.json's layer table, and the
command is shown to fail without printing a result where swflow is absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import refchecks as rc
import run as bench_run
import tracing
import workloads
import swflow as sw

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    """Inputs and outputs of one reduced-size round of every workload."""
    results = {}
    for name, (setup, run, check) in workloads.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        inp = setup(np.random.default_rng([7, 0]), workdir, "reduced")
        results[name] = (inp, run(inp), check)
    return results


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_round_passes_every_check(reduced, name):
    inp, out, check = reduced[name]
    assert check(inp, out) == []


def test_inputs_depend_only_on_the_seed(tmp_path):
    setup = workloads.setup_flux
    one = setup(np.random.default_rng([3, 1]), str(tmp_path), "reduced")["cfg"]
    two = setup(np.random.default_rng([3, 1]), str(tmp_path), "reduced")["cfg"]
    other = setup(np.random.default_rng([4, 1]), str(tmp_path), "reduced")["cfg"]
    assert np.array_equal(one.phi, two.phi) and np.array_equal(one.gauge.a, two.gauge.a)
    assert not np.array_equal(one.phi, other.phi)


def _rewrite_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_ladder_rejects_final_energy_offset(reduced, tmp_path):
    inp, out, check = reduced["ladder-flat"]
    out_dir = tmp_path / "out"
    shutil.copytree(inp["config"]["output_dir"], out_dir)
    bad = dict(inp, config=dict(inp["config"], output_dir=str(out_dir)))

    def offset(doc):
        doc["final"]["energy"] += 1e-3

    _rewrite_json(out_dir / "summary.json", offset)
    failures = check(bad, out)
    assert any("from the floor" in f for f in failures)
    assert any("final.json energy" in f for f in failures)


def test_ladder_rejects_a_nonconverged_run(reduced, tmp_path):
    inp, out, check = reduced["ladder-flat"]
    out_dir = tmp_path / "out"
    shutil.copytree(inp["config"]["output_dir"], out_dir)
    bad = dict(inp, config=dict(inp["config"], output_dir=str(out_dir)))
    _rewrite_json(out_dir / "summary.json", lambda doc: doc.update(reason="max_iters"))
    assert any("max_iters" in f for f in check(bad, out))
    assert check(inp, dict(out, code=1)) != []


def test_pair_rejects_distant_finals_and_offset_energy(reduced):
    inp, out, check = reduced["gauge-pair"]
    assert any("apart" in f for f in check(inp, dict(out, distance=1e-3)))
    traj = out["runs"][0]
    last = replace(traj.records[-1], energy=traj.records[-1].energy + 1e-3)
    shifted = replace(traj, records=traj.records[:-1] + (last,))
    assert any("from the floor" in f for f in check(inp, dict(out, runs=[shifted, out["runs"][1]])))


def test_sobolev_rejects_failed_check_and_violation(reduced):
    inp, out, check = reduced["check-sobolev"]
    lines = list(out["lines"])
    lines[0] = "FAIL" + lines[0][4:]
    assert check(inp, dict(out, lines=lines)) != []
    lat, lhs, rhs, harmonic = out["bounds"][0]
    violated = [(lat, rhs * 1.01, rhs, harmonic)] + out["bounds"][1:]
    assert any("violations" in f for f in check(inp, dict(out, bounds=violated)))
    outside = [(lat, lhs, rhs, (math.pi / lat.lengths[0],) + tuple(harmonic[1:]))]
    assert any("fundamental domain" in f for f in check(inp, dict(out, bounds=outside)))


def test_hodge_check_rejects_a_wrong_gap():
    dims, h = (3, 4, 2, 5), 0.5
    good = sw.hodge_constants(sw.Lattice(dims, h))
    assert rc.check_hodge_constants("x", good, dims, h) == []
    assert rc.check_hodge_constants("x", replace(good, spectral_gap=good.spectral_gap * (1 + 1e-6)), dims, h)
    shortest_side_gap = 4.0 / h**2  # N = 2 instead of the longest side
    assert rc.check_hodge_constants("x", replace(good, spectral_gap=shortest_side_gap), dims, h)


def test_flux_rejects_plane_sum_off_by_one_quantum(reduced):
    inp, out, check = reduced["flux-n16"]
    final = out["traj"].final
    lat = final.lattice
    F = sw.curvature(final)
    flux = workloads._flux(workloads.FLUX_SECTOR)
    assert rc.check_plane_sums("x", F, flux, lat.spacing) == []
    n0, n1 = lat.dims[0], lat.dims[1]
    F[..., 0] += 2.0 * math.pi / (n0 * n1 * lat.spacing**2)
    assert rc.check_plane_sums("x", F, flux, lat.spacing)


def test_flux_rejects_broken_residual_split_and_descent(reduced):
    inp, out, check = reduced["flux-n16"]
    assert any("residual split" in f for f in check(inp, dict(out, first_order=out["first_order"] * (1 + 1e-8))))
    traj = out["traj"]
    first = replace(traj.records[0], energy=traj.records[-1].energy - 1.0)
    rising = replace(traj, records=(first,) + traj.records[1:])
    assert any("rises" in f for f in check(inp, dict(out, traj=rising)))


def test_gauge_invariance_check_uses_an_independent_action():
    lat = sw.Lattice((3, 4, 3, 3), 0.7)
    rng = np.random.default_rng(5)
    cfg = workloads._config(lat.dims, lat.spacing, rng, 0.5, 1.0, -1.0, workloads._flux({(0, 2): 1}))
    zeta = rng.standard_normal(lat.dims)
    moved = workloads._transformed(cfg, zeta, (1, -2, 0, 3))
    ref = sw.apply_gauge(sw.GaugeTransform(zeta, (1, -2, 0, 3)), cfg)
    assert np.allclose(moved.gauge.a, ref.gauge.a, atol=1e-12)
    assert np.allclose(moved.phi, ref.phi, atol=1e-12)
    e0 = sw.energy_weitzenbock(cfg)
    assert rc.check_gauge_invariance("x", e0, sw.energy_weitzenbock(moved)) == []
    # a constant shift of a that is not a lattice winding is not a gauge move
    off = workloads._transformed(cfg, zeta, (0, 0, 0, 0))
    off = off.replace(a=off.gauge.a + 0.1)
    assert rc.check_gauge_invariance("x", e0, sw.energy_weitzenbock(off))


def test_central_differences_reject_a_scaled_gradient(reduced):
    inp, out, check = reduced["flux-n16"]
    final = out["traj"].final
    g = sw.gradient(final)
    energy_at = workloads._energy_along(final)
    h = final.lattice.spacing
    directions = workloads._tilted(g, inp["directions"])
    assert rc.check_central_differences("x", energy_at, g.da, g.dphi, h, directions) == []
    assert rc.check_central_differences("x", energy_at, 1.001 * g.da, 1.001 * g.dphi, h, directions)
    # a gradient missing its spinor part fails along the same directions
    assert rc.check_central_differences("x", energy_at, g.da, 0 * g.dphi, h, directions)


def test_floor_and_phi2_checks_reject_offsets():
    s = -np.ones((8, 8, 8, 8))
    assert rc.energy_floor(0.75, s) == -162.0
    assert rc.energy_floor(1.5, -np.ones((3, 3, 3, 3))) == -51.2578125
    assert rc.check_at_floor("x", -162.0 + 1e-3, 0.75, s, tol=1e-6)
    phi = np.zeros((8, 8, 8, 8, 2), dtype=complex)
    phi[..., 0] = 1.0
    assert rc.check_phi2_matches_s("x", phi, s, tol=1e-4) == []
    phi[1, 2, 3, 4, 1] = 0.1
    assert rc.check_phi2_matches_s("x", phi, s, tol=1e-4)


def test_tracer_reports_the_benchmark_layer_table(reduced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(bench_run.WORKLOADS) == set(workloads.WORKLOADS)

    inp, _, check = reduced["flux-n16"]
    original = sw.optimize.gradient
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = tracing.perf_counter()
        out = workloads.run_flux(inp)
        wall = tracing.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert sw.optimize.gradient is original
    assert check(inp, out) == []
    metrics, share = tracing.summarize(tracer.spans, wall)
    assert set(metrics) == set(tracing.UNITS)
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["optimize.iterations"] == inp["params"].max_iters
    assert metrics["functional.gradient.calls"] > 0
    assert metrics["gaugefix.hodge_constants.s"] == 0.0  # not called here: zero, not an error
    assert set(share) <= set(tracing.MODULES)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flux-n16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
