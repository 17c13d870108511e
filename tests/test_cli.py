"""Command-line interface: run, check, gaugefix."""

import csv
import json
import os
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import swflow.checks
import swflow.cli
from swflow.cli import main, parse_scalar_curvature
from swflow.clifford import SIGMA
from swflow.fields import load_configuration, random_configuration, save_configuration
from swflow.functional import energy_weitzenbock
from swflow.lattice import Lattice, codiff1, l2_norm

HEADER = "iter,energy,grad_norm,phi_linf,excess_measure,radial_excess,gauge_step_distance"


def write_config(path, **overrides):
    config = {
        "dims": [3, 3, 3, 3],
        "spacing": 1.5,
        "scalar_curvature": "constant:-1",
        "seed": 5,
        "amplitudes": {"a": 0.3, "phi": 1.0},
        "minimize": {"max_iters": 5, "grad_tol": 1e-12, "gaugefix_every": 2},
        "output_dir": str(path.parent / "out"),
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_run_writes_history_final_and_summary(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    config = write_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"

    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2 + 5  # header, iterate 0, five iterations
    rows = list(csv.DictReader(lines))
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    final = load_configuration(out / "final.json")
    assert final.lattice == Lattice((3, 3, 3, 3), 1.5)

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"reason", "iterations", "wall_time_seconds", "final", "config"}
    assert summary["reason"] == "max_iters"
    assert summary["iterations"] == 5
    assert set(summary["final"]) == {
        "energy", "grad_norm", "phi_linf", "threshold",
        "excess_measure", "radial_excess", "eta_norm",
    }
    assert summary["config"] == config
    assert "max_iters after 5 iterations" in capsys.readouterr().out


def test_run_with_max_iters_zero_emits_single_row(tmp_path):
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path, minimize={"max_iters": 0})
    assert main(["run", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == HEADER
    assert lines[1].startswith("0,")


def test_run_missing_config_exits_2_without_outputs(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        dict(dims=[1, 3, 3, 3]),
        dict(scalar_curvature="blob:1"),
        dict(minimize={"max_iters": 5, "method": "newton"}),
        dict(amplitudes={"a": -0.1, "phi": 0.5}),
        dict(output_dir=5),
        dict(output_dir=None),
        # integers are never truncated: 2.9 is not 2 and 1.5 is not 1
        dict(dims=[3, 3, 3, 3.9]),
        dict(seed=1.5),
        dict(seed=True),
        dict(minimize={"max_iters": 3.5}),
        dict(minimize={"max_iters": 3, "record_every": 1.5}),
        dict(minimize={"max_iters": 3, "gaugefix_every": 2.5}),
        # NaN and Infinity are not JSON numbers, and outputs could not echo them
        dict(minimize={"max_iters": 3, "grad_tol": float("inf")}),
        # an integral float beyond int64 is not a flux integer (it used to wrap)
        dict(flux=[[0, 1e300, 0, 0], [-1e300, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        # a step no double holds used to fail mid-run as a solver failure
        dict(minimize={"max_iters": 3, "initial_step": 10**400}),
        dict(minimize={"max_iters": 3, "grad_tol": "1e-4"}),
        # nor are numeric strings or bools a spacing or an amplitude
        dict(spacing="1.5"),
        dict(spacing=True),
        dict(amplitudes="1.5"),
        dict(amplitudes={"a": "0.3", "phi": "1"}),
        dict(amplitudes={"a": 0.3, "phi": "1"}),
        dict(amplitudes={"a": False, "phi": 1.0}),
        dict(scalar_curvature="bump:1,1e-200"),
        # a JSON boolean among the numbers is not a flux integer either
        dict(flux=[[0, True, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        # a misspelt key is refused rather than silently left at its default
        dict(scalar_curvatur=-1.0),
        dict(amplitudes={"a": 0.3, "phi": 1.0, "psi": 0.5}),
    ],
)
def test_run_rejects_bad_config(tmp_path, capsys, overrides):
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path, **overrides)
    assert main(["run", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()
    assert "bad config" in capsys.readouterr().err


def test_run_refuses_a_lattice_it_cannot_allocate_in_one_line(tmp_path, capsys, monkeypatch):
    # stands in for numpy's allocation error on, say, a 300^4 lattice, which a
    # real allocation would raise or not depending on the host's overcommit
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 607. GiB for an array with shape (300, 300, 300, 300, 4)")

    monkeypatch.setattr(swflow.cli, "random_configuration", unallocatable)
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path, dims=[300, 300, 300, 300], spacing=1.0)
    assert main(["run", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("swflow run: bad config: Unable to allocate") and err.count("\n") == 1


def test_run_with_non_finite_start_fails_before_writing(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path, dims=[2, 2, 2, 2], amplitudes={"a": 0.1, "phi": 1e160})
    (tmp_path / "out").mkdir()
    assert main(["run", str(cfg_path)]) == 1
    assert list((tmp_path / "out").iterdir()) == []
    assert "solver failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_whose_iterate_is_not_finite_fails_in_one_line(tmp_path, capsys):
    # the first search accepts t = 1 at energy -4.6e299, where the gradient norm overflows
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path, dims=[2, 2, 2, 2], spacing=1.0, scalar_curvature=-1e200, seed=1,
                 amplitudes={"a": 0.0, "phi": 1e-150}, minimize={"method": "conjugate", "max_iters": 50})
    assert main(["run", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("swflow run: solver failed") and "not finite" in err and err.count("\n") == 1


def test_failed_rewrite_keeps_previous_outputs(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    names = ["final.json", "history.csv", "summary.json"]
    umask = os.umask(0)
    os.umask(umask)
    before = {n: ((out / n).read_bytes(), os.stat(out / n).st_mode) for n in names}
    # the same bits as a plain open(path, "w") gives a new file
    assert all(stat.S_IMODE(mode) == 0o666 & ~umask for _, mode in before.values())

    def refuse(src, dst):
        raise OSError("rename refused")

    write_config(cfg_path, seed=6)  # a different run, so every output would change
    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert main(["run", str(cfg_path)]) == 1
    assert "cannot write outputs" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == names  # no temp file left behind
    assert {n: ((out / n).read_bytes(), os.stat(out / n).st_mode) for n in names} == before


def _failing_fsync(monkeypatch, nth):
    """Make the nth os.fsync of the command fail, as a full disk would."""
    synced, fsync = [], os.fsync

    def flaky(fd):
        synced.append(fd)
        if len(synced) == nth:
            raise OSError("no space left on device")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", flaky)


def test_run_whose_last_write_fails_keeps_every_previous_output(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.json"
    write_config(cfg_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    before = {n: (out / n).read_bytes() for n in os.listdir(out)}
    write_config(cfg_path, seed=6)  # a different run, so every output would change
    _failing_fsync(monkeypatch, 3)
    capsys.readouterr()
    assert main(["run", str(cfg_path)]) == 1
    assert "cannot write outputs" in capsys.readouterr().err
    assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before  # no *.tmp either


def test_run_is_deterministic(tmp_path):
    for name in ("one", "two"):
        cfg_path = tmp_path / f"{name}.json"
        write_config(cfg_path, output_dir=str(tmp_path / name))
        assert main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "one" / "history.csv").read_bytes()
    second = (tmp_path / "two" / "history.csv").read_bytes()
    assert first == second


def test_run_bump_profile(tmp_path):
    cfg_path = tmp_path / "exp.json"
    write_config(
        cfg_path,
        dims=[4, 4, 4, 4],
        spacing=1.0,
        scalar_curvature="bump:-2.0,1.0",
        minimize={"max_iters": 0},
    )
    assert main(["run", str(cfg_path)]) == 0
    final = load_configuration(tmp_path / "out" / "final.json")
    s = final.scalar_curvature
    assert s[2, 2, 2, 2] == pytest.approx(-2.0)
    assert abs(s[0, 0, 0, 0]) <= 1e-6
    assert np.all(s <= 0.0)


def test_run_maximum_principle_experiment(tmp_path):
    # the full 6^4 negative-curvature experiment through the CLI: the
    # converged spinor must sit under the maximum-principle ceiling
    cfg_path = tmp_path / "exp.json"
    write_config(
        cfg_path,
        dims=[6, 6, 6, 6],
        spacing=1.0,
        seed=77,
        amplitudes={"a": 0.3, "phi": 1.6},
        minimize={
            "max_iters": 4000,
            "grad_tol": 1e-4,
            "method": "conjugate",
            "gaugefix_every": 10,
        },
    )
    assert main(["run", str(cfg_path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["reason"] == "converged"
    assert summary["final"]["phi_linf"] <= 1.05
    assert summary["final"]["radial_excess"] <= 1e-6


def test_parse_scalar_curvature_forms():
    lat = Lattice((3, 3, 3, 3), 1.0)
    assert np.all(parse_scalar_curvature(-1.5, lat) == -1.5)
    assert np.all(parse_scalar_curvature("constant:2.25", lat) == 2.25)
    bump = parse_scalar_curvature("bump:3.0,0.8", lat)
    assert bump.max() <= 3.0 and bump.min() >= 0.0
    for bad in ("bump:3.0", "bump:1,0", "profile:x", True):
        with pytest.raises(ValueError):
            parse_scalar_curvature(bad, lat)


def test_bump_radius_whose_square_underflows_is_a_bad_radius(tmp_path, capsys):
    lat = Lattice((2, 2, 2, 2), 1.0)  # a site sits at the box centre
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning, no NaN
        with pytest.raises(ValueError, match="bump radius .*1e-200"):
            parse_scalar_curvature("bump:1,1e-200", lat)
        cfg_path = tmp_path / "exp.json"
        write_config(cfg_path, dims=[2, 2, 2, 2], scalar_curvature="bump:1,1e-200")
        assert main(["run", str(cfg_path)]) == 2
        # the smallest radii still accepted keep their profile: v at the centre, 0 elsewhere
        tiny = parse_scalar_curvature("bump:1,1e-150", lat)
    err = capsys.readouterr().err
    assert "bad config" in err and "1e-200" in err
    assert tiny[1, 1, 1, 1] == 1.0 and np.count_nonzero(tiny) == 1


def test_check_fast_passes_and_prints_one_line_per_check(capsys):
    assert main(["check", "--level", "fast"]) == 0
    out = capsys.readouterr().out.splitlines()
    check_lines = [l for l in out if l.startswith(("PASS", "FAIL"))]
    assert len(check_lines) == 13
    assert all(l.startswith("PASS") for l in check_lines)
    assert out[-1] == "13/13 checks passed"


def test_check_full_includes_refinement_study(capsys):
    assert main(["check", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "weitzenbock_gap_contraction" in out


def test_check_json_matches_run_checks(capsys):
    assert main(["check", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [
        {"name": r.name, "measured": r.measured, "tolerance": r.tolerance, "op": r.op, "passed": True}
        for r in swflow.checks.run_checks("fast")
    ]


def test_check_json_reports_failures_and_non_finite_measurements(monkeypatch, capsys):
    results = [swflow.checks.CheckResult("finite", 2.0, 1.0),
               swflow.checks.CheckResult("nan", float("nan"), 1.0, op=">=")]
    monkeypatch.setattr(swflow.cli, "run_checks", lambda level: results)
    assert main(["check", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"name": "finite", "measured": 2.0, "tolerance": 1.0, "op": "<=", "passed": False},
        {"name": "nan", "measured": None, "tolerance": 1.0, "op": ">=", "passed": False},
    ]


def test_check_fails_on_corrupted_clifford_table(monkeypatch, capsys):
    sigma = SIGMA.copy()
    sigma[1, 0, 0] += 0.05
    monkeypatch.setattr(swflow.checks, "SIGMA", sigma)
    assert main(["check", "--level", "fast"]) == 1
    out = capsys.readouterr().out
    assert "FAIL clifford_relation_defect" in out


def test_check_fails_on_a_nan_clifford_entry(monkeypatch, capsys):
    sigma = SIGMA.copy()
    sigma[2, 0, 0] = np.nan
    monkeypatch.setattr(swflow.checks, "SIGMA", sigma)
    assert main(["check", "--level", "fast"]) == 1
    assert "FAIL clifford_relation_defect: measured nan" in capsys.readouterr().out.splitlines()[0]
    assert main(["check", "--level", "fast", "--json"]) == 1
    first = json.loads(capsys.readouterr().out)[0]
    assert first == {"name": "clifford_relation_defect", "measured": None,
                     "tolerance": swflow.checks.IDENTITY_TOL, "op": "<=", "passed": False}


def fixture_configuration():
    lat = Lattice((3, 3, 4, 3), 0.8)
    cfg = random_configuration(lat, 23, (0.5, 0.9))
    a = cfg.gauge.a.copy()
    a[..., 1] += 2.4 * 2.0 * np.pi / lat.lengths[1]
    return cfg.replace(a=a)


def test_gaugefix_cli_roundtrip(tmp_path, capsys):
    cfg = fixture_configuration()
    src, dst = tmp_path / "in.json", tmp_path / "fixed.json"
    save_configuration(cfg, src)
    assert main(["gaugefix", str(src), str(dst)]) == 0
    assert "energy drift" in capsys.readouterr().out

    fixed = load_configuration(dst)
    lat = fixed.lattice
    assert l2_norm(lat, codiff1(lat, fixed.gauge.a)) <= 1e-8
    drift = abs(energy_weitzenbock(fixed) - energy_weitzenbock(cfg))
    assert drift <= 1e-10 * abs(energy_weitzenbock(cfg))

    report = json.loads((tmp_path / "fixed.json.report.json").read_text())
    assert set(report) == {"residual", "winding", "harmonic"}
    assert report["winding"] == [0, 2, 0, 0]
    for mu, h in enumerate(report["harmonic"]):
        assert -np.pi / lat.lengths[mu] <= h < np.pi / lat.lengths[mu]


def test_gaugefix_cli_idempotent(tmp_path):
    cfg = fixture_configuration()
    src = tmp_path / "in.json"
    save_configuration(cfg, src)
    assert main(["gaugefix", str(src), str(tmp_path / "once.json")]) == 0
    assert main(["gaugefix", str(tmp_path / "once.json"), str(tmp_path / "twice.json")]) == 0
    once = load_configuration(tmp_path / "once.json")
    twice = load_configuration(tmp_path / "twice.json")
    assert np.max(np.abs(once.gauge.a - twice.gauge.a)) <= 1e-10
    report = json.loads((tmp_path / "twice.json.report.json").read_text())
    assert report["winding"] == [0, 0, 0, 0]


def test_gaugefix_missing_or_garbled_input(tmp_path, capsys):
    assert main(["gaugefix", str(tmp_path / "no.json"), str(tmp_path / "o.json")]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["gaugefix", str(garbled), str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()
    assert capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("a", {}),
    ("a", [{}] * 64),  # as many entries as a 2^4 connection has
    ("flux", [[None] * 4] * 4),
    ("flux", [["0"] * 4] * 4),
    ("flux", [[0, True, 0, 0], [-1, 0, 0, 0], [0] * 4, [0] * 4]),
], ids=["a-dict", "a-dicts", "flux-nulls", "flux-strings", "flux-mixed-bool"])
def test_gaugefix_malformed_input_exits_2(tmp_path, capsys, key, value):
    path = tmp_path / "in.json"
    save_configuration(random_configuration(Lattice((2, 2, 2, 2), 1.0), 3, (0.4, 0.8)), path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
    assert main(["gaugefix", str(path), str(tmp_path / "o.json")]) == 2
    assert "cannot read configuration" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fields", [
    dict(a=np.full((2, 2, 2, 2, 4), 1.7e308)),  # the winding of the harmonic part overflows
    dict(a=1e307 * np.random.default_rng(1).standard_normal((2, 2, 2, 2, 4))),  # the Poisson gate trips
    dict(a=3e306 * np.random.default_rng(1).standard_normal((2, 2, 2, 2, 4))),  # ||rho|| overflows
    dict(phi=1e100 * np.ones((2, 2, 2, 2, 2))),  # |phi|^4 overflows, so the drift is nan
], ids=["winding-overflow", "poisson-gate", "poisson-norm-overflow", "phi-overflow"])
def test_gaugefix_failure_on_a_loadable_configuration_exits_1(tmp_path, capsys, fields):
    cfg = random_configuration(Lattice((2, 2, 2, 2), 1.0), 3, (0.4, 0.8)).replace(**fields)
    save_configuration(cfg, tmp_path / "in.json")
    code = main(["gaugefix", str(tmp_path / "in.json"), str(tmp_path / "o.json")])
    assert code == 1
    assert "cannot fix or write" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    assert not (tmp_path / "o.json.report.json").exists()


def test_gaugefix_whose_second_write_fails_changes_neither_target(tmp_path, monkeypatch, capsys):
    src, dst, rep = tmp_path / "in.json", tmp_path / "o.json", tmp_path / "o.json.report.json"
    save_configuration(fixture_configuration(), src)
    _failing_fsync(monkeypatch, 2)
    assert main(["gaugefix", str(src), str(dst)]) == 1
    assert sorted(os.listdir(tmp_path)) == ["in.json"]  # no new target, no *.tmp
    dst.write_text("old\n")
    rep.write_text("old report\n")
    _failing_fsync(monkeypatch, 2)
    assert main(["gaugefix", str(src), str(dst)]) == 1
    assert "cannot fix or write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.json", "o.json", "o.json.report.json"]
    assert (dst.read_text(), rep.read_text()) == ("old\n", "old report\n")


def test_gaugefix_with_a_directory_at_the_report_path_writes_nothing(tmp_path, capsys):
    src, rep = tmp_path / "in.json", tmp_path / "o.json.report.json"
    save_configuration(fixture_configuration(), src)
    rep.mkdir()
    assert main(["gaugefix", str(src), str(tmp_path / "o.json")]) == 1
    assert "cannot fix or write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.json", "o.json.report.json"]
    assert list(rep.iterdir()) == []


def test_console_script_entry_point():
    # pyproject.toml must map the `swflow` script to cli.main
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'swflow = "swflow.cli:main"' in scripts.splitlines()

    # `python -m swflow` runs the same main whether or not the package is installed
    src = str(Path(swflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    commands = [[sys.executable, "-m", "swflow"]]
    if shutil.which("swflow"):
        commands.append(["swflow"])
    for command in commands:
        proc = subprocess.run(
            command + ["check", "--level", "fast"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert "checks passed" in proc.stdout


def _unreadable(monkeypatch, path):
    """open raises PermissionError for path, as for a file the user may not read
    (chmod cannot show it: root reads a mode-000 file)."""
    real_open = open

    def guarded(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", guarded)


@pytest.mark.parametrize("command", ["run", "gaugefix"])
@pytest.mark.parametrize("failure", ["unreadable", "deeply-nested"])
def test_an_unreadable_or_deeply_nested_input_exits_2_in_one_line(tmp_path, capsys, monkeypatch,
                                                                   command, failure):
    src = tmp_path / "in.json"
    if failure == "deeply-nested":
        src.write_text("[" * 200_000)
    elif command == "run":
        write_config(src)
    else:
        save_configuration(random_configuration(Lattice((2, 2, 2, 2), 1.0), 3, (0.4, 0.8)), src)
    if failure == "unreadable":
        _unreadable(monkeypatch, src)
    args = [command, str(src)] + ([str(tmp_path / "o.json")] if command == "gaugefix" else [])
    assert main(args) == 2
    assert os.listdir(tmp_path) == ["in.json"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert ("Permission denied" if failure == "unreadable" else "not valid JSON") in err
