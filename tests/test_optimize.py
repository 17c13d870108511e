"""Line search, descent loop, and trajectory diagnostics."""

import numpy as np
import pytest

from oracles import traced_peak
import swflow.checks
import swflow.fields
import swflow.functional
import swflow.operators
import swflow.optimize
from swflow.cli import parse_scalar_curvature
from swflow.fields import (
    Configuration,
    GaugeField,
    GaugeTransform,
    apply_gauge,
    random_configuration,
)
from swflow.functional import energy_lower_bound, energy_weitzenbock, gradient
from swflow.gaugefix import full_gauge_fix, gauge_distance
from swflow.lattice import Lattice, codiff1, l2_norm, linf_norm
from swflow.optimize import (
    MAX_BACKTRACKS,
    LineSearchFailure,
    MinimizeParams,
    NonDescentDirectionError,
    Trajectory,
    TrajectoryRecord,
    descent_pairing,
    line_search,
    minimize,
    ps_diagnostics,
)

rng = np.random.default_rng(20260407)


def with_constant_s(cfg, value):
    s = value * np.ones(cfg.lattice.dims)
    return Configuration(cfg.lattice, cfg.gauge, cfg.phi, s, cfg.seed)


def zero_cfg(lat, s_value=0.0):
    return Configuration(
        lat,
        GaugeField(np.zeros(lat.dims + (4,)), np.zeros((4, 4), int)),
        np.zeros(lat.dims + (2,)),
        s_value * np.ones(lat.dims),
    )


@pytest.fixture(scope="module")
def negative_curvature_run():
    """Converged s = -1 minimization started at ||phi||_inf = 3."""
    lat = Lattice((3, 3, 3, 3), 1.5)
    base = random_configuration(lat, 9, (0.3, 1.0))
    phi = base.phi * (3.0 / linf_norm(lat, base.phi))
    cfg = with_constant_s(base.replace(phi=phi), -1.0)
    params = MinimizeParams(
        max_iters=2000, grad_tol=1e-5, method="conjugate", gaugefix_every=10
    )
    return cfg, minimize(cfg, params)


@pytest.mark.parametrize(
    "bad",
    [
        dict(max_iters=-1),
        dict(grad_tol=0.0),
        dict(armijo_c=0.0),
        dict(armijo_c=1.0),
        dict(backtrack=1.0),
        dict(initial_step=0.0),
        dict(method="newton"),
        dict(gaugefix_every=-2),
        dict(record_every=0),
        dict(max_iters=3.5),
        dict(max_iters=3.0),
        dict(max_iters=True),
        dict(gaugefix_every=2.5),
        dict(record_every=1.5),
        dict(record_every="2"),
        dict(grad_tol="1e-4"),
        dict(initial_step=True),
        dict(backtrack=float("nan")),
        dict(initial_step=10**400),
    ],
)
def test_params_validation(bad):
    with pytest.raises(ValueError):
        MinimizeParams(**bad)


def test_params_accept_numpy_integers():
    params = MinimizeParams(max_iters=np.int64(7), gaugefix_every=np.int32(0), record_every=np.uint8(2))
    assert (params.max_iters, params.gaugefix_every, params.record_every) == (7, 0, 2)
    assert all(type(v) is int for v in (params.max_iters, params.gaugefix_every, params.record_every))


def test_zero_configuration_is_already_converged():
    traj = minimize(zero_cfg(Lattice((3, 3, 3, 3), 1.0)), MinimizeParams())
    assert traj.reason == "converged"
    assert len(traj.records) == 1
    assert traj.records[0].iter == 0
    assert traj.records[0].energy == 0.0
    assert traj.records[0].gauge_step_distance == 0.0


def test_line_search_accepts_initial_step_in_quadratic_regime():
    lat = Lattice((3, 3, 3, 3), 1.0)
    cfg = with_constant_s(random_configuration(lat, 13, (1e-3, 1e-3)), 1.0)
    params = MinimizeParams(initial_step=0.01)
    step, trial = line_search(cfg, gradient(cfg).scaled(-1.0), params)
    assert step == params.initial_step
    assert energy_weitzenbock(trial.cfg) < energy_weitzenbock(cfg)


def test_line_search_rejects_zero_and_ascent_directions():
    lat = Lattice((3, 3, 3, 3), 1.0)
    cfg = random_configuration(lat, 17, (0.5, 0.8))
    g = gradient(cfg)
    with pytest.raises(NonDescentDirectionError):
        line_search(cfg, g.scaled(0.0), MinimizeParams())
    with pytest.raises(NonDescentDirectionError):
        line_search(cfg, g, MinimizeParams())


def test_line_search_satisfies_armijo_inequality_as_stated():
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = with_constant_s(random_configuration(lat, 19, (1.5, 2.0)), -1.0)
    params = MinimizeParams()
    direction = gradient(cfg).scaled(-1.0)
    pair = descent_pairing(gradient(cfg), direction)
    step, trial = line_search(cfg, direction, params)
    assert energy_weitzenbock(trial.cfg) <= energy_weitzenbock(cfg) + params.armijo_c * step * pair
    assert step <= params.initial_step


def test_line_search_with_held_gradient_and_energy_takes_the_same_step():
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = with_constant_s(random_configuration(lat, 19, (1.5, 2.0)), -1.0)
    g = gradient(cfg)
    direction = g.scaled(-1.0)
    fresh = line_search(cfg, direction, MinimizeParams())
    floor = swflow.functional._line_floor(cfg, direction, swflow.functional._evaluate(cfg).fplus)
    held = line_search(cfg, direction, MinimizeParams(), (g, energy_weitzenbock(cfg), floor))
    assert held[0] == fresh[0]
    assert np.array_equal(held[1].cfg.gauge.a, fresh[1].cfg.gauge.a)
    assert np.array_equal(held[1].cfg.phi, fresh[1].cfg.phi)
    assert held[1].energy == fresh[1].energy == energy_weitzenbock(held[1].cfg)


def test_line_search_without_a_start_evaluates_its_start_once(monkeypatch):
    cfg = with_constant_s(random_configuration(Lattice((3, 3, 3, 3), 0.8), 19, (1.5, 2.0)), -1.0)
    direction = gradient(cfg).scaled(-1.0)
    evaluated, curved = [], []
    evaluate, curvature = swflow.functional._evaluate, swflow.functional.curvature
    counted = lambda c: evaluated.append(c) or evaluate(c)  # noqa: E731
    for module in (swflow.functional, swflow.optimize):
        monkeypatch.setattr(module, "_evaluate", counted)
    monkeypatch.setattr(swflow.functional, "curvature", lambda c: curved.append(c) or curvature(c))
    t, trial = line_search(cfg, direction, MinimizeParams(initial_step=64.0))
    assert sum(c is cfg for c in evaluated) == 1
    assert sum(c is cfg for c in curved) == 1  # the floor reads F+ from that evaluation
    assert t < 64.0 and trial.cfg is evaluated[-1]  # the counted calls include the trials


def mixed_flux_cfg():
    lat = Lattice((3, 4, 2, 5), 0.7)
    flux = np.zeros((4, 4), dtype=int)
    for (mu, nu), n in {(0, 1): 1, (1, 3): 2, (2, 3): -1}.items():
        flux[mu, nu], flux[nu, mu] = n, -n
    return with_constant_s(random_configuration(lat, 37, (0.6, 1.5), flux=flux), -1.0)


def test_line_step_carries_the_exact_energy_and_gradient_of_its_trial():
    cfg = mixed_flux_cfg()
    _, trial = line_search(cfg, gradient(cfg).scaled(-1.0), MinimizeParams())
    assert trial.energy == energy_weitzenbock(trial.cfg)
    held, fresh = trial.gradient(), gradient(trial.cfg)
    assert np.array_equal(held.da, fresh.da)
    assert np.array_equal(held.dphi, fresh.dphi)


def test_line_search_does_not_revalidate_the_flux(monkeypatch):
    cfg = mixed_flux_cfg()
    direction = gradient(cfg).scaled(-1.0)
    calls = []
    validate = swflow.fields.check_flux_matrix
    monkeypatch.setattr(swflow.fields, "check_flux_matrix", lambda f: calls.append(1) or validate(f))
    step = line_search(cfg, direction, MinimizeParams(initial_step=64.0))
    assert step[0] < 64.0  # several trials were rejected before this one
    assert calls == []


def _never_skipping(monkeypatch):
    monkeypatch.setattr(swflow.optimize, "_line_floor", lambda cfg, direction, fplus: lambda t: np.nan)


def _assert_same_run(run, other):
    assert run.records == other.records
    assert run.reason == other.reason
    assert np.array_equal(run.final.gauge.a, other.final.gauge.a)
    assert np.array_equal(run.final.phi, other.final.phi)


def test_skipped_trials_leave_the_trajectory_unchanged(monkeypatch):
    base = mixed_flux_cfg()
    bump = parse_scalar_curvature("bump:-4,2", base.lattice)
    cfg = Configuration(base.lattice, base.gauge, base.phi, bump, base.seed)
    params = MinimizeParams(max_iters=60, grad_tol=1e-12, gaugefix_every=7, record_every=3)
    full = swflow.functional._evaluate
    evaluated = []

    def counting(trial):
        evaluated.append(trial)
        return full(trial)

    monkeypatch.setattr(swflow.optimize, "_evaluate", counting)
    skipping = minimize(cfg, params)
    skipping_evaluations = len(evaluated)
    _never_skipping(monkeypatch)
    evaluated.clear()
    unskipped = minimize(cfg, params)
    assert skipping_evaluations < len(evaluated)  # the floor did skip trials
    _assert_same_run(skipping, unskipped)


def test_minimize_with_a_never_skipping_floor_is_identical(monkeypatch):
    lat = Lattice((2, 3, 2, 5), 1.1)
    flux = np.zeros((4, 4), dtype=int)
    flux[0, 2], flux[2, 0] = 2, -2
    cfg = with_constant_s(random_configuration(lat, 41, (0.8, 2.0), flux=flux), -2.0)
    params = MinimizeParams(max_iters=80, grad_tol=1e-12, initial_step=16.0, method="conjugate",
                            gaugefix_every=5, record_every=2)
    skipping = minimize(cfg, params)
    _never_skipping(monkeypatch)
    _assert_same_run(skipping, minimize(cfg, params))


def test_recorded_steps_are_gauge_distances_with_one_fix_per_record(monkeypatch):
    cfg = mixed_flux_cfg()
    params = dict(grad_tol=1e-14, gaugefix_every=2, record_every=1)
    iterates = [minimize(cfg, MinimizeParams(max_iters=k, **params)).final for k in range(5)]
    fixes = []
    fix = swflow.optimize.full_gauge_fix
    monkeypatch.setattr(swflow.optimize, "full_gauge_fix", lambda c: fixes.append(c) or fix(c))
    traj = minimize(cfg, MinimizeParams(max_iters=4, **params))
    assert [r.gauge_step_distance for r in traj.records[1:]] == [
        gauge_distance(prev, cur) for prev, cur in zip(iterates, iterates[1:])]
    assert len(fixes) == 5 + 2  # one per record (iterates 0-4), one per refix (2, 4)


def test_minimize_builds_grad_phi_only_inside_evaluations(monkeypatch):
    counts = {"evaluate": 0, "grad_phi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    evaluate = counted("evaluate", swflow.functional._evaluate)
    diff = counted("grad_phi", swflow.operators.covariant_diff)
    for module in (swflow.functional, swflow.optimize):
        monkeypatch.setattr(module, "_evaluate", evaluate)
    for module in (swflow.functional, swflow.operators):
        monkeypatch.setattr(module, "covariant_diff", diff)
    params = MinimizeParams(max_iters=9, grad_tol=1e-14, method="conjugate", gaugefix_every=4,
                            record_every=2)
    traj = minimize(mixed_flux_cfg(), params)
    assert [r.iter for r in traj.records] == [0, 2, 4, 6, 8, 9]  # the final record too
    # records read the held grad phi instead of rebuilding it
    assert counts["grad_phi"] == counts["evaluate"] > 0


def test_conjugate_minimize_peak_memory_on_a_mixed_flux_8_4():
    lat = Lattice((8, 8, 8, 8), 0.75)
    cfg = swflow.checks.mixed_flux_configuration(lat, 13, scalar_curvature=-np.ones(lat.dims))
    params = MinimizeParams(max_iters=6, grad_tol=1e-12, method="conjugate", gaugefix_every=3,
                            record_every=3)
    minimize(cfg, params)  # untraced: it caches the flux background and imports numpy.fft
    # no old gradient in the line searches, no complex difference buffer in the records
    assert traced_peak(minimize, cfg, params) <= 11.6 * (cfg.gauge.a.nbytes + cfg.phi.nbytes)


def test_minimize_rejects_a_non_finite_start():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_configuration(lat, 3, (0.1, 1e160))  # |phi|^4 overflows
    with pytest.raises(ValueError, match="not finite"):
        minimize(cfg, MinimizeParams())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_minimize_rejects_an_iterate_that_is_not_finite():
    # s = -1e200: the first search accepts t = 1 at energy -4.6e299, where the
    # gradient norm overflows; no direction may be built from it
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_configuration(lat, 1, (0.0, 1e-150), scalar_curvature=np.full(lat.dims, -1e200))
    with pytest.raises(ValueError, match="iterate 1: gradient norm inf is not finite"):
        minimize(cfg, MinimizeParams(method="conjugate", max_iters=50))


def test_line_search_failure_after_exhausted_backtracks():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_configuration(lat, 23, (0.5, 0.5))
    # descent direction so absurdly scaled that 60 halvings cannot tame it:
    # every trial overflows the quartic term and fails the Armijo test
    direction = gradient(cfg).scaled(-1e300)
    with pytest.raises(LineSearchFailure):
        line_search(cfg, direction, MinimizeParams())
    assert 0.5**MAX_BACKTRACKS * 1e300 > 1e200


def test_minimize_records_line_search_failure_without_crashing():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_configuration(lat, 29, (0.5, 0.5))
    traj = minimize(cfg, MinimizeParams(initial_step=1e300))
    assert traj.reason == "line_search_failure"
    assert len(traj.records) == 1
    assert np.array_equal(traj.final.gauge.a, cfg.gauge.a)
    assert np.array_equal(traj.final.phi, cfg.phi)


def test_minimize_is_monotone_and_deterministic():
    lat = Lattice((3, 3, 3, 3), 1.2)
    cfg = with_constant_s(random_configuration(lat, 31, (0.6, 1.2)), -1.0)
    params = MinimizeParams(max_iters=60, grad_tol=1e-12, gaugefix_every=5)
    traj = minimize(cfg, params)
    energies = [r.energy for r in traj.records]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-12 * (1.0 + abs(before))
    again = minimize(cfg, params)
    assert again.reason == traj.reason
    assert again.records == traj.records


def test_minimize_drives_spinor_to_zero_for_positive_curvature():
    lat = Lattice((3, 3, 3, 3), 2.0)
    cfg = with_constant_s(random_configuration(lat, 7, (0.2, 0.4)), 1.0)
    traj = minimize(
        cfg,
        MinimizeParams(max_iters=800, grad_tol=1e-8, method="conjugate", gaugefix_every=10),
    )
    assert traj.reason == "converged"
    assert traj.records[-1].phi_linf <= 1e-3
    assert traj.records[-1].energy <= 1e-6


def test_minimize_obeys_maximum_principle_for_negative_curvature(negative_curvature_run):
    cfg, traj = negative_curvature_run
    final = traj.records[-1]
    assert traj.reason == "converged"
    assert final.threshold == 1.0
    assert final.phi_linf <= 1.0 + 0.05
    assert final.radial_excess <= 1e-6
    lb = energy_lower_bound(cfg.lattice, cfg.scalar_curvature)
    assert final.energy >= lb
    assert final.energy <= lb + 1e-9 * abs(lb)


def test_minimize_descends_the_gauge_quotient(negative_curvature_run):
    cfg, _ = negative_curvature_run
    lat = cfg.lattice
    g = GaugeTransform(0.8 * rng.standard_normal(lat.dims), (1, 0, -1, 0))
    params = MinimizeParams(max_iters=40, grad_tol=1e-5, gaugefix_every=1)
    plain = minimize(cfg, params)
    moved = minimize(apply_gauge(g, cfg), params)
    assert gauge_distance(plain.final, moved.final) <= 1e-6


def test_minimize_keeps_iterates_in_normal_form(negative_curvature_run):
    cfg, _ = negative_curvature_run
    lat = cfg.lattice
    traj = minimize(cfg, MinimizeParams(max_iters=30, grad_tol=1e-12, gaugefix_every=1))
    a = traj.final.gauge.a
    assert l2_norm(lat, codiff1(lat, a)) <= 1e-8 * (1.0 + l2_norm(lat, a))
    for mu in range(4):
        assert -np.pi / lat.lengths[mu] <= a[..., mu].mean() < np.pi / lat.lengths[mu]


def test_record_every_keeps_first_and_final_iterates():
    lat = Lattice((3, 3, 3, 3), 1.2)
    cfg = with_constant_s(random_configuration(lat, 37, (0.4, 0.9)), -1.0)
    traj = minimize(cfg, MinimizeParams(max_iters=10, grad_tol=1e-14, record_every=7))
    assert [r.iter for r in traj.records] == [0, 7, 10]
    assert traj.reason == "max_iters"
    assert traj.records[-1].phi_linf == linf_norm(lat, traj.final.phi)
    assert all(r.gauge_step_distance >= 0.0 for r in traj.records)


def _handmade_trajectory(distances):
    lat = Lattice((2, 2, 2, 2), 1.0)
    records = tuple(
        TrajectoryRecord(
            iter=i,
            energy=0.0,
            grad_norm=0.0,
            phi_linf=0.0,
            threshold=0.0,
            excess_measure=0.0,
            radial_excess=float(i),
            eta_norm=0.0,
            gauge_step_distance=d,
        )
        for i, d in enumerate([0.0] + list(distances))
    )
    return Trajectory(records, zero_cfg(lat), "max_iters")


def test_ps_diagnostics_requires_five_records():
    # now five records, four steps: fewer leave the last block empty, which
    # read as perfect contraction (ratio inf), even for growing steps
    for distances in ([0.1], [1.0, 5.0], [1.0, 2.0, 4.0]):
        with pytest.raises(ValueError):
            ps_diagnostics(_handmade_trajectory(distances))
    assert ps_diagnostics(_handmade_trajectory([1.0, 5.0, 2.0, 0.5])).quartile_sums == (1.0, 5.0, 2.0, 0.5)


def test_ps_diagnostics_constant_trajectory():
    traj = _handmade_trajectory([0.0] * 8)
    diag = ps_diagnostics(traj)
    assert diag.quartile_sums == (0.0, 0.0, 0.0, 0.0)
    assert diag.summable
    assert diag.contraction_ratio == np.inf
    assert (traj.records[0].radial_excess, traj.records[-1].radial_excess) == (0.0, 8.0)


def test_ps_diagnostics_flags_growing_steps_as_non_cauchy():
    diag = ps_diagnostics(_handmade_trajectory([2.0**k for k in range(8)]))
    assert not diag.summable
    assert diag.contraction_ratio < 1.0


def test_ps_diagnostics_on_converged_run(negative_curvature_run):
    _, traj = negative_curvature_run
    diag = ps_diagnostics(traj)
    assert diag.summable
    assert diag.contraction_ratio >= 10.0
    assert traj.records[-1].radial_excess <= 1e-6
    assert diag.quartile_sums[-1] <= diag.quartile_sums[0]


def test_numerical_gates_hold_at_n16():
    lat = Lattice((16, 16, 16, 16), 6.0 / 16)
    # full_gauge_fix raises unless its Poisson solve passes the residual gate
    result = swflow.checks.coulomb_residual(lat, 16, 1)
    assert result.passed, result.line()
    cfg = swflow.checks.mixed_flux_configuration(lat, 16, scalar_curvature=-np.ones(lat.dims))
    before = energy_weitzenbock(cfg)
    # _refix_gauge raises when the fixed energy drifts by more than 1e-10 relative
    held = swflow.optimize._refix_gauge(cfg, before)
    assert abs(held.energy - before) <= 1e-10 * abs(before)
    assert not np.array_equal(held.cfg.gauge.a, cfg.gauge.a)  # the fix did move the field


def test_descent_and_conjugate_reach_the_same_bump_minimizer():
    # zero flux, s = bump:-4,2 - 0.5 on a box of side 6: the minimizer sits
    # above the floor, so agreement here is not the trivial |phi|^2 = -s
    lat = Lattice((4, 4, 4, 4), 1.5)
    s = parse_scalar_curvature("bump:-4,2", lat) - 0.5
    cfg0 = random_configuration(lat, 5, (0.6, 0.9), scalar_curvature=s)
    finals = []
    for method in ("descent", "conjugate"):
        params = MinimizeParams(max_iters=2000, grad_tol=1e-6, method=method,
                                gaugefix_every=10, record_every=10000)
        traj = minimize(cfg0, params)
        assert traj.reason == "converged"
        finals.append(traj.final)
    e1, e2 = (energy_weitzenbock(c) for c in finals)
    assert abs(e1 - e2) <= 1e-10 * abs(e1)
    rho1, rho2 = (np.sum(np.abs(c.phi) ** 2, axis=-1) for c in finals)
    assert np.max(np.abs(rho1 - rho2)) <= 1e-6 * np.max(rho1)
    # F+ = 0 here, which leaves a global SU(2) rotation of phi that the U(1)
    # normal form does not remove (gauge_distance between the finals reads
    # about 1.5), so phi is compared after the best constant U(2) alignment
    fixed1, fixed2 = (full_gauge_fix(c)[0] for c in finals)
    assert np.max(np.abs(fixed1.gauge.a - fixed2.gauge.a)) <= 1e-6
    p1, p2 = fixed1.phi.reshape(-1, 2), fixed2.phi.reshape(-1, 2)
    u, _, vh = np.linalg.svd(p2.conj().T @ p1)
    assert np.linalg.norm(p1 - p2 @ (u @ vh)) <= 1e-6 * np.linalg.norm(p1)
