"""End-to-end acceptance suite.

One test per shipped guarantee, each at its contractual tolerance:
algebraic exactness, gauge invariance, gradient correctness, the gauge
normal form, the Sobolev bound with spectrally derived constants,
refinement agreement of the two energy forms, the maximum principle,
the vanishing theorem for positive curvature, convergence of the
gauge-fixed flow to a common representative, and flux quantization.

These run the public API only; the per-module tests cover internals.
The invariants that `swflow check` also measures come from the registry
in swflow.checks, called here at the suite's own sizes, seeds and draw
counts.
"""

import numpy as np

from swflow import checks
from swflow.checks import mixed_flux_configuration
from swflow.clifford import SIGMA
from swflow.fields import Configuration, GaugeTransform, apply_gauge, random_configuration
from swflow.gaugefix import full_gauge_fix, gauge_distance
from swflow.lattice import Lattice, codiff1, l2_norm, linf_norm
from swflow.optimize import MinimizeParams, minimize, ps_diagnostics


def constant_s(cfg, value):
    s = value * np.ones(cfg.lattice.dims)
    return Configuration(cfg.lattice, cfg.gauge, cfg.phi, s, cfg.seed)


def assert_holds(result):
    assert result.passed, result.line()


def test_01_algebraic_identities_exact():
    lat = Lattice((3, 3, 3, 3), 0.7)
    cfg = mixed_flux_configuration(lat, 11)
    results = [
        checks.clifford_relation_defect(SIGMA),
        checks.exterior_derivative_squares_to_zero(lat, 20260410, 100),
        checks.quadratic_form_norm_identity(lat.dims, 20260410, 100),
    ]
    for i, name in enumerate(checks.ADJOINT_PAIRS):
        results.append(checks.adjoint_defect(name, cfg, 200 + i, 100))
    for result in results:
        assert_holds(result)


def test_02_energy_gauge_invariance():
    lat = Lattice((4, 4, 4, 4), 0.7)
    assert_holds(checks.energy_gauge_invariance(mixed_flux_configuration(lat, 21), 20260411, 50))


def test_03_gradient_matches_finite_differences():
    lat = Lattice((3, 3, 3, 3), 0.8)
    rng = np.random.default_rng(20260412)
    s = -1.0 + 0.5 * rng.standard_normal(lat.dims)
    cfg = mixed_flux_configuration(lat, 31, scalar_curvature=s)
    assert_holds(checks.gradient_matches_finite_differences(cfg, 32, 50))


def test_04_gauge_normal_form():
    lat = Lattice((4, 4, 4, 4), 0.9)
    cfg = mixed_flux_configuration(lat, 41)
    # push the harmonic part outside the fundamental domain so the
    # integer-reduction step has real work to do
    a = cfg.gauge.a.copy()
    a[..., 1] += 2.6 * 2.0 * np.pi / (lat.dims[1] * lat.spacing)
    cfg = cfg.replace(a=a)

    fixed, rep = full_gauge_fix(cfg)
    assert rep.residual <= checks.COULOMB_TOL
    assert float(l2_norm(lat, codiff1(lat, fixed.gauge.a))) <= checks.COULOMB_TOL
    half_width = np.pi / (np.array(lat.dims) * lat.spacing)
    assert np.all(np.abs(rep.harmonic) <= half_width + checks.IDENTITY_TOL)

    again, rep2 = full_gauge_fix(fixed)
    assert rep2.winding == (0, 0, 0, 0)
    assert float(np.max(np.abs(again.gauge.a - fixed.gauge.a))) <= checks.GAUGE_TOL

    # a pure-gauge connection must come back as a = 0 exactly
    rng = np.random.default_rng(20260413)
    zero = random_configuration(lat, 42, (0.0, 0.8))
    pure = apply_gauge(GaugeTransform(1.3 * rng.standard_normal(lat.dims), (1, 0, -2, 0)), zero)
    reduced, _ = full_gauge_fix(pure)
    assert float(np.max(np.abs(reduced.gauge.a))) <= checks.GAUGE_TOL


def test_05_sobolev_bound_from_spectral_constants():
    for dims, spacing in [((3, 3, 3, 3), 1.0 / 3.0), ((4, 4, 4, 4), 0.5)]:
        assert_holds(checks.hodge_sobolev_bound(Lattice(dims, spacing), 5000, 100))


def test_06_energy_forms_agree_under_refinement():
    assert_holds(checks.weitzenbock_gap_contraction())


def test_07_maximum_principle():
    lat = Lattice((6, 6, 6, 6), 1.0)
    base = random_configuration(lat, 77, (0.3, 1.0))
    phi = base.phi * (3.0 / linf_norm(lat, base.phi))
    cfg = constant_s(base.replace(phi=phi), -1.0)
    assert abs(linf_norm(lat, cfg.phi) - 3.0) <= 1e-12

    traj = minimize(
        cfg,
        MinimizeParams(
            max_iters=4000, grad_tol=1e-4, method="conjugate", gaugefix_every=10
        ),
    )
    final = traj.records[-1]
    assert traj.reason == "converged"
    assert final.threshold == 1.0
    assert final.phi_linf <= 1.05
    assert final.radial_excess <= 1e-6


def test_08_vanishing_for_positive_curvature():
    lat = Lattice((4, 4, 4, 4), 1.0)
    cfg = constant_s(random_configuration(lat, 88, (0.2, 0.4)), 1.0)
    traj = minimize(
        cfg,
        MinimizeParams(
            max_iters=3000, grad_tol=1e-8, method="conjugate", gaugefix_every=10
        ),
    )
    final = traj.records[-1]
    assert traj.reason == "converged"
    assert final.phi_linf <= 1e-3
    assert abs(final.energy) <= 1e-6


def test_09_gauge_equivalent_runs_converge_together():
    lat = Lattice((3, 3, 3, 3), 1.5)
    base = random_configuration(lat, 99, (0.4, 1.1))
    phi = base.phi * (2.0 / linf_norm(lat, base.phi))
    cfg = constant_s(base.replace(phi=phi), -1.0)
    rng = np.random.default_rng(20260414)
    g = GaugeTransform(0.7 * rng.standard_normal(lat.dims), (2, -1, 0, 1))

    params = MinimizeParams(max_iters=4000, grad_tol=1e-5, gaugefix_every=1)
    runs = [minimize(cfg, params), minimize(apply_gauge(g, cfg), params)]
    for traj in runs:
        assert traj.reason == "converged"
        diag = ps_diagnostics(traj)
        assert diag.summable
        assert diag.contraction_ratio >= 10.0
    assert gauge_distance(runs[0].final, runs[1].final) <= 1e-6


def test_10_flux_quantization():
    lat = Lattice((4, 4, 4, 4), 0.5)
    flux = np.zeros((4, 4), dtype=int)
    flux[0, 1], flux[1, 0] = 1, -1
    # the background alone, then with an arbitrary fluctuation on top,
    # which must not move any plane-slice sum
    for amplitudes in ((0.0, 0.0), (0.9, 0.0)):
        cfg = random_configuration(lat, 1010, amplitudes, flux=flux)
        assert_holds(checks.flux_quantization(cfg))
