"""The invariant registry and the field layout over lattice shapes: N = 2,
anisotropic and odd sides."""

import dataclasses

import numpy as np
import pytest

from oracles import flux_matrix, random_cfg, zero_cfg
from swflow import checks, functional
from swflow.clifford import quadratic_form
from swflow.fields import apply_gauge, random_configuration
from swflow.lattice import Lattice, codiff1, d1, l2_inner
from swflow.operators import covariant_diff, covariant_diff_adjoint, curvature, dirac_adjoint, link_phases

SHAPES = [(2, 2, 2, 2), (3, 4, 2, 5), (5, 3, 3, 2)]


def mixed_flux(lat, seed):
    return random_configuration(lat, seed, (0.6, 0.9), flux=flux_matrix(f01=1, f13=2, f23=-1))


@pytest.mark.parametrize("dims", SHAPES)
def test_registry_holds_over_lattice_shapes(dims):
    lat = Lattice(dims, 0.7)
    cfg = mixed_flux(lat, 7)
    results = [checks.exterior_derivative_squares_to_zero(lat, 1, 10)]
    for i, name in enumerate(checks.ADJOINT_PAIRS):
        results.append(checks.adjoint_defect(name, cfg, 10 + i, 10))
    results += [checks.energy_gauge_invariance(cfg, 20, 10), checks.flux_quantization(cfg)]
    for result in results:
        assert result.passed, result.line()


@pytest.mark.parametrize("dims", SHAPES)
def test_component_built_fields_have_contiguous_components(dims):
    # the layout rule in the lattice docstring: public shape, component-major memory
    lat = Lattice(dims, 0.7)
    cfg = mixed_flux(lat, 7)
    fields = {"d1": (d1(lat, cfg.gauge.a), (6,)), "link_phases": (link_phases(cfg), (4,)),
              "covariant_diff": (covariant_diff(cfg), (4, 2)), "curvature": (curvature(cfg), (6,))}
    for name, (field, fiber) in fields.items():
        assert field.shape == dims + fiber, name
        # F[..., i], U[..., mu], grad[..., mu, :]
        assert all(c.flags.c_contiguous for c in np.moveaxis(field, 4, 0)), name


@pytest.mark.parametrize("refused, message", [
    (lambda cfg: covariant_diff_adjoint(cfg, np.zeros(cfg.lattice.dims + (4, 1))), "G must have shape"),
    (lambda cfg: dirac_adjoint(cfg, np.zeros(cfg.lattice.dims + (4,))), "psi must have shape"),
    (lambda cfg: l2_inner(cfg.lattice, cfg.phi, cfg.phi[..., :1]), "v must have shape"),
    (lambda cfg: quadratic_form(cfg.gauge.a), "spinor fiber must have 2 components"),
    (lambda cfg: checks.run_checks("slow"), "level must be fast or full"),
], ids=["covariant_diff_adjoint", "dirac_adjoint", "l2_inner", "quadratic_form", "run_checks"])
def test_wrong_fields_and_levels_are_refused_by_name(refused, message):
    cfg = random_cfg(Lattice((2, 3, 2, 2), 0.7))
    with pytest.raises(ValueError, match=message):
        refused(cfg)


def test_registry_fails_on_broken_operators(monkeypatch):
    lat = Lattice((3, 4, 2, 5), 0.7)
    cfg = mixed_flux(lat, 7)

    def scaled(op):
        return lambda *args: 1.001 * op(*args)

    def without_winding_three(g, c):  # a winding of +-3 moves phi but no longer a
        moved = apply_gauge(g, c)
        a = moved.gauge.a.copy()
        for mu, k in enumerate(g.winding):
            if abs(k) == 3:
                a[..., mu] -= 2.0 * np.pi * k / (lat.dims[mu] * lat.spacing)
        return moved.replace(a=a)

    # name in checks -> (its broken stand-in, the measure that must then fail)
    broken = {
        "codiff1": (scaled(codiff1), lambda: checks.adjoint_defect("adjoint_d0_codiff1", lat, 1, 3)),
        "covariant_diff_adjoint": (scaled(covariant_diff_adjoint),
                                   lambda: checks.adjoint_defect("adjoint_covariant_diff", cfg, 1, 3)),
        "dirac_adjoint": (scaled(dirac_adjoint), lambda: checks.adjoint_defect("adjoint_dirac", cfg, 1, 3)),
        "quadratic_form": (scaled(quadratic_form), lambda: checks.quadratic_form_norm_identity((), 1, 3)),
        "energy_weitzenbock": (lambda c: functional.energy_weitzenbock(c) + 1e-6 * np.sum(c.gauge.a**2),
                               lambda: checks.energy_gauge_invariance(cfg, 1, 3)),
        "apply_gauge": (without_winding_three, lambda: checks.energy_gauge_invariance(cfg, 1, 3)),
        "energy_lower_bound": (lambda c: functional.energy_lower_bound(c) + 1.0,
                               lambda: checks.energy_lower_bound_margin(lat, 1, 3, 2)),
        "curvature": (lambda c: curvature(c) + 1e-3, lambda: checks.flux_quantization(cfg)),
    }
    # a floor (negative here) raised by a billionth of itself must fail too
    raised = (lambda c: functional.energy_lower_bound(c) * (1.0 - 1e-9),
              lambda: checks.energy_lower_bound_margin(lat, 1, 3, 2))
    for name, (stand_in, measure) in [*broken.items(), ("energy_lower_bound", raised)]:
        assert measure().passed, name
        with monkeypatch.context() as patch:
            patch.setattr(checks, name, stand_in)
            result = measure()
        assert not result.passed, result.line()


def test_a_nan_draw_fails_its_measure_and_zero_draws_report_the_start(monkeypatch):
    lat = Lattice((3, 4, 2, 5), 0.7)
    calls = []

    def d1_nan_on_second_call(lat, a):
        calls.append(None)
        return d1(lat, a) * (np.nan if len(calls) == 2 else 1.0)

    assert checks.exterior_derivative_squares_to_zero(lat, 1, 0).measured == 0.0
    assert checks.energy_lower_bound_margin(lat, 1, 0, 2).measured == 0.0
    monkeypatch.setattr(checks, "d1", d1_nan_on_second_call)
    result = checks.exterior_derivative_squares_to_zero(lat, 1, 3)
    assert len(calls) == 3 and np.isnan(result.measured) and not result.passed


def test_every_check_passes_when_measured_is_at_most_its_tolerance():
    for result in checks.run_checks("full"):
        assert [f.name for f in dataclasses.fields(result)] == ["name", "measured", "tolerance"]
        assert result.passed == (result.measured <= result.tolerance), result.line()
        assert "(required <= " in result.line()


@pytest.mark.parametrize("coarse, fine, passes", [
    (1e-3, 0.0, True),  # a vanishing fine gap is the best refinement there can be
    (0.0, 0.0, True),
    (1e-3, 1e-3, False),  # equal gaps did not contract
    (1e-3, 0.7e-3, False),  # contracted, but by less than 1.5
    (0.0, 1e-3, False),  # only the coarse gap vanishes: the ratio is inf
], ids=["fine-zero", "both-zero", "equal", "too-little", "coarse-zero"])
def test_refinement_study_reports_the_fine_gap_over_the_coarse_one(monkeypatch, coarse, fine, passes):
    gaps = {4: coarse, 8: fine}
    monkeypatch.setattr(checks, "energy_weitzenbock", lambda cfg: 1.0)
    monkeypatch.setattr(checks, "energy_first_order", lambda cfg: 1.0 + gaps[cfg.lattice.dims[0]])
    result = checks.weitzenbock_gap_contraction()
    assert result.passed == passes, result.line()
    assert result.tolerance == 1 / 1.5


def test_hodge_sobolev_bound_holds_at_12():
    # out of `swflow check --level full`, whose run time the benchmark measures
    result = checks.hodge_sobolev_bound(Lattice((12, 12, 12, 12), 0.5), 400, 10)
    assert result.passed, result.line()


def test_gradient_measure_passes_on_a_random_configuration():
    lat = Lattice((3, 3, 3, 3), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f03=1))
    err = checks.gradient_matches_finite_differences(cfg, 5, 50).measured
    assert err <= 1e-5


def test_gradient_measure_reads_zero_where_both_sides_vanish():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = zero_cfg(lat)
    assert checks.gradient_matches_finite_differences(cfg, 1, 10).measured == 0.0


@pytest.mark.parametrize("part", ["da", "re_dphi", "im_dphi"])
def test_gradient_measure_sees_each_perturbation_kind(monkeypatch, part):
    # a gradient wrong by 1% in one part only must fail the 50-draw check
    lat = Lattice((3, 3, 3, 3), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f03=1))
    exact = functional.gradient

    def skewed(c, held=None):
        g = exact(c, held)
        if part == "da":
            return functional.Gradient(g.lattice, 1.01 * g.da, g.dphi)
        if part == "re_dphi":
            return functional.Gradient(g.lattice, g.da, 1.01 * g.dphi.real + 1j * g.dphi.imag)
        return functional.Gradient(g.lattice, g.da, g.dphi.real + 1.01j * g.dphi.imag)

    monkeypatch.setattr(checks, "gradient", skewed)
    assert checks.gradient_matches_finite_differences(cfg, 5, 50).measured > checks.GRADIENT_TOL


def test_gradient_measure_is_deterministic():
    lat = Lattice((3, 2, 3, 2), 0.8)
    cfg = random_cfg(lat, seed=4)
    a = checks.gradient_matches_finite_differences(cfg, 3, 20).measured
    b = checks.gradient_matches_finite_differences(cfg, 3, 20).measured
    assert a == b
