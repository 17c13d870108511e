"""Energies, exact gradient, lower bound, excess diagnostics."""

import itertools

import numpy as np
import pytest

from oracles import (
    SEED, background_curvature, flux_matrix, gaussian, l4_norm, pairing, random_cfg, smooth_fields,
    zero_cfg,
)
from swflow import checks, functional
from swflow.fields import GaugeTransform, apply_gauge, transform_angle
from swflow.functional import (
    energy_first_order,
    energy_lower_bound,
    energy_weitzenbock,
    excess_report,
    gradient,
    sw_equation_residual,
)
from swflow.lattice import Lattice, codiff2, l2_norm, selfdual_project
from swflow.operators import (
    covariant_diff, covariant_diff_adjoint, curvature, curvature_at_sites,
)


def constant_phi_cfg(lat, v, s_value=0.0):
    phi = np.broadcast_to(np.asarray(v, dtype=complex), lat.dims + (2,)).copy()
    return zero_cfg(lat, s=np.full(lat.dims, s_value)).replace(phi=phi)


def test_zero_configuration():
    lat = Lattice((3, 2, 3, 2), 0.8)
    cfg = zero_cfg(lat)
    assert energy_weitzenbock(cfg) == 0.0
    assert energy_first_order(cfg) == 0.0
    g = gradient(cfg)
    assert np.all(g.da == 0.0) and np.all(g.dphi == 0.0)
    assert g.norm() == 0.0


def test_background_only_energy_matches_direct_sum():
    lat = Lattice((4, 4, 3, 2), 1.0)
    flux = flux_matrix(f01=1)
    cfg = zero_cfg(lat, flux=flux)
    want = l2_norm(lat, selfdual_project(background_curvature(lat, flux))) ** 2
    assert energy_weitzenbock(cfg) == pytest.approx(want, rel=1e-13)
    # site averaging of a constant background changes nothing
    assert energy_first_order(cfg) == pytest.approx(want, rel=1e-13)


def test_flat_weitzenbock_cross_check_against_norms():
    lat = Lattice((3, 3, 2, 3), 0.75)
    cfg = random_cfg(lat, amp=(0.0, 1.2), s=np.zeros(lat.dims))
    want = (
        l2_norm(lat, covariant_diff(cfg)) ** 2 + l4_norm(lat, cfg.phi) ** 4 / 8.0
    )
    assert energy_weitzenbock(cfg) == pytest.approx(want, rel=1e-13)


def test_first_order_energy_with_zero_phi():
    lat = Lattice((3, 4, 2, 3), 0.9)
    cfg = random_cfg(lat, flux=flux_matrix(f23=2), amp=(0.5, 0.0))
    want = l2_norm(lat, selfdual_project(curvature_at_sites(cfg))) ** 2
    assert energy_first_order(cfg) == pytest.approx(want, rel=1e-13)


def test_energies_gauge_invariant():
    lat = Lattice((3, 4, 2, 3), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1, f23=-1))
    result = checks.energy_gauge_invariance(cfg, SEED, 3)
    assert result.passed, result.line()


def test_gradient_constant_phi_flat():
    lat = Lattice((3, 2, 2, 3), 1.1)
    v = np.array([0.8 - 0.3j, 0.4j])
    cfg = constant_phi_cfg(lat, v)
    g = gradient(cfg)
    want = 0.25 * float(np.sum(np.abs(v) ** 2)) * cfg.phi
    assert np.allclose(g.dphi, want, atol=1e-14)
    assert np.allclose(g.da, 0.0, atol=1e-14)


def test_gradient_vanishes_at_critical_pair():
    # s = -1 constant, |phi| = 1 constant, a = 0: exact critical point
    lat = Lattice((3, 3, 2, 2), 0.8)
    cfg = constant_phi_cfg(lat, [1.0, 0.0], s_value=-1.0)
    g = gradient(cfg)
    assert np.max(np.abs(g.da)) < 1e-14
    assert np.max(np.abs(g.dphi)) < 1e-14
    assert energy_weitzenbock(cfg) == pytest.approx(energy_lower_bound(cfg), rel=1e-13)


def test_gradient_equivariance():
    lat = Lattice((3, 2, 4, 2), 0.85)
    cfg = random_cfg(lat, flux=flux_matrix(f12=1))
    g = GaugeTransform(np.random.default_rng(SEED).standard_normal(lat.dims), (0, 1, -1, 2))
    phase = np.exp(-1j * transform_angle(lat, g))
    before = gradient(cfg)
    after = gradient(apply_gauge(g, cfg))
    scale = 1.0 + before.norm()
    assert np.max(np.abs(after.da - before.da)) <= 1e-10 * scale
    assert np.max(np.abs(after.dphi - phase[..., None] * before.dphi)) <= 1e-10 * scale
    assert after.norm() == pytest.approx(before.norm(), rel=1e-10)


def test_energy_lower_bound_on_random_fields():
    lat = Lattice((3, 2, 3, 2), 0.75)
    s = 2.0 * np.random.default_rng(SEED).standard_normal(lat.dims)
    bound = energy_lower_bound(zero_cfg(lat, s=s))
    assert bound <= 0.0
    for seed in range(30):
        cfg = random_cfg(lat, seed=seed, amp=(0.8, 1.3), s=s)
        assert energy_weitzenbock(cfg) >= bound - 1e-12 * (1.0 + abs(bound))


def test_energy_lower_bound_attained():
    lat = Lattice((3, 3, 2, 2), 0.9)
    c = 1.7
    cfg = constant_phi_cfg(lat, [np.sqrt(c), 0.0], s_value=-c)
    assert energy_weitzenbock(cfg) == pytest.approx(energy_lower_bound(cfg), rel=1e-13)


def test_sw_equation_residual_pieces():
    lat = Lattice((3, 2, 4, 2), 0.8)
    zero = zero_cfg(lat)
    assert sw_equation_residual(zero) == (0.0, 0.0)
    flux = flux_matrix(f01=2)
    no_phi = random_cfg(lat, flux=flux, amp=(0.4, 0.0))
    r1, r2 = sw_equation_residual(no_phi)
    assert r1 == 0.0
    fplus = selfdual_project(curvature_at_sites(no_phi))
    assert r2 == pytest.approx(l2_norm(lat, fplus) ** 2, rel=1e-13)
    cfg = random_cfg(lat, flux=flux)
    r1, r2 = sw_equation_residual(cfg)
    assert r1 + r2 == pytest.approx(energy_first_order(cfg), rel=1e-13)
    assert r1 >= 0.0 and r2 >= 0.0


def test_first_order_agrees_with_weitzenbock_under_refinement():
    gaps = []
    for n in (8, 16, 32):
        cfg = smooth_fields(n)
        gaps.append(abs(energy_first_order(cfg) - energy_weitzenbock(cfg)))
    assert gaps[0] / gaps[1] >= 1.5
    assert gaps[1] / gaps[2] >= 1.5


def test_excess_report_below_threshold():
    lat = Lattice((3, 2, 2, 3), 0.8)
    cfg = constant_phi_cfg(lat, [0.3, 0.0], s_value=-1.0)  # |phi| < 1
    cfg = cfg.replace(a=gaussian(lat.dims + (4,), 3))  # so the held covariant difference is not 0
    for grad in (None, covariant_diff(cfg)):
        rep = excess_report(cfg, grad)
        assert rep.threshold == 1.0
        assert rep.excess_measure == 0.0
        assert rep.radial_excess == 0.0
        assert rep.eta_norm == 0.0
        assert not np.signbit([rep.excess_measure, rep.radial_excess, rep.eta_norm]).any()


def test_excess_report_constant_double_unit():
    lat = Lattice((3, 3, 2, 2), 0.7)
    unit = np.array([1.0, 0.0])
    cfg = constant_phi_cfg(lat, 2.0 * unit, s_value=-1.0)
    rep = excess_report(cfg)
    assert rep.threshold == 1.0
    assert rep.excess_measure == pytest.approx(lat.volume)
    assert rep.radial_excess == pytest.approx(0.0, abs=1e-14)
    # eta = phi/2 is constant, so its Sobolev norm is its L^2 norm
    assert rep.eta_norm**2 == pytest.approx(
        l2_norm(lat, 0.5 * cfg.phi) ** 2, rel=1e-13
    )


def test_excess_report_radial_term_direct_sum():
    lat = Lattice((2, 2, 2, 3), 0.85)
    cfg = random_cfg(lat, seed=13, s=np.full(lat.dims, -0.5))
    rep = excess_report(cfg)
    grad = covariant_diff(cfg)
    absphi = np.linalg.norm(cfg.phi, axis=-1)
    total = 0.0
    count = 0
    for x in np.ndindex(lat.dims):
        if absphi[x] <= rep.threshold:
            continue
        count += 1
        nu = cfg.phi[x] / absphi[x]
        for mu in range(4):
            total += float(np.real(np.sum(grad[x + (mu,)] * np.conj(nu)))) ** 2
    assert rep.excess_measure == pytest.approx(lat.spacing**4 * count)
    assert rep.radial_excess == pytest.approx(lat.spacing**4 * total, rel=1e-12)


def test_excess_report_zero_threshold():
    lat = Lattice((2, 3, 2, 2), 0.9)
    cfg = random_cfg(lat, s=np.abs(np.random.default_rng(SEED).standard_normal(lat.dims)))
    rep = excess_report(cfg)
    assert rep.threshold == 0.0
    assert rep.excess_measure == pytest.approx(lat.volume)  # generic phi never 0


def test_gradient_is_bit_identical_to_separate_operator_traversals():
    # reference: every piece from the public operators, each building its
    # own link phases, in the order of the formulas in gradient's docstring.
    # The evaluation's per-site sums must take numpy's order on every shape;
    # a site's last bit reaches the energy in about one draw in ten, hence 40
    for dims, seed in itertools.product(((3, 4, 2, 5), (2, 2, 2, 2), (3, 3, 3, 3)), range(40)):
        lat = Lattice(dims, 0.7)
        s = np.random.default_rng(seed).standard_normal(dims)
        cfg = random_cfg(lat, seed=seed, flux=flux_matrix(p01=1, p13=2, p23=-1), s=s)
        grad = np.ascontiguousarray(covariant_diff(cfg))  # site-major, so the sums below take numpy's order
        phi2 = np.sum(np.abs(cfg.phi) ** 2, axis=-1)
        dphi = covariant_diff_adjoint(cfg, grad) + 0.25 * (cfg.scalar_curvature + phi2)[..., None] * cfg.phi
        da = 4.0 * codiff2(lat, selfdual_project(curvature(cfg)))
        da += 2.0 * np.einsum("...mc,...c->...m", grad, np.conj(cfg.phi)).imag
        g = gradient(cfg)
        assert np.array_equal(g.da, da)
        assert np.array_equal(g.dphi, dphi)
        assert np.array_equal(functional._evaluate(cfg).phi2, phi2)
        fplus2 = np.sum(selfdual_project(curvature(cfg)) ** 2, axis=-1)
        dens = (np.sum(np.abs(grad) ** 2, axis=(-2, -1)) + fplus2
                + 0.25 * cfg.scalar_curvature * phi2 + 0.125 * phi2**2)
        assert energy_weitzenbock(cfg) == float(lat.spacing**4 * np.sum(dens))


def test_tangent_algebra_is_bit_equal_to_the_array_expressions_it_replaced():
    # mixed flux and h != 1: dot is the pairing swflow first shipped, and each
    # operator the descent loop's array expression, bit for bit
    lat = Lattice((3, 4, 2, 5), 0.7)
    g, h = (gradient(random_cfg(lat, seed=seed, flux=flux_matrix(p01=1, p13=2, p23=-1))) for seed in (41, 42))
    d = functional.Gradient(lat, gaussian(lat.dims + (4,), 43), gaussian(lat.dims + (2,), 44, complex_=True))

    def same(x, y):
        return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))

    for u, v in ((g, d), (d, g), (g, h), (g, g - h)):
        assert same(u.dot(v), pairing(u, v))
    for beta in (0.0, max(0.0, g.dot(g - h) / h.norm() ** 2), 2.5):
        cg = beta * d - g
        assert same(cg.da, -g.da + beta * d.da) and same(cg.dphi, -g.dphi + beta * d.dphi)
    steepest, diff = -1.0 * g, g - h
    assert same(steepest.da, -1.0 * g.da) and same(steepest.dphi, -1.0 * g.dphi)
    assert same(diff.da, g.da - h.da) and same(diff.dphi, g.dphi - h.dphi)
    assert steepest.lattice is diff.lattice is lat


def test_line_floor_decides_without_building_the_trial(monkeypatch):
    lat = Lattice((3, 4, 2, 5), 0.7)
    cfg = random_cfg(lat, seed=31, flux=flux_matrix(p01=1, p13=2, p23=-1))
    base = functional._evaluate(cfg)
    direction = -1.0 * gradient(cfg, base)
    floor = functional._line_floor(cfg, direction, base.fplus)
    steps = [2.0**-k for k in range(-6, 12)]
    trials = [functional._evaluate(cfg._trial(cfg.gauge.a + t * direction.da,
                                              cfg.phi + t * direction.dphi)) for t in steps]
    h4 = lat.spacing**4
    for t, full in zip(steps, trials):
        partial = h4 * np.sum(np.sum(full.fplus**2, axis=-1) + 0.25 * cfg.scalar_curvature * full.phi2
                              + 0.125 * full.phi2**2)
        assert floor(t) < partial < full.energy

    def unexpected(*args, **kwargs):
        raise AssertionError("built a piece of the trial")

    for name in ("link_phases", "covariant_diff", "curvature", "d1", "selfdual_project"):
        monkeypatch.setattr(functional, name, unexpected)
    for t, full in zip(steps, trials):
        # skipped below the bound, which the energy exceeds; never skipped at the energy
        assert full.energy > np.nextafter(floor(t), -np.inf)
        assert not floor(t) > full.energy
    # the long steps of a line search are decided doomed without building them
    assert floor(steps[0]) > base.energy and floor(steps[1]) > base.energy
