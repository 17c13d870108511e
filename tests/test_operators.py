"""Covariant differences, Dirac pair, curvature: covariance and adjointness."""

import numpy as np
import pytest

from oracles import (
    background_curvature, clifford_mult, clifford_mult_adjoint, flux_matrix, two_form_action,
)
import swflow.operators
from swflow.clifford import SIGMA
from swflow.fields import (
    Configuration,
    GaugeField,
    GaugeTransform,
    apply_gauge,
    random_configuration,
    transform_angle,
)
from swflow.lattice import PLANES, Lattice, d0, l2_inner, l2_norm, selfdual_project
from swflow.operators import (
    covariant_diff,
    covariant_diff_adjoint,
    curvature,
    curvature_at_sites,
    dirac,
    dirac_adjoint,
    link_phases,
)

rng = np.random.default_rng(20260404)


def covariant_laplacian(cfg, phi=None):
    """Connection Laplacian Delta_A phi = -grad* grad phi (negative semidefinite)."""
    return -covariant_diff_adjoint(cfg, covariant_diff(cfg, phi))


def random_cfg(lat, seed=3, flux=None, amp=(0.7, 1.0)):
    s = rng.standard_normal(lat.dims)
    return random_configuration(lat, seed, amp, flux=flux, scalar_curvature=s)


def random_spinor_field(lat):
    return rng.standard_normal(lat.dims + (2,)) + 1j * rng.standard_normal(
        lat.dims + (2,)
    )


def smooth_test_fields(n, with_gauge=True):
    """Trig-polynomial (a, phi) sampled on an n^4 grid of the unit torus."""
    lat = Lattice((n,) * 4, 1.0 / n)
    x = np.indices(lat.dims) * lat.spacing
    a = np.zeros(lat.dims + (4,))
    if with_gauge:
        a[..., 0] = 0.8 * np.sin(2 * np.pi * x[1]) + 0.3 * np.cos(2 * np.pi * x[3])
        a[..., 1] = 0.5 * np.cos(2 * np.pi * (x[0] + x[2]))
        a[..., 2] = -0.4 * np.sin(2 * np.pi * x[3]) + 0.2 * np.sin(2 * np.pi * x[0])
        a[..., 3] = 0.6 * np.cos(2 * np.pi * x[1]) * np.sin(2 * np.pi * x[2])
    phi = np.empty(lat.dims + (2,), dtype=complex)
    phi[..., 0] = np.exp(2j * np.pi * (x[0] + 2 * x[1])) + 0.5 * np.cos(
        2 * np.pi * x[2]
    )
    phi[..., 1] = 0.3 * np.exp(-2j * np.pi * (x[3] - x[0])) + 0.2j * np.sin(
        2 * np.pi * x[1]
    )
    gauge = GaugeField(a, np.zeros((4, 4), dtype=int))
    return Configuration(lat, gauge, phi, np.zeros(lat.dims))


def test_flat_constant_spinor_has_zero_derivative():
    lat = Lattice((3, 2, 3, 2), 0.8)
    phi = np.broadcast_to(np.array([1.0 + 2.0j, -0.5j]), lat.dims + (2,)).copy()
    cfg = Configuration(
        lat,
        GaugeField(np.zeros(lat.dims + (4,)), np.zeros((4, 4), dtype=int)),
        phi,
        np.zeros(lat.dims),
    )
    assert np.max(np.abs(covariant_diff(cfg))) == 0.0
    assert np.max(np.abs(covariant_laplacian(cfg))) == 0.0


def test_plane_wave_derivative_symbol():
    lat = Lattice((6, 3, 2, 2), 0.9)
    x1 = np.indices(lat.dims)[0]
    v = np.array([0.7 - 0.2j, 1.1j])
    phi = np.exp(2j * np.pi * x1 / 6)[..., None] * v
    cfg = Configuration(
        lat,
        GaugeField(np.zeros(lat.dims + (4,)), np.zeros((4, 4), dtype=int)),
        phi,
        np.zeros(lat.dims),
    )
    grad = covariant_diff(cfg)
    want = np.abs(np.exp(2j * np.pi / 6) - 1.0) / lat.spacing * np.linalg.norm(v)
    got = np.linalg.norm(grad[..., 0, :], axis=-1)
    assert np.allclose(got, want)
    assert np.allclose(grad[..., 1:, :], 0.0)


def test_link_phases_are_unit_modulus():
    lat = Lattice((4, 2, 3, 2), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1, f23=2))
    U = link_phases(cfg)
    assert np.allclose(np.abs(U), 1.0)


def test_covariant_diff_gauge_covariance():
    lat = Lattice((4, 3, 2, 3), 0.65)
    cfg = random_cfg(lat, flux=flux_matrix(f01=2, f13=-1))
    g = GaugeTransform(rng.standard_normal(lat.dims), (1, 0, -2, 1))
    phase = np.exp(-1j * transform_angle(lat, g))
    lhs = covariant_diff(apply_gauge(g, cfg))
    rhs = phase[..., None, None] * covariant_diff(cfg)
    assert np.allclose(lhs, rhs, atol=1e-12 * (1 + np.max(np.abs(rhs))))


def test_dirac_gauge_covariance():
    lat = Lattice((3, 4, 2, 2), 0.55)
    cfg = random_cfg(lat, flux=flux_matrix(f02=1))
    g = GaugeTransform(rng.standard_normal(lat.dims), (0, 2, 1, -1))
    phase = np.exp(-1j * transform_angle(lat, g))
    lhs = dirac(apply_gauge(g, cfg))
    rhs = phase[..., None] * dirac(cfg)
    scale = l2_norm(lat, rhs)
    assert l2_norm(lat, lhs - rhs) <= 1e-12 * scale


def dense_complex_matrix(op, shape):
    n = int(np.prod(shape))
    mat = np.zeros((n, n), dtype=complex)
    basis = np.zeros(n, dtype=complex)
    for j in range(n):
        basis[j] = 1.0
        mat[:, j] = op(basis.reshape(shape)).ravel()
        basis[j] = 0.0
    return mat


def test_dirac_adjoint_dense_oracle():
    lat = Lattice((2, 2, 2, 2), 0.8)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1))
    shape = lat.dims + (2,)
    # dirac maps W+ fields to W- fields of equal flat size; same h^4 weight
    # on both sides, so the adjoint's dense matrix is the conjugate transpose
    M = dense_complex_matrix(lambda u: dirac(cfg, phi=u), shape)
    Madj = dense_complex_matrix(lambda u: dirac_adjoint(cfg, u), shape)
    assert np.allclose(Madj, M.conj().T, atol=1e-12)


@pytest.mark.parametrize("corrupted", [False, True])
def test_dirac_pair_equals_the_per_direction_clifford_sums(monkeypatch, corrupted):
    sigma = SIGMA.copy()
    if corrupted:  # the broken table of test_check_fails_on_corrupted_clifford_table
        sigma[1, 0, 0] += 0.05
    # an asymmetric table pins the index layout of the fused products
    monkeypatch.setattr(swflow.operators, "SIGMA", sigma)
    lat = Lattice((3, 4, 2, 5), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1, f13=2, f23=-1))
    grad = covariant_diff(cfg)
    want = sum(clifford_mult(sigma, mu, grad[..., mu, :]) for mu in range(4))
    got = dirac(cfg)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    psi = random_spinor_field(lat)
    G = np.stack([clifford_mult_adjoint(sigma, mu, psi) for mu in range(4)], axis=-2)
    want = covariant_diff_adjoint(cfg, G)
    got = dirac_adjoint(cfg, psi)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_dirac_adjointness_random_pairs():
    lat = Lattice((3, 3, 3, 3), 0.7)
    cfg = random_cfg(lat, flux=flux_matrix(f12=1, f03=-2))
    for _ in range(20):
        phi = random_spinor_field(lat)
        psi = random_spinor_field(lat)
        lhs = l2_inner(lat, dirac(cfg, phi=phi), psi)
        rhs = l2_inner(lat, phi, dirac_adjoint(cfg, psi))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(lat, phi) * l2_norm(lat, psi)


def test_covariant_diff_adjointness_random_pairs():
    lat = Lattice((3, 2, 3, 2), 1.1)
    cfg = random_cfg(lat, flux=flux_matrix(f23=1))
    for _ in range(10):
        phi = random_spinor_field(lat)
        G = rng.standard_normal(lat.dims + (4, 2)) + 1j * rng.standard_normal(
            lat.dims + (4, 2)
        )
        lhs = l2_inner(lat, covariant_diff(cfg, phi), G)
        rhs = l2_inner(lat, phi, covariant_diff_adjoint(cfg, G))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(lat, phi) * l2_norm(lat, G)


def test_laplacian_energy_identity_and_sign():
    lat = Lattice((3, 4, 2, 3), 0.85)
    cfg = random_cfg(lat, flux=flux_matrix(f01=-1, f23=1))
    for _ in range(5):
        phi = random_spinor_field(lat)
        quad = l2_inner(lat, -covariant_laplacian(cfg, phi), phi)
        grad2 = l2_norm(lat, covariant_diff(cfg, phi)) ** 2
        assert quad.imag == pytest.approx(0.0, abs=1e-12 * grad2)
        assert quad.real == pytest.approx(grad2, rel=1e-12)
        assert quad.real >= 0.0


def test_curvature_of_pure_gauge_is_background():
    lat = Lattice((4, 3, 3, 2), 0.75)
    zeta = rng.standard_normal(lat.dims)
    flux = flux_matrix(f01=2, f12=-1)
    cfg = random_cfg(lat, flux=flux, amp=(0.0, 1.0))
    cfg = apply_gauge(GaugeTransform(zeta), cfg)  # a = d0 zeta
    F = curvature(cfg)
    assert np.allclose(F, background_curvature(lat, flux), atol=1e-12)


def test_curvature_gauge_invariant():
    lat = Lattice((3, 4, 2, 3), 0.95)
    cfg = random_cfg(lat, flux=flux_matrix(f03=1, f12=2))
    g = GaugeTransform(rng.standard_normal(lat.dims), (2, -1, 1, 0))
    F0 = curvature(cfg)
    F1 = curvature(apply_gauge(g, cfg))
    assert np.allclose(F0, F1, atol=1e-12 * (1 + np.max(np.abs(F0))))


def test_flux_quantization_of_total_curvature():
    lat = Lattice((4, 3, 5, 2), 0.6)
    flux = flux_matrix(f01=3, f23=-2, f13=1)
    cfg = random_cfg(lat, flux=flux)
    F = curvature(cfg)
    h2 = lat.spacing**2
    for i, (mu, nu) in enumerate(PLANES):
        idx = [0, 0, 0, 0]
        idx[mu] = slice(None)
        idx[nu] = slice(None)
        total = h2 * float(np.sum(F[(*idx, i)]))
        assert total == pytest.approx(2.0 * np.pi * flux[mu, nu], abs=1e-10)


def test_curvature_at_sites_matches_direct_average():
    lat = Lattice((3, 2, 4, 2), 0.8)
    cfg = random_cfg(lat, flux=flux_matrix(f02=1))
    F = curvature(cfg)
    Fs = curvature_at_sites(cfg)
    for _ in range(8):
        x = tuple(rng.integers(0, n) for n in lat.dims)
        for i, (mu, nu) in enumerate(PLANES):
            corners = []
            for dmu in (0, -1):
                for dnu in (0, -1):
                    y = list(x)
                    y[mu] = (y[mu] + dmu) % lat.dims[mu]
                    y[nu] = (y[nu] + dnu) % lat.dims[nu]
                    corners.append(F[tuple(y) + (i,)])
            assert Fs[x + (i,)] == pytest.approx(np.mean(corners))


def test_selfdual_part_of_site_curvature_is_selfdual():
    from swflow.lattice import hodge_star2

    lat = Lattice((3, 3, 2, 2), 0.7)
    cfg = random_cfg(lat)
    P = selfdual_project(curvature_at_sites(cfg))
    assert np.allclose(hodge_star2(P), P)


def test_flat_dirac_norm_identity_under_refinement():
    # |D phi|^2 = |grad phi|^2 holds in the continuum; the forward-stencil
    # cross terms break it at finite h, vanishing first order in h
    defect = []
    for n in (4, 8, 16):
        cfg = smooth_test_fields(n, with_gauge=False)
        lat = cfg.lattice
        nd = l2_norm(lat, dirac(cfg)) ** 2
        ng = l2_norm(lat, covariant_diff(cfg)) ** 2
        defect.append(abs(nd - ng) / ng)
    assert defect[0] / defect[1] >= 1.5
    assert defect[1] / defect[2] >= 1.5


def test_weitzenbock_identity_under_refinement():
    # D*D phi vs -Delta_A phi + (i/2) F.phi with the site-averaged curvature;
    # the n=4 grid is at Nyquist for the (1,2) mode, so start the ladder at 8
    resid = []
    for n in (8, 16, 32):
        cfg = smooth_test_fields(n)
        lat = cfg.lattice
        lhs = dirac_adjoint(cfg, dirac(cfg))
        rhs = -covariant_laplacian(cfg) + 0.5j * two_form_action(curvature_at_sites(cfg), cfg.phi)
        resid.append(l2_norm(lat, lhs - rhs) / l2_norm(lat, cfg.phi))
    assert resid[0] / resid[1] >= 1.5
    assert resid[1] / resid[2] >= 1.5


def spinor_plaquettes(cfg):
    """U_mu(x) U_nu(x + e_mu) conj(U_mu(x + e_nu)) conj(U_nu(x)) per plane, shape dims + (6,)."""
    U = link_phases(cfg)
    return np.stack([
        U[..., mu] * np.roll(U[..., nu], -1, axis=mu)
        * np.conj(np.roll(U[..., mu], -1, axis=nu)) * np.conj(U[..., nu])
        for mu, nu in PLANES
    ], axis=-1)


@pytest.mark.parametrize("dims, spacing, plane, n", [
    ((6, 6, 6, 6), 1.0, (0, 1), n) for n in (1, -1, 3, -3, 2, 0)
] + [
    ((3, 4, 2, 5), 0.7, plane, n) for plane in ((0, 1), (1, 3), (2, 3)) for n in (1, -3, 2)
])
def test_odd_flux_leaves_a_pi_defect_in_the_spinor_holonomy(dims, spacing, plane, n):
    # the spinor sees half the determinant-line angles: a plane's total spinor
    # holonomy pi n is not a multiple of 2 pi for odd n, so one plaquette per
    # (x_rho, x_sigma) slice, at the wrap corner, carries an extra pi
    mu, nu = plane
    lat = Lattice(dims, spacing)
    cfg = random_configuration(lat, 0, (0.0, 0.0), flux=flux_matrix(**{f"f{mu}{nu}": n}))
    W = spinor_plaquettes(cfg)
    for i, (m, v) in enumerate(PLANES):
        uniform = np.exp(1j * np.pi * cfg.gauge.flux[m, v] / (dims[m] * dims[v]))
        off = np.abs(W[..., i] - uniform) > 1e-12
        assert np.all(np.abs(W[..., i][off] + uniform) <= 1e-12)  # off by exactly pi
        defects = lat.nsites // (dims[m] * dims[v]) if (m, v) == plane and n % 2 else 0
        assert np.count_nonzero(off) == defects
