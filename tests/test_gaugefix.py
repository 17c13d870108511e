"""Gauge normalization: Coulomb step, winding step, orbit distance.

The Coulomb-step tests feed full_gauge_fix divergence-free or pure-gauge
fields whose harmonic part is inside the fundamental domain, so its winding
step is skipped; the winding-step tests feed constant fields, whose Poisson
source is exactly zero, so its Coulomb step is the identity."""

import numpy as np
import pytest

from oracles import constant_s, flux_matrix, gaussian, zero_cfg
from swflow.fields import GaugeTransform, apply_gauge, random_configuration
from swflow.functional import energy_first_order, energy_weitzenbock
from swflow.gaugefix import (
    _round_half_up,
    full_gauge_fix,
    gauge_distance,
    hodge_constants,
)
from swflow.lattice import (
    Lattice,
    codiff1,
    codiff2,
    d0,
    d1,
    l2_norm,
    linf_norm,
    sobolev12_norm,
)
from swflow.operators import curvature

def coulomb_cfg(lat, seed):
    """Configuration whose a is a codiff2 image: divergence- and mean-free."""
    gen = np.random.default_rng(seed)
    a = codiff2(lat, gen.standard_normal(lat.dims + (6,)))
    phi = gen.standard_normal(lat.dims + (2,)) + 1j * gen.standard_normal(lat.dims + (2,))
    return zero_cfg(lat).replace(a=a, phi=phi)


def test_coulomb_step_leaves_divergence_free_field_alone():
    lat = Lattice((4, 4, 3, 3), 0.5)
    cfg = coulomb_cfg(lat, 11)
    fixed, report = full_gauge_fix(cfg)
    assert l2_norm(lat, report.zeta) <= 1e-12
    assert np.allclose(fixed.gauge.a, cfg.gauge.a, atol=1e-12)
    assert np.allclose(fixed.phi, cfg.phi, atol=1e-12)
    assert report.winding == (0, 0, 0, 0)


def test_coulomb_step_removes_pure_gauge_exactly():
    lat = Lattice((4, 3, 4, 3), 0.7)
    xi = gaussian(lat.dims, 1)
    phi = gaussian(lat.dims + (2,), 2, complex_=True)
    cfg = zero_cfg(lat).replace(a=d0(lat, xi), phi=phi)
    fixed, report = full_gauge_fix(cfg)
    assert report.winding == (0, 0, 0, 0)
    assert linf_norm(lat, fixed.gauge.a) <= 1e-10
    # zeta = -(xi - mean xi), so phi picks up the zero-mean part of xi back
    expected_phi = np.exp(1j * (xi - xi.mean()))[..., None] * phi
    assert np.allclose(fixed.phi, expected_phi, atol=1e-10)
    assert abs(report.zeta.mean()) <= 1e-12


def test_coulomb_step_residual_and_curvature_on_random_field():
    lat = Lattice((4, 4, 3, 2), 0.6)
    cfg = random_configuration(lat, 21, (0.7, 0.9), flux=flux_matrix(f01=1, f23=-2))
    fixed, report = full_gauge_fix(cfg)
    assert report.winding == (0, 0, 0, 0)  # harmonic part already in the fundamental domain
    res = l2_norm(lat, codiff1(lat, fixed.gauge.a))
    assert res <= 1e-8 * (1.0 + sobolev12_norm(lat, cfg.gauge.a))
    assert report.residual == pytest.approx(res, rel=1e-12, abs=1e-300)
    f_before, f_after = curvature(cfg), curvature(fixed)
    assert l2_norm(lat, f_after - f_before) <= 1e-12 * l2_norm(lat, f_before)
    # d0 zeta has zero mean in every direction: harmonic part untouched
    for mu in range(4):
        assert report.harmonic[mu] == pytest.approx(cfg.gauge.a[..., mu].mean(), abs=1e-13)


def test_coulomb_phase_is_an_owned_contiguous_array():
    # a view on the complex inverse FFT would keep that buffer alive in the
    # report and the transform, and hand every d0 a strided field
    lat = Lattice((4, 4, 3, 2), 0.6)
    zeta = full_gauge_fix(random_configuration(lat, 21, (0.7, 0.9)))[1].zeta
    assert zeta.any()
    assert zeta.flags.c_contiguous and zeta.flags.owndata


def test_fixing_operations_preserve_energy():
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = constant_s(random_configuration(lat, 31, (0.7, 0.9), flux=flux_matrix(f12=1)), -1.0)
    moved = apply_gauge(GaugeTransform(np.zeros(lat.dims), (0, 2, -1, 0)), cfg)
    for start in (cfg, moved):
        fixed, report = full_gauge_fix(start)
        assert report.winding == ((0, 0, 0, 0) if start is cfg else (0, 2, -1, 0))
        for energy in (energy_weitzenbock, energy_first_order):
            before, after = energy(start), energy(fixed)
            assert abs(after - before) <= 1e-10 * abs(before)


def test_winding_step_removes_integer_harmonic_exactly():
    lat = Lattice((4, 4, 4, 4), 0.5)
    a = np.zeros(lat.dims + (4,))
    a[..., 1] = 2.0 * np.pi / lat.lengths[1]
    cfg = zero_cfg(lat).replace(a=a)
    fixed, report = full_gauge_fix(cfg)
    assert not report.zeta.any()
    assert report.winding == (0, 1, 0, 0)
    assert linf_norm(lat, fixed.gauge.a) <= 1e-14


def test_winding_step_reduces_to_fundamental_domain():
    lat = Lattice((4, 3, 3, 2), 0.5)
    unit = 2.0 * np.pi / lat.lengths[1]
    a = np.zeros(lat.dims + (4,))
    a[..., 1] = 3.7 * unit
    cfg = zero_cfg(lat).replace(a=a)
    fixed, report = full_gauge_fix(cfg)
    assert not report.zeta.any()
    assert report.winding == (0, 4, 0, 0)
    assert report.harmonic[1] == pytest.approx(-0.3 * unit, rel=1e-12)
    for mu in range(4):
        assert -np.pi / lat.lengths[mu] <= report.harmonic[mu] < np.pi / lat.lengths[mu]


@pytest.mark.parametrize(
    "multiple,expected",
    [(0.5, 1), (-0.5, 0), (1.5, 2), (-1.5, -1), (2.5, 3), (-2.5, -2), (2.6, 3), (-1.4, -1), (0.49, 0),
     (0.5 - 2.0**-54, 0), (2.0**52 + 1.0, 2**52 + 1)],
)
def test_winding_rounds_ties_up(multiple, expected):
    # ties round up, so the remainder lies in the half-open [-1/2, 1/2): toward
    # zero below zero, away from it above. Exact half-integers are fed to the
    # rounding rule directly; pushing them through the field mean perturbs the
    # tie by an ulp and decides it arbitrarily. The last two are not ties, and
    # floor(x + 0.5) in floating point rounds both up
    assert _round_half_up(multiple) == expected


@pytest.mark.parametrize("multiple", [0.5, -0.5, 1.5, 2.5])
def test_harmonic_part_of_a_tie_is_in_the_domain_up_to_the_rounding_of_the_mean(multiple):
    lat = Lattice((4, 4, 4, 4), 0.5)
    half_width = np.pi / lat.lengths[1]
    a = np.zeros(lat.dims + (4,))
    a[..., 1] = multiple * 2.0 * half_width
    cfg = zero_cfg(lat).replace(a=a)
    _, report = full_gauge_fix(cfg)
    # the mean of a tie is itself an ulp off, so h may leave [-pi/L, pi/L) by an ulp
    assert abs(report.harmonic[1]) <= half_width * (1.0 + 8 * 2.0**-53)


@pytest.mark.parametrize("multiple,expected", [(2.6, 3), (-1.4, -1), (0.3, 0)])
def test_winding_step_on_generic_multiples(multiple, expected):
    lat = Lattice((3, 3, 3, 3), 1.0)
    a = np.zeros(lat.dims + (4,))
    a[..., 2] = multiple * 2.0 * np.pi / lat.lengths[2]
    cfg = zero_cfg(lat).replace(a=a)
    _, report = full_gauge_fix(cfg)
    assert report.winding == (0, 0, expected, 0)


def test_full_gauge_fix_zero_configuration():
    lat = Lattice((3, 3, 2, 2), 1.0)
    cfg = zero_cfg(lat)
    fixed, report = full_gauge_fix(cfg)
    assert np.array_equal(fixed.gauge.a, cfg.gauge.a)
    assert np.array_equal(fixed.phi, cfg.phi)
    assert report.winding == (0, 0, 0, 0)
    assert report.residual == 0.0
    assert report.harmonic == (0.0, 0.0, 0.0, 0.0)
    assert not report.zeta.any()


def test_full_gauge_fix_normal_form_and_idempotence():
    lat = Lattice((4, 4, 3, 3), 0.5)
    for seed in (41, 42, 43):
        cfg = random_configuration(lat, seed, (0.7, 0.9), flux=flux_matrix(f03=1))
        # push the harmonic part outside the fundamental domain first
        shifted = cfg.replace(a=cfg.gauge.a + 2.0 * np.pi * 2 / lat.lengths[0] * (np.arange(4) == 0))
        fixed, report = full_gauge_fix(shifted)
        assert report.residual <= 1e-8 * (1.0 + sobolev12_norm(lat, shifted.gauge.a))
        for mu in range(4):
            assert -np.pi / lat.lengths[mu] <= report.harmonic[mu] < np.pi / lat.lengths[mu]
        again, report2 = full_gauge_fix(fixed)
        assert linf_norm(lat, again.gauge.a - fixed.gauge.a) <= 1e-10
        assert linf_norm(lat, again.phi - fixed.phi) <= 1e-10
        assert report2.winding == (0, 0, 0, 0)


def _hodge1_matrix(lat):
    """Dense matrix of d0 codiff1 + codiff2 d1 on 1-forms, one column per basis form."""
    n = 4 * lat.nsites
    mat = np.empty((n, n))
    basis = np.zeros(lat.dims + (4,))
    for j in range(n):
        basis.flat[j] = 1.0
        image = d0(lat, codiff1(lat, basis)) + codiff2(lat, d1(lat, basis))
        mat[:, j] = image.ravel()
        basis.flat[j] = 0.0
    return mat


def test_hodge_spectrum_matches_fourier_symbol():
    lat = Lattice((3, 3, 2, 2), 0.9)
    computed = np.sort(np.linalg.eigvalsh(_hodge1_matrix(lat)))
    modes = [2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) for n in lat.dims]
    symbol = sum(np.ix_(*modes)).ravel() / lat.spacing**2
    expected = np.sort(np.repeat(symbol, 4))
    assert np.allclose(computed, expected, atol=1e-10 * expected[-1])


@pytest.mark.parametrize(
    "dims,h", [((2, 2, 2, 2), 0.6), ((3, 4, 2, 5), 0.45), ((4, 4, 3, 2), 1.3)]
)
def test_hodge_constants_gap_matches_dense_oracle(dims, h):
    lat = Lattice(dims, h)
    evals = np.linalg.eigvalsh(_hodge1_matrix(lat))
    nonzero = evals[evals > 1e-8 * evals[-1]]
    assert hodge_constants(lat).spectral_gap == pytest.approx(nonzero[0], rel=1e-10)


def test_hodge_constants_closed_form():
    lat = Lattice((4, 4, 3, 2), 0.7)
    consts = hodge_constants(lat)
    gap_expected = (2.0 - 2.0 * np.cos(2.0 * np.pi / max(lat.dims))) / lat.spacing**2
    assert consts.spectral_gap == pytest.approx(gap_expected, rel=1e-10)
    assert consts.curl_factor == pytest.approx(np.sqrt(1.0 + 1.0 / gap_expected), rel=1e-12)
    radius = np.sqrt(lat.volume * sum((np.pi / L) ** 2 for L in lat.lengths))
    assert consts.harmonic_radius == pytest.approx(radius, rel=1e-12)
    assert hodge_constants(Lattice((4, 4, 3, 2), 0.7)) == consts


def test_sobolev_bound_after_full_fix():
    for dims, h in (((3, 3, 3, 3), 1.0 / 3.0), ((4, 4, 4, 4), 0.5)):
        lat = Lattice(dims, h)
        consts = hodge_constants(lat)
        for seed in range(25):
            cfg = random_configuration(lat, 100 + seed, (0.7, 0.9))
            fixed, _ = full_gauge_fix(cfg)
            lhs = sobolev12_norm(lat, fixed.gauge.a)
            curl = l2_norm(lat, d1(lat, fixed.gauge.a))
            assert lhs <= consts.curl_factor * curl + consts.harmonic_radius
            # flux-zero curvature is exactly twice the curl
            assert lhs <= 0.5 * consts.curl_factor * l2_norm(lat, curvature(fixed)) + consts.harmonic_radius


def test_gauge_distance_vanishes_on_orbits():
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = random_configuration(lat, 51, (0.7, 0.9), flux=flux_matrix(f12=1))
    g = GaugeTransform(0.9 * gaussian(lat.dims, 1), (1, -2, 0, 3))
    moved = apply_gauge(g, cfg)
    assert gauge_distance(cfg, moved) <= 1e-8
    # identical inputs: zero up to roundoff in the phase alignment
    assert gauge_distance(cfg, cfg) <= 1e-14


def test_gauge_distance_phi_scaling():
    lat = Lattice((3, 4, 3, 4), 0.6)
    cfg = coulomb_cfg(lat, 61)
    doubled = cfg.replace(phi=2.0 * cfg.phi)
    expected = sobolev12_norm(lat, cfg.phi)
    assert gauge_distance(cfg, doubled) == pytest.approx(expected, rel=1e-10)


def test_gauge_distance_pseudometric():
    lat = Lattice((3, 3, 3, 3), 0.7)
    flux = flux_matrix(f13=1)
    cfgs = [random_configuration(lat, 70 + i, (0.7, 0.9), flux=flux) for i in range(3)]
    d01 = gauge_distance(cfgs[0], cfgs[1])
    d12 = gauge_distance(cfgs[1], cfgs[2])
    d02 = gauge_distance(cfgs[0], cfgs[2])
    assert d01 == pytest.approx(gauge_distance(cfgs[1], cfgs[0]), abs=1e-8)
    assert d02 <= d01 + d12 + 1e-8


def test_gauge_distance_rejects_mismatched_inputs():
    lat = Lattice((3, 3, 3, 3), 0.5)
    other = Lattice((4, 3, 3, 3), 0.5)
    with pytest.raises(ValueError):
        gauge_distance(random_configuration(lat, 81, (0.7, 0.9)), random_configuration(other, 81, (0.7, 0.9)))
    with pytest.raises(ValueError):
        gauge_distance(random_configuration(lat, 82, (0.7, 0.9)),
                       random_configuration(lat, 82, (0.7, 0.9), flux=flux_matrix(f01=1)))
