"""Discrete exterior calculus: stencils, adjointness, spectra."""

import numpy as np
import pytest

from oracles import l4_norm
from swflow.lattice import (
    PLANES,
    Lattice,
    codiff1,
    codiff2,
    d0,
    d1,
    fiber_norm,
    hodge_star2,
    l2_inner,
    l2_norm,
    laplacian0,
    linf_norm,
    poisson_solve,
    selfdual_project,
    sobolev12_norm,
)

rng = np.random.default_rng(20260401)


def small_lattice(h=0.7):
    return Lattice((2, 3, 2, 3), h)


def random_scalar(lat, complex_=False):
    f = rng.standard_normal(lat.dims)
    if complex_:
        f = f + 1j * rng.standard_normal(lat.dims)
    return f


def random_oneform(lat):
    return rng.standard_normal(lat.dims + (4,))


def random_twoform(lat):
    return rng.standard_normal(lat.dims + (6,))


def dense_matrix(op, in_shape, out_shape):
    """Column-by-column dense realization of a linear map on real arrays."""
    n_in = int(np.prod(in_shape))
    n_out = int(np.prod(out_shape))
    mat = np.zeros((n_out, n_in))
    basis = np.zeros(n_in)
    for j in range(n_in):
        basis[j] = 1.0
        mat[:, j] = op(basis.reshape(in_shape)).ravel()
        basis[j] = 0.0
    return mat


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice((1, 2, 2, 2), 1.0)
    with pytest.raises(ValueError):
        Lattice((2, 2, 2, 2), 0.0)
    with pytest.raises(ValueError, match="finite"):
        Lattice((2, 2, 2, 2), np.inf)
    # dims are integers, never truncated floats, strings or bools
    for dims in ((2, 2, 2, 2.9), (2, 2, 2, 2.0), ("2", 2, 2, 2), (2, True, 2, 2)):
        with pytest.raises(ValueError, match="integer"):
            Lattice(dims, 1.0)
    assert Lattice(tuple(np.array([2, 3, 2, 2])), 1.0).dims == (2, 3, 2, 2)
    lat = Lattice((2, 3, 4, 5), 0.5)
    assert lat.nsites == 120
    assert lat.lengths == (1.0, 1.5, 2.0, 2.5)
    assert lat.volume == pytest.approx(120 * 0.5**4)


def test_d0_matches_pointwise_stencil():
    lat = small_lattice()
    f = random_scalar(lat)
    g = d0(lat, f)
    # spot check a handful of sites against the raw definition
    for _ in range(10):
        x = tuple(rng.integers(0, n) for n in lat.dims)
        for mu in range(4):
            xp = list(x)
            xp[mu] = (xp[mu] + 1) % lat.dims[mu]
            want = (f[tuple(xp)] - f[x]) / lat.spacing
            assert g[x + (mu,)] == pytest.approx(want)


def test_d1_matches_pointwise_stencil():
    lat = small_lattice()
    a = random_oneform(lat)
    F = d1(lat, a)
    for _ in range(10):
        x = tuple(rng.integers(0, n) for n in lat.dims)
        for i, (mu, nu) in enumerate(PLANES):
            xm = list(x)
            xm[mu] = (xm[mu] + 1) % lat.dims[mu]
            xn = list(x)
            xn[nu] = (xn[nu] + 1) % lat.dims[nu]
            want = (
                a[tuple(xm) + (nu,)]
                - a[x + (nu,)]
                - a[tuple(xn) + (mu,)]
                + a[x + (mu,)]
            ) / lat.spacing
            assert F[x + (i,)] == pytest.approx(want)


def test_d1_of_d0_is_zero():
    lat = small_lattice()
    f = random_scalar(lat)
    F = d1(lat, d0(lat, f))
    assert np.max(np.abs(F)) < 1e-13


def test_codiff1_of_codiff2_is_zero():
    lat = small_lattice()
    F = random_twoform(lat)
    assert np.max(np.abs(codiff1(lat, codiff2(lat, F)))) < 1e-12


def test_codiff1_is_dense_adjoint_of_d0():
    lat = Lattice((2, 2, 3, 2), 0.9)
    M_d0 = dense_matrix(lambda f: d0(lat, f), lat.dims, lat.dims + (4,))
    M_c1 = dense_matrix(lambda a: codiff1(lat, a), lat.dims + (4,), lat.dims)
    # both products carry the same h^4 weight, so plain transpose is the oracle
    assert np.allclose(M_c1, M_d0.T, atol=1e-12)


def test_codiff2_is_dense_adjoint_of_d1():
    lat = Lattice((2, 2, 3, 2), 0.9)
    M_d1 = dense_matrix(lambda a: d1(lat, a), lat.dims + (4,), lat.dims + (6,))
    M_c2 = dense_matrix(lambda F: codiff2(lat, F), lat.dims + (6,), lat.dims + (4,))
    assert np.allclose(M_c2, M_d1.T, atol=1e-12)


def test_adjointness_via_inner_products():
    lat = small_lattice(h=1.3)
    f = random_scalar(lat)
    a = random_oneform(lat)
    F = random_twoform(lat)
    assert l2_inner(lat, d0(lat, f), a) == pytest.approx(
        l2_inner(lat, f, codiff1(lat, a))
    )
    assert l2_inner(lat, d1(lat, a), F) == pytest.approx(
        l2_inner(lat, a, codiff2(lat, F))
    )


def test_hodge_star_is_isometric_involution():
    lat = small_lattice()
    F = random_twoform(lat)
    assert np.allclose(hodge_star2(hodge_star2(F)), F)
    assert l2_norm(lat, hodge_star2(F)) == pytest.approx(l2_norm(lat, F))


def test_hodge_star_component_pairing():
    # e12 <-> e34, e13 <-> -e24, e14 <-> e23 on the ordered plane axis
    F = np.zeros((2, 2, 2, 2, 6))
    F[..., 0] = 1.0
    assert np.allclose(hodge_star2(F)[..., 5], 1.0)
    F = np.zeros((2, 2, 2, 2, 6))
    F[..., 1] = 1.0
    out = hodge_star2(F)
    assert np.allclose(out[..., 4], -1.0)
    assert out.flags.c_contiguous  # a strided result costs memory in selfdual_project
    F = np.zeros((2, 2, 2, 2, 6))
    F[..., 2] = 1.0
    assert np.allclose(hodge_star2(F)[..., 3], 1.0)


def test_selfdual_project_is_orthogonal_projection():
    lat = small_lattice()
    F = random_twoform(lat)
    P = selfdual_project(F)
    assert np.allclose(selfdual_project(P), P)
    assert np.allclose(hodge_star2(P), P)
    # remainder is anti-self-dual and orthogonal to the projection
    Q = F - P
    assert np.allclose(hodge_star2(Q), -Q)
    assert abs(l2_inner(lat, P, Q)) < 1e-12
    # Pythagoras
    assert l2_norm(lat, F) ** 2 == pytest.approx(
        l2_norm(lat, P) ** 2 + l2_norm(lat, Q) ** 2
    )


def test_norms_against_direct_sums():
    lat = small_lattice(h=0.6)
    u = random_oneform(lat) + 1j * random_oneform(lat)
    h4 = lat.spacing**4
    assert l2_norm(lat, u) == pytest.approx(np.sqrt(np.sum(np.abs(u) ** 2) * h4))
    pt = np.sqrt(np.sum(np.abs(u) ** 2, axis=-1))
    assert l4_norm(lat, u) == pytest.approx((np.sum(pt**4) * h4) ** 0.25)
    assert linf_norm(lat, u) == pytest.approx(np.max(pt))
    assert np.allclose(fiber_norm(u), pt)


def test_l2_inner_conjugates_second_slot():
    lat = small_lattice()
    u = random_scalar(lat, complex_=True)
    v = random_scalar(lat, complex_=True)
    direct = np.sum(u * np.conj(v)) * lat.spacing**4
    assert l2_inner(lat, u, v) == pytest.approx(direct)
    assert l2_inner(lat, v, u) == pytest.approx(np.conj(direct))


def test_sobolev_norm_direct_sum():
    lat = small_lattice(h=0.8)
    u = random_scalar(lat, complex_=True)
    total = np.sum(np.abs(u) ** 2)
    for mu in range(4):
        total += np.sum(np.abs((np.roll(u, -1, axis=mu) - u) / lat.spacing) ** 2)
    assert sobolev12_norm(lat, u) == pytest.approx(
        np.sqrt(total * lat.spacing**4)
    )


def test_laplacian0_spectrum_closed_form():
    lat = Lattice((4, 3, 2, 5), 0.7)
    h = lat.spacing
    # plane wave with integer mode numbers is an exact eigenvector
    m = (1, 2, 1, 3)
    x = np.indices(lat.dims)
    phase = sum(2.0 * np.pi * m[mu] * x[mu] / lat.dims[mu] for mu in range(4))
    f = np.exp(1j * phase)
    lam = sum(
        (2.0 - 2.0 * np.cos(2.0 * np.pi * m[mu] / lat.dims[mu])) / h**2
        for mu in range(4)
    )
    assert np.allclose(laplacian0(lat, f), lam * f)


def test_laplacian0_is_psd_with_constant_kernel():
    lat = small_lattice()
    M = dense_matrix(lambda f: laplacian0(lat, f), lat.dims, lat.dims)
    assert np.allclose(M, M.T, atol=1e-12)
    w = np.linalg.eigvalsh(M)
    assert w[0] > -1e-12
    assert np.sum(w < 1e-10) == 1  # constants only
    assert np.max(np.abs(laplacian0(lat, np.ones(lat.dims)))) < 1e-14


def test_poisson_solve_residual_and_mean():
    lat = Lattice((4, 4, 3, 3), 0.5)
    rho = random_scalar(lat)
    rho -= np.mean(rho)
    f = poisson_solve(lat, rho)
    assert abs(np.mean(f)) < 1e-12
    res = l2_norm(lat, laplacian0(lat, f) - rho)
    assert res <= 1e-10 * l2_norm(lat, rho)


def test_poisson_solve_rejects_nonzero_mean():
    lat = small_lattice()
    with pytest.raises(ValueError):
        poisson_solve(lat, np.ones(lat.dims))
    # a complex source whose imaginary part alone has a nonzero mean
    lat = Lattice((3, 3, 3, 3), 1.0)
    r = random_scalar(lat)
    r -= np.mean(r)
    with pytest.raises(ValueError, match="zero mean"):
        poisson_solve(lat, r + 0.5j)


def test_poisson_solve_raises_on_non_finite_source():
    # a NaN residual compares False against the gate, and a ||rho|| that
    # overflows to inf (finite entries +-1e200) would pass any residual
    lat = Lattice((3, 3, 3, 3), 1.0)
    for entries in ((np.inf, -np.inf), (np.nan,), (1e200, -1e200)):
        rho = np.zeros(lat.dims)
        rho.flat[: len(entries)] = entries
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="residual"):
            poisson_solve(lat, rho)


def test_poisson_solve_complex_source():
    lat = Lattice((3, 4, 2, 3), 1.1)
    rho = random_scalar(lat, complex_=True)
    rho -= np.mean(rho)
    f = poisson_solve(lat, rho)
    assert l2_norm(lat, laplacian0(lat, f) - rho) <= 1e-10 * l2_norm(lat, rho)


def test_bochner_identity_for_oneforms():
    # sum_mu ||d0 a_mu||^2 == ||d1 a||^2 + ||codiff1 a||^2 exactly
    lat = small_lattice(h=0.9)
    a = random_oneform(lat)
    lhs = sum(l2_norm(lat, d0(lat, a[..., mu])) ** 2 for mu in range(4))
    rhs = l2_norm(lat, d1(lat, a)) ** 2 + l2_norm(lat, codiff1(lat, a)) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shape_validation_errors():
    lat = small_lattice()
    with pytest.raises(ValueError):
        d0(lat, np.zeros((2, 3, 2, 4)))
    with pytest.raises(ValueError):
        d1(lat, np.zeros(lat.dims + (6,)))
    with pytest.raises(ValueError):
        codiff2(lat, np.zeros(lat.dims + (4,)))
    with pytest.raises(ValueError):
        hodge_star2(np.zeros(lat.dims + (4,)))
    with pytest.raises(ValueError):
        codiff1(lat, np.zeros(lat.dims + (6,)))
    with pytest.raises(ValueError):
        poisson_solve(lat, np.zeros(lat.dims + (4,)))
    wrong_sites = np.zeros((3, 2, 2, 3, 2))
    with pytest.raises(ValueError):
        l2_norm(lat, wrong_sites)
    with pytest.raises(ValueError):
        sobolev12_norm(lat, wrong_sites)
