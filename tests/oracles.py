"""Reference formulas the tests hold swflow to, written from their definitions,
the two-step gauge fix and the descent pairing swflow first shipped, the
tracemalloc measure the memory tests read, and the builders every test takes
its inputs from.

Each random draw comes from a seed the calling test names, never from a
generator shared across tests, so a test runs on the same inputs alone,
under -k or --lf, and in any order.

None validates its arguments; no program path needs them, so they live here
rather than in the package.
"""

import math
import tracemalloc

import numpy as np

from swflow.clifford import BIVECTORS
from swflow.fields import (
    Configuration, GaugeField, GaugeTransform, apply_gauge, random_configuration,
)
from swflow.gaugefix import GaugeFixReport
from swflow.lattice import PLANES, Lattice, codiff1, fiber_norm, l2_norm, poisson_solve

SEED = 20260405  # the root of every draw below

# doubles that a writer printing too few digits, or dropping the sign of
# zero, cannot bring back: thirds, a non-dyadic decimal, the smallest
# subnormal, the largest finite double, negative zero
EDGE_VALUES = (1.0 / 3.0, 0.1, 5e-324, 1.7976931348623157e308, -0.0)


def gaussian(shape, seed, complex_=False):
    """Standard normal draws of shape from default_rng([SEED, seed]); complex_
    adds an imaginary part drawn after the real one. Scalar fields, forms,
    spinors and gauge angles are all drawn this way."""
    gen = np.random.default_rng([SEED, seed])
    u = gen.standard_normal(shape)
    return u + 1j * gen.standard_normal(shape) if complex_ else u


def random_cfg(lat, seed=9, flux=None, amp=(0.6, 0.9), s=None):
    """random_configuration with amplitudes amp and, unless s is given, s = gaussian(lat.dims, seed)."""
    if s is None:
        s = gaussian(lat.dims, seed)
    return random_configuration(lat, seed, amp, flux=flux, scalar_curvature=s)


def zero_cfg(lat, flux=None, s=None):
    """The flux sector's background alone: zero fluctuation and spinor."""
    return random_configuration(lat, 0, (0.0, 0.0), flux=flux, scalar_curvature=s)


def constant_s(cfg, value):
    """cfg with scalar curvature value at every site."""
    s = value * np.ones(cfg.lattice.dims)
    return Configuration(cfg.lattice, cfg.gauge, cfg.phi, s, cfg.seed)


def smooth_fields(n, with_gauge=True):
    """Trig-polynomial (a, phi) sampled on an n^4 grid of the unit torus, s = 0."""
    lat = Lattice((n,) * 4, 1.0 / n)
    x = np.indices(lat.dims) * lat.spacing
    a = np.zeros(lat.dims + (4,))
    if with_gauge:
        a[..., 0] = 0.8 * np.sin(2 * np.pi * x[1]) + 0.3 * np.cos(2 * np.pi * x[3])
        a[..., 1] = 0.5 * np.cos(2 * np.pi * (x[0] + x[2]))
        a[..., 2] = -0.4 * np.sin(2 * np.pi * x[3]) + 0.2 * np.sin(2 * np.pi * x[0])
        a[..., 3] = 0.6 * np.cos(2 * np.pi * x[1]) * np.sin(2 * np.pi * x[2])
    phi = np.empty(lat.dims + (2,), dtype=complex)
    phi[..., 0] = np.exp(2j * np.pi * (x[0] + 2 * x[1])) + 0.5 * np.cos(2 * np.pi * x[2])
    phi[..., 1] = 0.3 * np.exp(-2j * np.pi * (x[3] - x[0])) + 0.2j * np.sin(2 * np.pi * x[1])
    return Configuration(lat, GaugeField(a, np.zeros((4, 4), dtype=int)), phi, np.zeros(lat.dims))


def flux_matrix(**planes):
    """Antisymmetric integer matrix from entries like f01=2, f23=-1."""
    n = np.zeros((4, 4), dtype=int)
    for key, val in planes.items():
        mu, nu = int(key[1]), int(key[2])
        n[mu, nu] = val
        n[nu, mu] = -val
    return n


def clifford_mult(sigma, mu, phi):
    """sigma_mu phi fiberwise (positive spinors to negative spinors)."""
    return np.einsum("ab,...b->...a", sigma[mu], phi)


def clifford_mult_adjoint(sigma, mu, psi):
    """sigma_mu^dag psi fiberwise (negative spinors back to positive)."""
    return np.einsum("ba,...b->...a", np.conj(sigma[mu]), psi)


def two_form_action(omega, phi):
    """Clifford action sum omega_{mu nu} B_{mu nu} phi of a real 2-form fiber."""
    return np.einsum("...i,iab,...b->...a", omega, BIVECTORS, phi)


def l4_norm(lat, u):
    """(h^4 sum_x |u(x)|^4)^(1/4) with the fiber norm at each site."""
    return float((np.sum(fiber_norm(u) ** 4) * lat.spacing**4) ** 0.25)


def sobolev12_norm(lat, u):
    """(||u||^2 + ||grad u||^2)^(1/2) with the forward differences held in one
    (4,) + u.shape buffer of u's dtype, the formula swflow first shipped."""
    g = np.empty((4,) + u.shape, dtype=u.dtype)
    for mu in range(4):
        g[mu] = (np.roll(u, -1, axis=mu) - u) / lat.spacing
    n2 = np.sum(np.abs(u) ** 2) + np.sum(np.abs(g) ** 2)
    return float(np.sqrt(n2 * lat.spacing**4))


# The covariant difference and its adjoint dividing by h as numpy computes
# z / h: swflow's product with 1/h must give their bits, or the same values
# where a part of a quotient is zero.

def covariant_diff(cfg, U):
    """(U_mu(x) phi(x + e_mu) - phi(x)) / h, site-major, shape dims + (4, 2)."""
    phi = cfg.phi
    return np.stack([(U[..., mu, None] * np.roll(phi, -1, axis=mu) - phi) / cfg.lattice.spacing
                     for mu in range(4)], axis=-2)


def covariant_diff_adjoint(cfg, G, U):
    """sum_mu (conj(U_mu(x - e_mu)) G_mu(x - e_mu) - G_mu(x)) / h, added direction by direction."""
    out = np.zeros(cfg.lattice.dims + (2,), dtype=complex)
    for mu in range(4):
        trans = np.conj(U[..., mu, None]) * G[..., mu, :]
        out += (np.roll(trans, 1, axis=mu) - G[..., mu, :]) / cfg.lattice.spacing
    return out


def pairing(g, d):
    """<g.da, d.da> + 2 Re <g.dphi, d.dphi>, h^4-weighted: the descent pairing
    swflow first shipped in optimize, spelled out in numpy."""
    h4 = g.lattice.spacing**4
    pair_a = float(np.sum(g.da * d.da) * h4)
    pair_phi = complex(np.sum(g.dphi * np.conj(d.dphi)) * h4)
    return float(np.real(pair_a) + 2.0 * np.real(pair_phi))


def traced_peak(fn, *args):
    """Peak bytes tracemalloc traces while fn(*args) runs, above those live at the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()


def background_curvature(lat, flux):
    """The flux sector's constant 2-form, 2 pi n_{mu nu} / (N_mu N_nu h^2)."""
    F = [2.0 * np.pi * flux[mu, nu] / (lat.dims[mu] * lat.dims[nu] * lat.spacing**2)
         for mu, nu in PLANES]
    return np.broadcast_to(F, lat.dims + (6,))


# The fields swflow builds from site coordinates, written site by site from
# their definitions, each sum over directions taken left to right from 0. A
# cosine or exponential sees one whole array, as in swflow, because a vector
# loop and the scalar libm may round the same argument differently.

def laplacian0_symbol(lat):
    """sum_mu (2 - 2 cos(2 pi x_mu / N_mu)) / h^2 at each site x, with 1 at the zero mode."""
    terms = [(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / lat.spacing**2 for n in lat.dims]
    lam = np.empty(lat.dims)
    for x in np.ndindex(lat.dims):
        lam[x] = sum(term[xm] for term, xm in zip(terms, x))
    lam[0, 0, 0, 0] = 1.0
    return lam


def bump(lat, height, radius):
    """height exp(-d(x)^2 / radius^2), d the periodic distance from the site x h
    to the box centre L / 2: min(delta, L - delta) per direction, delta = |x_mu h - L_mu / 2|."""
    dist2 = np.zeros(lat.dims)
    for x in np.ndindex(lat.dims):
        for xm, length in zip(x, lat.lengths):
            delta = abs(xm * lat.spacing - length / 2.0)
            nearest = min(delta, length - delta)
            dist2[x] += nearest * nearest
    return height * np.exp(-dist2 / radius**2)


def transform_angle(lat, zeta, winding):
    """zeta(x) + sum_mu 2 pi k_mu x_mu / N_mu at each site x; a direction with
    k_mu = 0 adds nothing, not even +0.0 to a -0.0 of zeta."""
    theta = np.empty(lat.dims)
    for x in np.ndindex(lat.dims):
        theta[x] = zeta[x]
        for k, xm, n in zip(winding, x, lat.dims):
            if k:
                theta[x] += 2.0 * np.pi * k * xm / n
    return theta


def flux_background(lat, flux):
    """Link angles (4,) + dims and plane curvatures of the flux sector, site by
    site: on each plane (mu, nu) in PLANES order, with n = flux[mu, nu], theta_nu
    gains 2 pi n x_mu / (N_mu N_nu), and theta_mu loses 2 pi n x_nu / N_nu on the
    wrap column x_mu = N_mu - 1, so every plaquette holds 2 pi n / (N_mu N_nu)."""
    theta = np.zeros((4,) + lat.dims)
    for x in np.ndindex(lat.dims):
        for mu, nu in PLANES:
            n, nmu, nnu = flux[mu, nu], lat.dims[mu], lat.dims[nu]
            theta[(nu,) + x] += 2.0 * np.pi * n / (nmu * nnu) * x[mu]
            theta[(mu,) + x] -= 2.0 * np.pi * n / nnu * x[nu] if x[mu] == nmu - 1 else 0.0
    return theta, np.array(background_curvature(lat, flux)[0, 0, 0, 0])


def inverse(g):
    return GaugeTransform(-g.zeta, tuple(-k for k in g.winding))


def compose(g1, g2):
    """Pointwise product of the two U(1) maps."""
    return GaugeTransform(g1.zeta + g2.zeta, tuple(np.add(g1.winding, g2.winding)))


# The gauge fix as two public steps with one report each, as swflow first
# shipped it; full_gauge_fix must equal component_fix(coulomb_fix(cfg)[0]) bit
# for bit, with coulomb_fix's zeta, except at exact ties of the winding rule,
# which this version rounds toward zero.

def _report(cfg, zeta, winding):
    lat = cfg.lattice
    a = cfg.gauge.a
    residual = l2_norm(lat, codiff1(lat, a))
    harmonic = tuple(float(a[..., mu].mean()) for mu in range(4))
    return GaugeFixReport(zeta=zeta, winding=winding, residual=residual, harmonic=harmonic)


def coulomb_fix(cfg):
    """Gauge-transform cfg so that codiff1(a) = 0, with no winding."""
    lat = cfg.lattice
    rho = -codiff1(lat, cfg.gauge.a)
    rho = rho - rho.mean()
    zeta = poisson_solve(lat, rho)
    fixed = apply_gauge(GaugeTransform(zeta), cfg)
    return fixed, _report(fixed, zeta, (0, 0, 0, 0))


def _round_ties_toward_zero(x):
    return int(math.copysign(math.ceil(abs(x) - 0.5), x))


def component_fix(cfg):
    """Shift the constant part of a_mu into [-pi/L_mu, pi/L_mu) by winding."""
    lat = cfg.lattice
    k = tuple(_round_ties_toward_zero(float(cfg.gauge.a[..., mu].mean()) * length / (2.0 * np.pi))
              for mu, length in enumerate(lat.lengths))
    undo = GaugeTransform(np.zeros(lat.dims), tuple(-ki for ki in k))
    fixed = apply_gauge(undo, cfg)
    return fixed, _report(fixed, np.zeros(lat.dims), k)
