"""Reference formulas the tests hold swflow to, written from their definitions,
the two-step gauge fix swflow first shipped, and the tracemalloc measure the
memory tests read.

None validates its arguments; no program path needs them, so they live here
rather than in the package.
"""

import math
import tracemalloc

import numpy as np

from swflow.clifford import BIVECTORS
from swflow.fields import GaugeTransform, apply_gauge
from swflow.gaugefix import GaugeFixReport
from swflow.lattice import PLANES, codiff1, fiber_norm, l2_norm, poisson_solve


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
