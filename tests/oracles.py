"""Reference formulas the tests hold swflow to, written from their definitions.

None validates its arguments; no program path needs them, so they live here
rather than in the package.
"""

import numpy as np

from swflow.fields import GaugeTransform
from swflow.lattice import PLANES, fiber_norm


def flux_matrix(**planes):
    """Antisymmetric integer matrix from entries like f01=2, f23=-1."""
    n = np.zeros((4, 4), dtype=int)
    for key, val in planes.items():
        mu, nu = int(key[1]), int(key[2])
        n[mu, nu] = val
        n[nu, mu] = -val
    return n


def clifford_mult(tbl, mu, phi):
    """sigma_mu phi fiberwise (positive spinors to negative spinors)."""
    return np.einsum("ab,...b->...a", tbl.sigma[mu], phi)


def clifford_mult_adjoint(tbl, mu, psi):
    """sigma_mu^dag psi fiberwise (negative spinors back to positive)."""
    return np.einsum("ba,...b->...a", np.conj(tbl.sigma[mu]), psi)


def two_form_action(tbl, omega, phi):
    """Clifford action sum omega_{mu nu} B_{mu nu} phi of a real 2-form fiber."""
    return np.einsum("...i,iab,...b->...a", omega, tbl.bivectors, phi)


def l4_norm(lat, u):
    """(h^4 sum_x |u(x)|^4)^(1/4) with the fiber norm at each site."""
    return float((np.sum(fiber_norm(u) ** 4) * lat.spacing**4) ** 0.25)


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
