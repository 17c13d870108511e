"""Gauge-covariant difference operators on spinor fields.

Forward covariant differences with exact algebraic adjoints: the pairs
(covariant_diff, covariant_diff_adjoint) and (dirac, dirac_adjoint) satisfy
<Lu, v> = <u, L*v> to machine precision, which is what makes the energy and
its gradient close exactly. Centered stencils would be higher order but break
that closure; fermion doubling is irrelevant for minimization.

Transport convention: U_mu(x) = exp(i h a(x,mu)) * T_mu(x), so that the gauge
action a -> a + d theta, phi -> exp(-i theta) phi conjugates every operator
by the pointwise phase. T_mu carries half of the determinant-line background
angles; the reported curvature is the determinant-line one, twice the
curvature the spinor transport sees. So an odd flux n_{mu nu} leaves a Z_2
defect: the plane's spinor holonomy pi n is not a multiple of 2 pi, and one
plaquette per (x_rho, x_sigma) slice, at the wrap corner, carries an extra pi.
On T^4 a spin^c determinant line has even flux; an odd sector is a lattice
model whose identities all still hold. The background angles and curvature
come from the per-(lattice, flux) cache in fields, and covariant_diff and
its adjoint accept link phases U the caller already holds. link_phases,
covariant_diff and curvature follow the layout rule in lattice.
"""

from __future__ import annotations

import numpy as np

from .clifford import SIGMA
from .fields import Configuration, _flux_background
from .lattice import PLANES, d1, shift


def link_phases(cfg: Configuration) -> np.ndarray:
    """Unit-modulus spinor transport exp(i(h a + Theta/2)) per link, shape
    dims + (4,), a view on a direction-major buffer: U[..., mu] is contiguous."""
    lat = cfg.lattice
    theta = _flux_background(lat, cfg.gauge.flux)[0]
    U = 1j * (lat.spacing * np.ascontiguousarray(np.moveaxis(cfg.gauge.a, -1, 0)) + 0.5 * theta)
    for u in U:  # in place, one direction at a time: faster than one exp of all four
        np.exp(u, out=u)
    return np.moveaxis(U, 0, -1)


def covariant_diff(cfg: Configuration, phi: np.ndarray | None = None, U=None) -> np.ndarray:
    """Covariant forward difference, one spinor per direction.

    (grad_mu phi)(x) = (U_mu(x) phi(x + e_mu) - phi(x)) / h, output shape
    dims + (4, 2), direction-major: grad[..., mu, :] is contiguous. With phi
    given, differentiates that field in cfg's transport instead of cfg.phi;
    U, when held, must be link_phases(cfg).
    """
    phi = cfg.phi if phi is None else phi
    U = link_phases(cfg) if U is None else U
    out = np.empty((4,) + phi.shape, dtype=complex)
    for mu in range(4):
        out[mu] = (U[..., mu, None] * shift(phi, mu) - phi) / cfg.lattice.spacing
    return np.moveaxis(out, 0, -2)


def covariant_diff_adjoint(cfg: Configuration, G: np.ndarray, U=None) -> np.ndarray:
    """Exact adjoint of covariant_diff under the h^4-weighted products.

    (grad* G)(x) = (1/h) sum_mu (conj(U_mu(x - e_mu)) G_mu(x - e_mu) - G_mu(x)).
    U, when held, must be link_phases(cfg).
    """
    lat = cfg.lattice
    if G.shape != lat.dims + (4, 2):
        raise ValueError(f"expected shape {lat.dims + (4, 2)}, got {G.shape}")
    U = link_phases(cfg) if U is None else U
    out = np.zeros(lat.dims + (2,), dtype=complex)
    for mu in range(4):
        trans = np.conj(U[..., mu, None]) * G[..., mu, :]
        out += (shift(trans, mu, -1) - G[..., mu, :]) / lat.spacing
    return out


def dirac(cfg: Configuration, phi: np.ndarray | None = None) -> np.ndarray:
    """Dirac operator D phi = sum_mu sigma_mu (grad_mu phi), lands in W^-;
    one product over (mu, b): (D phi)_a = sum sigma_mu[a, b] (grad_mu phi)_b."""
    grad = covariant_diff(cfg, phi).reshape(-1, 8)
    return (grad @ SIGMA.transpose(0, 2, 1).reshape(8, 2)).reshape(cfg.lattice.dims + (2,))


def dirac_adjoint(cfg: Configuration, psi: np.ndarray) -> np.ndarray:
    """Exact adjoint of dirac: D* psi = grad* (sigma_mu^dag psi per direction),
    the directions in one product: (sigma_mu^dag psi)_a = sum_b conj(sigma_mu[b, a]) psi_b."""
    lat = cfg.lattice
    if psi.shape != lat.dims + (2,):
        raise ValueError(f"expected shape {lat.dims + (2,)}, got {psi.shape}")
    G = psi.reshape(-1, 2) @ np.conj(SIGMA).transpose(1, 0, 2).reshape(2, 8)
    return covariant_diff_adjoint(cfg, G.reshape(lat.dims + (4, 2)))


def curvature(cfg: Configuration) -> np.ndarray:
    """Determinant-line curvature 2-form, 2 d1(a) plus the flux background.

    The stored a is the spin^c fluctuation the spinors couple to at charge 1,
    which is half of the determinant-line fluctuation; hence the factor 2.
    Gauge invariant, and its h^2-weighted sum over any full coordinate plane
    is exactly 2 pi n for that plane's flux integer. Plane-major in memory:
    numpy keeps the layout of d1's buffer through the broadcast sum.
    """
    lat = cfg.lattice
    return 2.0 * d1(lat, cfg.gauge.a) + _flux_background(lat, cfg.gauge.flux)[1]


def curvature_at_sites(cfg: Configuration) -> np.ndarray:
    """Curvature averaged to sites: per plane, the 4 plaquettes meeting x."""
    F = curvature(cfg)
    out = np.empty(F.shape)  # site-major, as sw_equation_residual sums it
    for i, (mu, nu) in enumerate(PLANES):
        f = F[..., i]
        back = shift(f, mu, -1)  # also the diagonal neighbour's source
        out[..., i] = 0.25 * (f + back + shift(f, nu, -1) + shift(back, nu, -1))
    return out
