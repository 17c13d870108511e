"""Discrete exterior calculus on a flat periodic 4-torus.

Scalar fields live on sites, 1-forms on directed links, 2-forms on oriented
plaquettes. All arrays carry the four site axes first; form components sit on
a trailing axis (4 for 1-forms, 6 for 2-forms in the plane order PLANES).
Inner products are weighted by the cell volume h^4, and the Hermitian product
is conjugate-linear in the second slot. Layout rule: a field built one
component at a time (d1 here; link_phases, covariant_diff and curvature in
operators) is its public shape viewing a component-major buffer, (6,) + dims,
(4,) + dims or (4,) + dims + (2,), so F[..., i] and grad[..., mu, :] are
contiguous; a caller that needs site-major order makes it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# ordered coordinate planes (0-based directions), mu < nu
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def require_int(value, what: str) -> int:
    """value as an int; Python and NumPy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_real(value, what: str) -> float:
    """value as a float; reals pass, bools, strings and ints no double holds do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a real number a double holds") from None


def worst_of(*values) -> float:
    """The largest of values, or NaN if any is NaN (max(0.0, nan) drops it)."""
    return float(np.max(values))


@dataclass(frozen=True)
class Lattice:
    """Periodic hypercubic lattice: dims = (N1, N2, N3, N4), spacing h > 0."""

    dims: tuple[int, int, int, int]
    spacing: float

    def __post_init__(self):
        dims = tuple(require_int(n, "dims entry") for n in self.dims)
        if len(dims) != 4 or any(n < 2 for n in dims):
            raise ValueError(f"dims must be four integers >= 2, got {self.dims}")
        if not 0 < require_real(self.spacing, "spacing") < np.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def nsites(self) -> int:
        return int(np.prod(self.dims))

    @property
    def lengths(self) -> tuple[float, ...]:
        """Physical side lengths L_mu = N_mu * h."""
        return tuple(n * self.spacing for n in self.dims)

    @property
    def volume(self) -> float:
        return self.nsites * self.spacing**4


def _check_form(lat: Lattice, u: np.ndarray, fiber: tuple, kind: str):
    if u.shape != lat.dims + fiber:
        raise ValueError(f"{kind} must have shape {lat.dims + fiber}, got {u.shape}")


def shift(u: np.ndarray, mu: int, steps: int = 1) -> np.ndarray:
    """Periodic translate: shift(u, mu)[x] = u[x + steps * e_mu], mu a site axis;
    the permutation np.roll(u, -steps, axis=mu) makes, as two slice copies."""
    n = u.shape[mu]
    k = steps % n
    lead = (slice(None),) * mu
    out = np.empty_like(u)
    out[lead + (slice(None, n - k),)] = u[lead + (slice(k, None),)]
    out[lead + (slice(n - k, None),)] = u[lead + (slice(None, k),)]
    return out


def d0(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Forward-difference exterior derivative on scalars.

    (d0 f)(x, mu) = (f(x + e_mu) - f(x)) / h, periodic wrap in every
    direction. Output shape dims + (4,).
    """
    _check_form(lat, f, (), "scalar field")
    out = np.empty(lat.dims + (4,), dtype=f.dtype)
    for mu in range(4):
        out[..., mu] = (shift(f, mu) - f) / lat.spacing
    return out


def d1(lat: Lattice, a: np.ndarray) -> np.ndarray:
    """Plaquette curl of a 1-form, plane-major (the layout rule above).

    (d1 a)(x, mu nu) = (a(x + e_mu, nu) - a(x, nu) - a(x + e_nu, mu)
    + a(x, mu)) / h for each ordered plane mu < nu.
    """
    _check_form(lat, a, (4,), "1-form")
    out = np.empty((6,) + lat.dims, dtype=a.dtype)
    a = np.ascontiguousarray(np.moveaxis(a, -1, 0))  # contiguous components shift faster
    for i, (mu, nu) in enumerate(PLANES):
        out[i] = (shift(a[nu], mu) - a[nu] - shift(a[mu], nu) + a[mu]) / lat.spacing
    return np.moveaxis(out, 0, -1)


def codiff1(lat: Lattice, a: np.ndarray) -> np.ndarray:
    """Adjoint of d0 under the h^4-weighted inner products.

    (codiff1 a)(x) = -sum_mu (a(x, mu) - a(x - e_mu, mu)) / h.
    """
    _check_form(lat, a, (4,), "1-form")
    out = np.zeros(lat.dims, dtype=a.dtype)
    for mu in range(4):
        out -= (a[..., mu] - shift(a[..., mu], mu, -1)) / lat.spacing
    return out


def codiff2(lat: Lattice, F: np.ndarray) -> np.ndarray:
    """Adjoint of d1: backward divergence of a 2-form onto links.

    (codiff2 F)(x, rho) = sum_sigma (Ft(x, rho sigma) - Ft(x - e_sigma,
    rho sigma)) / h with Ft the antisymmetric extension of the stored
    mu < nu components.
    """
    _check_form(lat, F, (6,), "2-form")
    out = np.zeros(lat.dims + (4,), dtype=F.dtype)
    for i, (mu, nu) in enumerate(PLANES):
        g = F[..., i]
        out[..., mu] += (g - shift(g, nu, -1)) / lat.spacing
        out[..., nu] -= (g - shift(g, mu, -1)) / lat.spacing
    return out


# Hodge star on 2-forms: plane pairings (12)<->(34), (13)<->-(24), (14)<->(23),
# so in the PLANES order component i pairs with component 5 - i
_STAR_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def hodge_star2(F: np.ndarray) -> np.ndarray:
    """Hodge star on 2-form fibers; involution, isometry."""
    if F.shape[-1] != 6:
        raise ValueError(f"2-form fiber must have 6 components, got {F.shape[-1]}")
    return F[..., ::-1] * _STAR_SIGN


def selfdual_project(F: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto self-dual 2-forms, (F + *F) / 2."""
    return 0.5 * (F + hodge_star2(F))


def l2_inner(lat: Lattice, u: np.ndarray, v: np.ndarray):
    """h^4-weighted inner product, conjugate on the second argument."""
    _check_form(lat, u, u.shape[4:], "field")
    if u.shape != v.shape:
        raise ValueError(f"mismatched field shapes {u.shape} vs {v.shape}")
    val = np.sum(u * np.conj(v)) * lat.spacing**4
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return complex(val)
    return float(val)


def l2_norm(lat: Lattice, u: np.ndarray) -> float:
    _check_form(lat, u, u.shape[4:], "field")
    return float(np.sqrt(np.sum(np.abs(u) ** 2) * lat.spacing**4))


def fiber_norm(u: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over all component axes."""
    flat = u.reshape(u.shape[:4] + (-1,))
    return np.sqrt(np.sum(np.abs(flat) ** 2, axis=-1))


def linf_norm(lat: Lattice, u: np.ndarray) -> float:
    _check_form(lat, u, u.shape[4:], "field")
    return float(np.max(fiber_norm(u)))


def sobolev12_norm(lat: Lattice, u: np.ndarray) -> float:
    """Discrete L^{1,2} norm: (||u||^2 + ||grad u||^2)^(1/2), plain differences."""
    _check_form(lat, u, u.shape[4:], "field")
    g = np.empty((4,) + u.shape)  # |forward difference| per direction, squared in place
    for mu in range(4):
        np.abs((shift(u, mu) - u) / lat.spacing, out=g[mu])
    n2 = np.sum(np.abs(u) ** 2) + np.sum(np.square(g, out=g))
    return float(np.sqrt(n2 * lat.spacing**4))


def laplacian0(lat: Lattice, f: np.ndarray) -> np.ndarray:
    """Scalar Hodge Laplacian codiff1(d0 f); positive semidefinite."""
    return codiff1(lat, d0(lat, f))


@functools.lru_cache(maxsize=16)
def _laplacian0_symbol(lat: Lattice) -> np.ndarray:
    """Fourier symbol of laplacian0 with its zero mode set to 1: cached per
    lattice, read-only."""
    h = lat.spacing
    lam = np.zeros(lat.dims)
    for mu, n in enumerate(lat.dims):
        k = 2.0 * np.pi * np.arange(n) / n
        sh = [1, 1, 1, 1]
        sh[mu] = n
        lam = lam + ((2.0 - 2.0 * np.cos(k)) / h**2).reshape(sh)
    lam[0, 0, 0, 0] = 1.0
    lam.flags.writeable = False
    return lam


def poisson_solve(lat: Lattice, rho: np.ndarray) -> np.ndarray:
    """Solve laplacian0(f) = rho for zero-mean rho; returns the zero-mean f.

    Spectral solve over the periodic lattice. Raises ValueError when rho has
    a nonzero mean (no solution exists) and RuntimeError when the verified
    residual is not at most 1e-10 * ||rho|| < inf, which a NaN or inf in rho
    makes, as do entries whose squares overflow ||rho||.
    """
    _check_form(lat, rho, (), "scalar field")
    nrm = l2_norm(lat, rho)
    if nrm == 0.0:
        return np.zeros(lat.dims)
    mean = abs(complex(np.mean(rho)))
    if mean > 1e-10 * nrm:
        raise ValueError(f"source must have zero mean, got mean {mean:.3e}")
    rho_hat = np.fft.fftn(rho, axes=(0, 1, 2, 3))
    f_hat = rho_hat / _laplacian0_symbol(lat)
    f_hat[0, 0, 0, 0] = 0.0
    f = np.fft.ifftn(f_hat, axes=(0, 1, 2, 3))
    f = f.real if not np.iscomplexobj(rho) else f
    residual = l2_norm(lat, laplacian0(lat, f) - rho)
    if not residual <= 1e-10 * nrm < np.inf:
        raise RuntimeError(
            f"poisson solve residual {residual:.3e} is not within 1e-10 * ||rho||"
            f" < inf (||rho|| = {nrm:.3e})"
        )
    return f
