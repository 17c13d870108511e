"""The energy functional in both forms, its gradient, and excess diagnostics.

Two independent evaluators: energy_weitzenbock integrates
|grad phi|^2 + |F+|^2 + (s/4)|phi|^2 + |phi|^4/8 with the self-dual curvature
at plaquette resolution, while energy_first_order integrates
|D phi|^2 + |F+ - sigma(phi)|^2 with the curvature averaged to sites. They
agree only in the refinement limit (the Weitzenbock rearrangement is a
continuum identity); the deliberate redundancy cross-validates both.

The gradient is exact for energy_weitzenbock under the real pairing
<<(da, dphi), (delta_a, delta_phi)>> = <da, delta_a> + 2 Re <dphi, delta_phi>,
verified against central differences by fd_gradient_check.

energy_weitzenbock and gradient wrap one evaluation, _evaluate, which builds
the link phases, the covariant difference and F+ once and keeps them with the
energy; the line search hands an accepted trial's evaluation to the descent
loop, which takes the gradient there without rebuilding any of them.

Given a threshold, _evaluate returns None once a partial energy exceeds it:
first the (s/4)|phi|^2 + |phi|^4/8 terms, then with |F+|^2, so a doomed
Armijo trial never builds the link phases or grad phi. The rejections are
exact: each partial density drops nonnegative leading terms of the full sum
grad2 + f2 + sterm + quart, and rounding is monotone, so it lies elementwise
at or below the full density; np.sum adds same-shape arrays in one order, so
a partial energy above the threshold puts the energy above it too (or at NaN,
also rejected). A NaN partial energy falls through to the full evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordTable, quadratic_form, standard_table
from .fields import Configuration
from .lattice import (
    Lattice,
    codiff2,
    fiber_norm,
    selfdual_project,
    sobolev12_norm,
)
from .operators import (
    covariant_diff,
    covariant_diff_adjoint,
    curvature,
    dirac,
    fplus_at_sites,
    link_phases,
)


@dataclass(frozen=True)
class Gradient:
    """Cotangent pair (da, dphi) under the fixed real pairing."""

    lattice: Lattice
    da: np.ndarray
    dphi: np.ndarray

    def norm(self) -> float:
        """sqrt(|da|^2 + 2 |dphi|^2), the norm dual to the pairing."""
        h4 = self.lattice.spacing**4
        return float(
            np.sqrt(
                h4 * (np.sum(self.da**2) + 2.0 * np.sum(np.abs(self.dphi) ** 2))
            )
        )

    def scaled(self, factor: float) -> "Gradient":
        return Gradient(self.lattice, factor * self.da, factor * self.dphi)


@dataclass(frozen=True)
class ExcessReport:
    """Truncation diagnostics above the threshold max(-min s, 0)."""

    threshold: float
    excess_measure: float
    radial_excess: float
    eta_norm: float


@dataclass(frozen=True)
class _Evaluation:
    """energy(cfg) with the pieces gradient(cfg) reuses: the link phases U, the
    covariant difference grad, the self-dual curvature fplus and |phi|^2."""

    cfg: Configuration
    energy: float
    U: np.ndarray
    grad: np.ndarray
    fplus: np.ndarray
    phi2: np.ndarray

    def gradient(self) -> Gradient:
        cfg, lat = self.cfg, self.cfg.lattice
        # -Delta_A phi = grad* grad phi, from the covariant difference held
        dphi = covariant_diff_adjoint(cfg, self.grad, self.U) + 0.25 * (
            cfg.scalar_curvature + self.phi2)[..., None] * cfg.phi
        da = 4.0 * codiff2(lat, self.fplus)
        da += 2.0 * np.einsum("...mc,...c->...m", self.grad, np.conj(cfg.phi)).imag
        return Gradient(lat, da, dphi)


def _evaluate(cfg: Configuration, reject_above: float | None = None) -> _Evaluation | None:
    """The evaluation of cfg, or None once a partial energy (a floating-point
    lower bound of it, see the module docstring) exceeds reject_above."""
    h4 = cfg.lattice.spacing**4
    phi2 = np.sum(np.abs(cfg.phi) ** 2, axis=-1)
    sterm, quart = 0.25 * cfg.scalar_curvature * phi2, 0.125 * phi2**2
    if reject_above is not None and h4 * np.sum(sterm + quart) > reject_above:
        return None
    fplus = selfdual_project(curvature(cfg))
    f2 = np.sum(fplus**2, axis=-1)
    if reject_above is not None and h4 * np.sum(f2 + sterm + quart) > reject_above:
        return None
    U = link_phases(cfg)
    grad = covariant_diff(cfg, U=U)
    dens = np.sum(np.abs(grad) ** 2, axis=(-2, -1)) + f2 + sterm + quart
    return _Evaluation(cfg, float(h4 * np.sum(dens)), U, grad, fplus, phi2)


def energy_weitzenbock(cfg: Configuration) -> float:
    """h^4 sum of |grad phi|^2 + |F+|^2 + (s/4)|phi|^2 + |phi|^4/8.

    F+ is the self-dual projection of the plaquette curvature. Gauge
    invariant; bounded below by energy_lower_bound.
    """
    return _evaluate(cfg).energy


def energy_first_order(
    cfg: Configuration, table: CliffordTable | None = None
) -> float:
    """h^4 sum of |D phi|^2 + |F+ at sites - sigma(phi)|^2; nonnegative.

    Zero exactly when the first-order equations D phi = 0 and
    F+ = sigma(phi) hold at every site; the sum of sw_equation_residual.
    """
    return sum(sw_equation_residual(cfg, table))


def sw_equation_residual(
    cfg: Configuration, table: CliffordTable | None = None
) -> tuple[float, float]:
    """(|D phi|^2, |F+ - sigma(phi)|^2) as separate L^2 quantities, h^4 sum each."""
    tbl = standard_table() if table is None else table
    h4 = cfg.lattice.spacing**4
    r_dirac = h4 * float(np.sum(np.abs(dirac(cfg, table=tbl)) ** 2))
    r_curv = h4 * float(np.sum((fplus_at_sites(cfg) - quadratic_form(tbl, cfg.phi)) ** 2))
    return (r_dirac, r_curv)


def energy_lower_bound(lat: Lattice, s: np.ndarray) -> float:
    """Proven floor of energy_weitzenbock: -(h^4/8) sum min(s, 0)^2.

    Pointwise the density (s/4)t + t^2/8 over t = |phi|^2 >= 0 is minimized
    at t = -s when s < 0, giving -s^2/8; all other terms are nonnegative.
    The floor is attained by constant |phi|^2 = -s when s is a negative
    constant and the gauge field is flux-free pure gauge.
    """
    neg = np.minimum(s, 0.0)
    return float(-(lat.spacing**4) * np.sum(neg**2) / 8.0)


def gradient(cfg: Configuration) -> Gradient:
    """Exact analytic gradient of energy_weitzenbock.

    dphi = -Delta_A phi + (s/4) phi + (1/4)|phi|^2 phi;
    da = 4 codiff2(F+) + 2 Im <grad_mu phi, phi> per link. The constant
    background drops out of codiff2, and a critical pair (constant
    |phi|^2 = -s, flux-free a) gives exactly zero.
    """
    return _evaluate(cfg).gradient()


def fd_gradient_check(
    cfg: Configuration,
    step: float = 1e-5,
    n_directions: int = 50,
    seed: int = 0,
) -> float:
    """Max relative error of the gradient against central differences.

    Perturbs single coordinates (a entries, real and imaginary spinor
    entries) by +-step and compares the difference quotient of
    energy_weitzenbock with the pairing value of gradient. Deterministic in
    seed. When both sides are below 1e-10 (1 + |E|), the direction counts
    as error 0 rather than 0/0.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    lat = cfg.lattice
    rng = np.random.default_rng(seed)
    base = energy_weitzenbock(cfg)
    grad = gradient(cfg)
    h4 = lat.spacing**4
    worst = 0.0
    for _ in range(n_directions):
        kind = int(rng.integers(0, 3))
        site = tuple(int(rng.integers(0, n)) for n in lat.dims)
        if kind == 0:
            mu = int(rng.integers(0, 4))
            pair = h4 * float(grad.da[site + (mu,)])

            def bump(eps, site=site, mu=mu):
                a2 = cfg.gauge.a.copy()
                a2[site + (mu,)] += eps
                return cfg.replace(a=a2)

        else:
            comp = int(rng.integers(0, 2))
            unit = 1.0 if kind == 1 else 1.0j
            val = grad.dphi[site + (comp,)]
            pair = 2.0 * h4 * float(val.real if kind == 1 else val.imag)

            def bump(eps, site=site, comp=comp, unit=unit):
                p2 = cfg.phi.copy()
                p2[site + (comp,)] += eps * unit
                return cfg.replace(phi=p2)

        fd = (energy_weitzenbock(bump(step)) - energy_weitzenbock(bump(-step))) / (
            2.0 * step
        )
        scale = max(abs(fd), abs(pair))
        if scale < 1e-10 * (1.0 + abs(base)):
            continue
        worst = max(worst, abs(fd - pair) / scale)
    return worst


def excess_report(cfg: Configuration) -> ExcessReport:
    """Threshold diagnostics for the truncation argument.

    threshold = max(-min s, 0); Omega is the region |phi| > threshold
    (degenerate sites with |phi| <= 1e-12 threshold never count);
    radial_excess integrates the squared radial derivative
    (Re <grad_mu phi, nu>)^2 over Omega with nu = phi/|phi|; eta is the
    radial excess section (|phi| - threshold) nu on Omega, measured in the
    plain-difference L^{1,2} norm.
    """
    lat = cfg.lattice
    tau = max(0.0, -float(np.min(cfg.scalar_curvature)))
    absphi = fiber_norm(cfg.phi)
    omega = (absphi > tau) & (absphi > 1e-12 * tau)
    h4 = lat.spacing**4
    measure = h4 * float(np.count_nonzero(omega))
    if not np.any(omega):
        return ExcessReport(tau, 0.0, 0.0, 0.0)
    safe = np.where(omega, absphi, 1.0)
    nu = np.where(omega[..., None], cfg.phi / safe[..., None], 0.0)
    grad = covariant_diff(cfg)
    radial = np.einsum("...mc,...c->...m", grad, np.conj(nu)).real
    radial_excess = h4 * float(np.sum(np.where(omega[..., None], radial, 0.0) ** 2))
    eta = np.where(omega, absphi - tau, 0.0)[..., None] * nu
    return ExcessReport(tau, measure, radial_excess, float(sobolev12_norm(lat, eta)))
