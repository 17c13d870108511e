"""The energy functional in both forms, its gradient, and excess diagnostics.

Two independent evaluators: energy_weitzenbock integrates
|grad phi|^2 + |F+|^2 + (s/4)|phi|^2 + |phi|^4/8 with the self-dual curvature
at plaquette resolution, while energy_first_order integrates
|D phi|^2 + |F+ - sigma(phi)|^2 with the curvature averaged to sites. They
agree only in the refinement limit (the Weitzenbock rearrangement is a
continuum identity); the deliberate redundancy cross-validates both.

The gradient is exact for energy_weitzenbock under the real pairing
<<(da, dphi), (delta_a, delta_phi)>> = <da, delta_a> + 2 Re <dphi, delta_phi>,
verified against central differences by the registry measure
checks.gradient_matches_finite_differences.

energy_weitzenbock and gradient wrap one evaluation, _evaluate, which builds
the link phases, grad phi and F+ once; the descent loop takes an accepted
trial's gradient, and a record's grad phi, from its evaluation. It holds
them direction- and plane-major (the layout rule in lattice) and writes the
per-site sums in numpy's order over site-major data: |F+|^2 adds the six
planes in sequence, |grad phi|^2 is the tree ((s00 + s01) + (s10 + s11)) +
((s20 + s21) + (s30 + s31)) over direction and component. Whole-array sums
(the energy, the site-major Gradient's pairings, excess_report) read
site-major data.

Every term but |grad phi|^2 is a polynomial in the fields. Along a search line
(a + t da, phi + t dphi) the flux background is constant, F+ = F+_0 + t G with
G = selfdual_project(2 d1 da), and with p = |phi|^2, q = Re<phi, dphi>, r =
|dphi|^2 per site those terms sum to the quartic P(t) = h^4 sum |F+|^2 +
(s/4) p(t) + p(t)^2/8, p(t) = p + 2tq + t^2 r. _line_floor sums its
coefficients once per search and returns t -> P(t) - m(t), a lower bound of
the energy _evaluate would compute at the trial: the line search skips a
trial whose bound exceeds the Armijo threshold without building it. m is an
a priori rounding bound (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3-4). Let u = 2^-53, gamma_k = ku/(1 - ku), K = bit length
of n + 17 (the most roundings a term meets in numpy's pairwise sum over n
sites), D = 8 (max|a| + t max|da|)/h + max|background F|, R = ||F+_0|| +
t ||G|| + sqrt(6n) gamma_20 D (an L^2 bound of both curvatures below) and
M = R^2 + (sqrt(sum|s|p) + t sqrt(sum|s|r))^2/4 + ((sum p^2)^(1/4) +
t (sum r^2)^(1/4))^4/8, by Minkowski a bound of every rounded term. Then:
- grad2 >= 0 is added first and rounding is monotone, so the computed energy
  is at least its partial sum, within gamma_(K+16) M of that sum taken
  exactly over the trial's computed F+ and phi;
- each trial field x + t dx is off the line by gamma_2 (|x| + t|dx|): for phi,
  through |phi|^2, that is gamma_11 M; for a, through 2 d1, it scales with
  a/h, not with F, and with the rounding of F+_0, G and the trial's F+ puts
  each component of the latter within gamma_20 D of F+_0 + t G, costing
  sum |F+|^2 at most 2 sqrt(6n) gamma_20 D R (Cauchy-Schwarz over sites);
- the computed P is within gamma_(K+21) M of P (12 roundings per coefficient
  term, K in the sums, 9 in Horner's rule and the h^4 factor).
So m = h^4 (gamma_(2K+64) M + 2 sqrt(6n) gamma_24 D R), the spare roundings
covering m's own, plus 2^-1000 n h^4 (1 + max|s|) max(1, t)^4 for underflow.
A skipped trial's computed energy exceeds the threshold, so decisions and
trajectories are bit-identical to full evaluation; a NaN or inf P or m makes
the bound NaN, and the trial is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import quadratic_form
from .fields import Configuration, _flux_background
from .lattice import (
    Lattice,
    codiff2,
    d1,
    fiber_norm,
    selfdual_project,
    sobolev12_norm,
)
from .operators import (
    covariant_diff,
    covariant_diff_adjoint,
    curvature,
    curvature_at_sites,
    dirac,
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
    covariant difference grad and the self-dual curvature fplus, direction-
    and plane-major in memory, and |phi|^2."""

    cfg: Configuration
    energy: float
    U: np.ndarray
    grad: np.ndarray
    fplus: np.ndarray
    phi2: np.ndarray

    def gradient(self) -> Gradient:
        cfg, lat = self.cfg, self.cfg.lattice
        da = 4.0 * codiff2(lat, self.fplus)  # first: the einsum's temporaries go before dphi
        da += 2.0 * np.einsum("...mc,...c->...m", self.grad, np.conj(cfg.phi)).imag
        # -Delta_A phi = grad* grad phi, from the covariant difference held
        dphi = covariant_diff_adjoint(cfg, self.grad, self.U) + 0.25 * (
            cfg.scalar_curvature + self.phi2)[..., None] * cfg.phi
        return Gradient(lat, da, dphi)


def _evaluate(cfg: Configuration) -> _Evaluation:
    h4 = cfg.lattice.spacing**4
    phi2 = np.sum(np.abs(cfg.phi) ** 2, axis=-1)
    sterm, quart = 0.25 * cfg.scalar_curvature * phi2, 0.125 * phi2**2
    fplus = selfdual_project(curvature(cfg))
    f2 = sum((fplus[..., i] ** 2 for i in range(1, 6)), fplus[..., 0] ** 2)  # numpy's order of 6
    U = link_phases(cfg)
    grad = covariant_diff(cfg, U=U)
    pair = []
    for mu in range(4):  # one direction at a time keeps the temporaries small
        sq = np.abs(grad[..., mu, :]) ** 2
        pair.append(sq[..., 0] + sq[..., 1])
    dens = ((pair[0] + pair[1]) + (pair[2] + pair[3])) + f2 + sterm + quart  # numpy's order of 8
    return _Evaluation(cfg, float(h4 * np.sum(dens)), U, grad, fplus, phi2)


def _line_floor(cfg: Configuration, direction: Gradient, fplus: np.ndarray):
    """t -> a lower bound (or NaN) of _evaluate's energy at cfg + t direction,
    from the line polynomial; fplus is cfg's F+ from _evaluate."""
    lat, s = cfg.lattice, cfg.scalar_curvature
    n, h, h4 = lat.nsites, lat.spacing, lat.spacing**4
    G = selfdual_project(2.0 * d1(lat, direction.da))  # plane-major, as fplus
    x, y = (np.ascontiguousarray(v, dtype=complex).view(float) for v in (cfg.phi, direction.dphi))
    p, q, r, f, fg, gg = (np.einsum("...i,...i->...", v, w) for v, w in (
        (x, x), (x, y), (y, y), (fplus, fplus), (fplus, G), (G, G)))
    c4, c3, c2, c1, c0 = (np.sum(k) for k in (0.125 * r * r, 0.5 * q * r,
                          gg + 0.25 * r * (s + p) + 0.5 * q * q, 2.0 * fg + 0.5 * q * (s + p),
                          f + 0.25 * s * p + 0.125 * p * p))
    norm_f, norm_g, sp, sr = (np.sqrt(np.sum(k)) for k in (f, gg, np.abs(s) * p, np.abs(s) * r))
    p4, r4 = (np.sum(k * k) ** 0.25 for k in (p, r))
    alpha, beta = np.max(np.abs(cfg.gauge.a)), np.max(np.abs(direction.da))
    flux = np.max(np.abs(_flux_background(lat, cfg.gauge.flux)[1]))
    root, underflow = np.sqrt(6.0 * n), 2.0**-1000 * n * h4 * (1.0 + np.max(np.abs(s)))
    g20, g24, gk = (j * 2.0**-53 / (1.0 - j * 2.0**-53) for j in (20, 24, 2 * n.bit_length() + 98))

    def floor(t):
        P = h4 * ((((c4 * t + c3) * t + c2) * t + c1) * t + c0)
        D = 8.0 * (alpha + t * beta) / h + flux
        R = norm_f + t * norm_g + root * g20 * D
        M = R * R + 0.25 * (sp + t * sr) ** 2 + 0.125 * (p4 + t * r4) ** 4
        m = h4 * (gk * M + 2.0 * root * g24 * D * R) + underflow * np.maximum(1.0, t) ** 4
        return P - m if np.isfinite(P) and np.isfinite(m) else np.nan

    return floor


def energy_weitzenbock(cfg: Configuration) -> float:
    """h^4 sum of |grad phi|^2 + |F+|^2 + (s/4)|phi|^2 + |phi|^4/8.

    F+ is the self-dual projection of the plaquette curvature. Gauge
    invariant; bounded below by energy_lower_bound.
    """
    return _evaluate(cfg).energy


def energy_first_order(cfg: Configuration) -> float:
    """h^4 sum of |D phi|^2 + |F+ at sites - sigma(phi)|^2; nonnegative.

    Zero exactly when the first-order equations D phi = 0 and
    F+ = sigma(phi) hold at every site; the sum of sw_equation_residual.
    """
    return sum(sw_equation_residual(cfg))


def sw_equation_residual(cfg: Configuration) -> tuple[float, float]:
    """(|D phi|^2, |F+ - sigma(phi)|^2) as separate L^2 quantities, h^4 sum each."""
    h4 = cfg.lattice.spacing**4
    r_dirac = h4 * float(np.sum(np.abs(dirac(cfg)) ** 2))
    r_curv = h4 * float(np.sum((selfdual_project(curvature_at_sites(cfg))
                                - quadratic_form(cfg.phi)) ** 2))
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


def excess_report(cfg: Configuration, grad=None) -> ExcessReport:
    """Threshold diagnostics for the truncation argument.

    threshold = max(-min s, 0); Omega is the region |phi| > threshold;
    radial_excess integrates the squared radial derivative
    (Re <grad_mu phi, nu>)^2 over Omega with nu = phi/|phi|; eta is the
    radial excess section (|phi| - threshold) nu on Omega, measured in the
    plain-difference L^{1,2} norm. grad, when held, must be
    covariant_diff(cfg): the descent loop passes the one of the evaluation
    it holds.
    """
    lat = cfg.lattice
    tau = max(0.0, -float(np.min(cfg.scalar_curvature)))
    absphi = fiber_norm(cfg.phi)
    omega = absphi > tau
    h4 = lat.spacing**4
    measure = h4 * float(np.count_nonzero(omega))
    if not np.any(omega):
        return ExcessReport(tau, 0.0, 0.0, 0.0)
    safe = np.where(omega, absphi, 1.0)
    nu = np.where(omega[..., None], cfg.phi / safe[..., None], 0.0)
    grad = covariant_diff(cfg) if grad is None else grad
    # site-major whatever grad's layout, so that the sum below reads it in one order
    radial = np.einsum("...mc,...c->...m", grad, np.conj(nu), order="C").real
    radial_excess = h4 * float(np.sum(np.where(omega[..., None], radial, 0.0) ** 2))
    eta = np.where(omega, absphi - tau, 0.0)[..., None] * nu
    return ExcessReport(tau, measure, radial_excess, float(sobolev12_norm(lat, eta)))
