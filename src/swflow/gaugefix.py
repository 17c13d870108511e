"""Gauge normalization and orbit distance.

full_gauge_fix computes the normal form in two steps: a Coulomb step (a
divergence-free connection, obtained by solving a Poisson equation for the
gauge phase), then a winding step (a winding transform shifting the constant
harmonic part of each a_mu into the fundamental domain [-pi/L_mu, pi/L_mu) of
the torus of flat connections). Configurations in normal form differ within a
gauge orbit only by a global constant phase, so aligning that phase yields a
pseudometric on orbits, gauge_distance.

The Sobolev bound ||a||_{1,2} <= C ||d1 a|| + C' for normalized a uses
per-lattice constants from the spectral gap of the discrete Hodge Laplacian
on 1-forms (hodge_constants), read off its Fourier symbol in closed form,
never hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Configuration, GaugeTransform, apply_gauge
from .lattice import Lattice, codiff1, l2_inner, l2_norm, poisson_solve, sobolev12_norm


@dataclass(frozen=True)
class GaugeFixReport:
    """What full_gauge_fix did.

    zeta: the zero-mean phase solving the Coulomb equation. winding: the
        integer harmonic multiples detected and removed (the applied
        transform carries the opposite sign). residual: ||codiff1(a')|| of
        the returned configuration. harmonic: the mean of a'_mu per
        direction, in [-pi/L_mu, pi/L_mu) up to the rounding of the mean.
    """

    zeta: np.ndarray
    winding: tuple[int, int, int, int]
    residual: float
    harmonic: tuple[float, float, float, float]


def _round_half_up(x: float) -> int:
    # floor(x + 1/2), so x - k lies in [-1/2, 1/2); x - floor(x) is exact where it
    # meets 1/2, whereas x + 0.5 would round the non-tie 0.5 - 2**-54 up to 1
    k = math.floor(x)
    return k + (x - k >= 0.5)


def full_gauge_fix(cfg: Configuration) -> tuple[Configuration, GaugeFixReport]:
    """Bring cfg to normal form: a Coulomb step, then a winding step.

    The Coulomb step solves laplacian0(zeta) = -codiff1(a), solvable on the
    periodic lattice because codiff1 output sums to zero, and applies the
    zero-mean phase zeta, which leaves the harmonic means
    h_mu = (2 pi / L_mu)(k_mu + r_mu) of a untouched (integer k_mu, r_mu in
    [-1/2, 1/2)). The winding step removes k exactly by a winding transform
    by -k, a constant added to a; it is skipped when k = (0, 0, 0, 0), where
    it is the identity up to the sign of exact zeros. The result has
    codiff1(a) ~ 0 (to solver accuracy), its harmonic part in
    [-pi/L_mu, pi/L_mu) up to the rounding of the mean, and obeys
    ||a||_{1,2} <= C ||d1 a|| + C' with constants from hodge_constants.
    """
    lat = cfg.lattice
    rho = -codiff1(lat, cfg.gauge.a)
    # the exact source sums to zero (telescoping); remove its roundoff mean
    # so the solver's solvability gate is never tripped by noise
    rho = rho - rho.mean()
    zeta = poisson_solve(lat, rho)
    fixed = apply_gauge(GaugeTransform(zeta), cfg)
    k = tuple(_round_half_up(float(fixed.gauge.a[..., mu].mean()) * length / (2.0 * np.pi))
              for mu, length in enumerate(lat.lengths))
    if any(k):
        fixed = apply_gauge(GaugeTransform(np.zeros(lat.dims), tuple(-ki for ki in k)), fixed)
    a = fixed.gauge.a
    residual = l2_norm(lat, codiff1(lat, a))
    harmonic = tuple(float(a[..., mu].mean()) for mu in range(4))
    return fixed, GaugeFixReport(zeta=zeta, winding=k, residual=residual, harmonic=harmonic)


@dataclass(frozen=True)
class HodgeConstants:
    """Per-lattice constants for the normalized Sobolev bound.

    spectral_gap: smallest nonzero eigenvalue of the Hodge Laplacian
        d0 codiff1 + codiff2 d1 on 1-forms. curl_factor C and
        harmonic_radius C' give ||a||_{1,2} <= C ||d1 a|| + C' for every a
        with codiff1(a) = 0 and mean(a_mu) in [-pi/L_mu, pi/L_mu).
    """

    spectral_gap: float
    curl_factor: float
    harmonic_radius: float


def hodge_constants(lat: Lattice) -> HodgeConstants:
    """Sobolev-bound constants from the closed-form 1-form Hodge spectrum.

    Forward and backward differences commute on the periodic cubic lattice, so
    d0 codiff1 + codiff2 d1 acts on each a_mu by the scalar Fourier symbol
    sum_mu (2 - 2 cos(2 pi k_mu / N_mu)) / h^2. Its smallest nonzero value is
    the lowest mode along the longest direction, positive since N_mu >= 2.
    Derivation of the bound: split a into its constant part abar and
    fluctuation at. For codiff1(a) = 0 the identity
    sum_mu ||d0 a_mu||^2 = ||d1 a||^2 + ||codiff1 a||^2 gives
    ||grad at|| = ||d1 a||, the spectral gap gives
    ||at||^2 <= ||d1 a||^2 / lambda_1, and the fundamental domain bounds
    ||abar|| by sqrt(V sum_mu (pi/L_mu)^2).
    """
    gap = (2.0 - 2.0 * math.cos(2.0 * math.pi / max(lat.dims))) / lat.spacing**2
    curl_factor = math.sqrt(1.0 + 1.0 / gap)
    harmonic_radius = math.sqrt(lat.volume * sum((np.pi / length) ** 2 for length in lat.lengths))
    return HodgeConstants(gap, curl_factor, harmonic_radius)


def gauge_distance(cfg1: Configuration, cfg2: Configuration) -> float:
    """L^{1,2} distance between gauge orbits.

    Both configurations are brought to normal form, the leftover constant
    phase of phi2 is aligned to maximize Re<phi1, phi2>, and the distance is
    ||a1 - a2||_{1,2} + ||phi1 - phi2||_{1,2}. Vanishes (to solver accuracy)
    on gauge orbits; symmetric; satisfies the triangle inequality up to the
    same accuracy.
    """
    if cfg1.lattice != cfg2.lattice:
        raise ValueError("gauge_distance needs configurations on the same lattice")
    if not np.array_equal(cfg1.gauge.flux, cfg2.gauge.flux):
        raise ValueError("gauge_distance needs configurations with the same flux")
    return _normal_form_distance(full_gauge_fix(cfg1)[0], full_gauge_fix(cfg2)[0])


def _normal_form_distance(fixed1: Configuration, fixed2: Configuration) -> float:
    """gauge_distance between two outputs of full_gauge_fix, which it does not redo."""
    lat = fixed1.lattice
    overlap = l2_inner(lat, fixed1.phi, fixed2.phi)
    phase = np.exp(1j * np.angle(overlap)) if abs(overlap) > 0.0 else 1.0
    da = fixed1.gauge.a - fixed2.gauge.a
    dphi = fixed1.phi - phase * fixed2.phi
    return sobolev12_norm(lat, da) + sobolev12_norm(lat, dphi)
