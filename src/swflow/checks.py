"""The registry of invariants behind `swflow check` and the acceptance suite.

Each public measure checks one contract of the library (algebraic identity,
adjointness, gauge invariance, bound, or refinement study) on a problem it is
handed: a lattice or configuration, a seed and a number of random draws. It
returns a CheckResult of its name, measured value and tolerance, which passes
when measured <= tolerance. Each tolerance, like the difference step FD_STEP,
is a constant below, but the two ratio checks state their bounds: 1 (Hodge
bound) and 1/1.5 (refinement). Random gauge transforms draw phase and winding
from the seed. run_checks and tests/test_acceptance.py call the same measures,
each at its own sizes and seeds. The fast level stays on lattices of at most
3^4 sites and skips refinement studies; the full level adds 4^4 and 8^4
Hodge-bound sweeps and the two-resolution comparison of the two energy forms.

Every measure over draws (or over planes, or over the defects of a table)
computes one defect per draw and reports the worst of them through _worst:
a NaN on any draw makes the measured value NaN, which fails its check, and
a measure over zero draws reports 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .clifford import SIGMA, quadratic_form
from .fields import Configuration, GaugeField, GaugeTransform, apply_gauge, random_configuration
from .functional import Gradient, _evaluate, energy_first_order, energy_lower_bound, energy_weitzenbock, gradient
from .gaugefix import full_gauge_fix, hodge_constants
from .lattice import (
    PLANES, Lattice, codiff1, codiff2, d0, d1, l2_inner, l2_norm, sobolev12_norm,
)
from .operators import covariant_diff, covariant_diff_adjoint, curvature, dirac, dirac_adjoint

IDENTITY_TOL = 1e-12  # exact algebraic identities and adjoints, relative
GAUGE_TOL = 1e-10  # gauge invariance and flux plane sums, accumulated over the lattice
GRADIENT_TOL = 1e-5  # analytic gradient against central differences, relative
FD_STEP = 1e-5  # the central differences' step
COULOMB_TOL = 1e-8  # Coulomb gauge residual


@dataclass(frozen=True)
class CheckResult:
    """One invariant: it passes when measured <= tolerance (a NaN measurement fails)."""

    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.3e} (required <= {self.tolerance:.3e})"


def _worst(name: str, values, tolerance: float) -> CheckResult:
    """The largest of 0.0 and values; np.max, unlike the builtin max, keeps a NaN value."""
    return CheckResult(name, float(np.max([0.0, *values])), tolerance)


def mixed_flux_configuration(lat: Lattice, seed: int, scalar_curvature=None) -> Configuration:
    """Random fields in the flux sector n_01 = 1, n_23 = -1."""
    flux = np.zeros((4, 4), dtype=int)
    flux[0, 1], flux[1, 0] = 1, -1
    flux[2, 3], flux[3, 2] = -1, 1
    return random_configuration(lat, seed, (0.6, 0.9), flux=flux, scalar_curvature=scalar_curvature)


def clifford_relation_defect(sigma: np.ndarray) -> CheckResult:
    """Worst violation of unitarity and both Clifford anticommutators by sigma, shape (4, 2, 2)."""
    dag = np.conj(sigma).transpose(0, 2, 1)
    want = 2.0 * np.eye(4)[:, :, None, None] * np.eye(2)  # 2 delta_{mu nu} Id at [mu, nu]
    defects = (
        dag @ sigma - np.eye(2),
        dag[:, None] @ sigma[None] + dag[None] @ sigma[:, None] - want,
        sigma[:, None] @ dag[None] + sigma[None] @ dag[:, None] - want,
    )
    return _worst("clifford_relation_defect", (np.max(np.abs(d)) for d in defects), IDENTITY_TOL)


def quadratic_form_norm_identity(sites: tuple, seed: int, draws: int) -> CheckResult:
    """Worst relative defect of |sigma(phi)|^2 = |phi|^4 / 8 over spinors on site shape `sites`."""
    rng = np.random.default_rng(seed)

    def defect(_):
        phi = rng.standard_normal(sites + (2,)) + 1j * rng.standard_normal(sites + (2,))
        lhs = np.sum(quadratic_form(phi) ** 2, axis=-1)
        rhs = np.sum(np.abs(phi) ** 2, axis=-1) ** 2 / 8.0
        return float(np.max(np.abs(lhs - rhs) / rhs))

    return _worst("quadratic_form_norm_identity", map(defect, range(draws)), IDENTITY_TOL)


def exterior_derivative_squares_to_zero(lat: Lattice, seed: int, draws: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    fields = (rng.standard_normal(lat.dims) for _ in range(draws))
    return _worst("exterior_derivative_squares_to_zero",
                  (l2_norm(lat, d1(lat, d0(lat, f))) / l2_norm(lat, f) for f in fields), IDENTITY_TOL)


def _adjoint_pairs(lat: Lattice, problem) -> dict:
    """Name -> (operator, adjoint, fiber of u, fiber of v, complex fields), looked up per call."""
    return {
        "adjoint_d0_codiff1": (partial(d0, lat), partial(codiff1, lat), (), (4,), False),
        "adjoint_d1_codiff2": (partial(d1, lat), partial(codiff2, lat), (4,), (6,), False),
        "adjoint_covariant_diff": (lambda u: covariant_diff(problem.replace(phi=u)),
                                   lambda v: covariant_diff_adjoint(problem, v), (2,), (4, 2), True),
        "adjoint_dirac": (lambda u: dirac(problem.replace(phi=u)),
                          lambda v: dirac_adjoint(problem, v), (2,), (2,), True),
    }


# operator/adjoint pairs measured by adjoint_defect, in a fixed order
ADJOINT_PAIRS = tuple(_adjoint_pairs(None, None))


def adjoint_defect(name: str, problem, seed: int, draws: int) -> CheckResult:
    """Worst |<op u, v> - <u, adj v>| / (|u| |v|) for the pair `name` on random fields.

    `problem` is a Lattice for the two exterior derivatives and a
    Configuration (whose links the operator uses) for all four pairs.
    """
    lat = getattr(problem, "lattice", problem)
    op, adj, fiber_u, fiber_v, complex_fields = _adjoint_pairs(lat, problem)[name]
    rng = np.random.default_rng(seed)

    def draw(fiber):
        u = rng.standard_normal(lat.dims + fiber)
        if complex_fields:
            u = u + 1j * rng.standard_normal(lat.dims + fiber)
        return u

    def defect(_):
        u, v = draw(fiber_u), draw(fiber_v)
        return abs(l2_inner(lat, op(u), v) - l2_inner(lat, u, adj(v))) / (l2_norm(lat, u) * l2_norm(lat, v))

    return _worst(name, map(defect, range(draws)), IDENTITY_TOL)


def energy_gauge_invariance(cfg: Configuration, seed: int, draws: int) -> CheckResult:
    """Worst relative change of both energy forms under random gauge transforms, windings in -3..3."""
    rng = np.random.default_rng(seed)
    energies = (energy_weitzenbock, energy_first_order)
    before = [energy(cfg) for energy in energies]

    def transformed(_):
        phase = rng.standard_normal(cfg.lattice.dims)
        winding = tuple(int(n) for n in rng.integers(-3, 4, size=4))
        return apply_gauge(GaugeTransform(phase, winding), cfg)

    changes = (abs(energy(moved) - e0) / abs(e0)
               for moved in map(transformed, range(draws)) for energy, e0 in zip(energies, before))
    return _worst("energy_gauge_invariance", changes, GAUGE_TOL)


def gradient_matches_finite_differences(cfg: Configuration, seed: int, draws: int) -> CheckResult:
    """Worst relative error of the gradient against central differences.

    Each draw perturbs one coordinate (an a entry, or the real or imaginary
    part of a spinor entry) by +-FD_STEP and compares the difference quotient of
    energy_weitzenbock with gradient(cfg).dot(unit), unit the draw's one-hot
    tangent: the pairing the line search's Armijo test reads. A draw where both
    are below 1e-10 (1 + |E|) counts as error 0 rather than 0/0.
    """
    lat, rng, held = cfg.lattice, np.random.default_rng(seed), _evaluate(cfg)
    base, grad = held.energy, gradient(cfg, held)

    def error(_):
        kind = int(rng.integers(0, 3))
        site = tuple(int(rng.integers(0, n)) for n in lat.dims)
        idx = site + (int(rng.integers(0, 4 if kind == 0 else 2)),)
        unit = Gradient(lat, np.zeros_like(cfg.gauge.a), np.zeros_like(cfg.phi))
        (unit.da if kind == 0 else unit.dphi)[idx] = (1.0, 1.0, 1j)[kind]
        pair = grad.dot(unit)

        def bump(eps):
            return cfg.replace(a=cfg.gauge.a + eps * unit.da, phi=cfg.phi + eps * unit.dphi)

        fd = (energy_weitzenbock(bump(FD_STEP)) - energy_weitzenbock(bump(-FD_STEP))) / (2.0 * FD_STEP)
        scale = max(abs(fd), abs(pair))
        return 0.0 if scale < 1e-10 * (1.0 + abs(base)) else abs(fd - pair) / scale

    return _worst("gradient_matches_finite_differences", map(error, range(draws)), GRADIENT_TOL)


def energy_lower_bound_margin(
    lat: Lattice, seed: int, draws: int, curvature_seed: int
) -> CheckResult:
    """Largest (floor - energy) / max(|floor|, 1) over draws. Draw 0 is the floor's own
    minimizer (no flux, a = 0, s = -0.3 and |phi|^2 = 0.3 constant), which meets it to
    rounding, so a raised floor fails; later draws are random fields (seeds seed + k)
    with random s."""
    rng = np.random.default_rng(curvature_seed)
    at_floor = Configuration(lat, GaugeField(np.zeros(lat.dims + (4,)), np.zeros((4, 4), int)),
                             np.full(lat.dims + (2,), np.sqrt(0.15)), np.full(lat.dims, -0.3))

    def margin(k):
        cfg = at_floor if k == 0 else random_configuration(
            lat, seed + k, (0.5, 1.2), scalar_curvature=rng.standard_normal(lat.dims))
        floor = energy_lower_bound(cfg)
        return (floor - energy_weitzenbock(cfg)) / max(abs(floor), 1.0)

    return _worst("energy_lower_bound_margin", map(margin, range(draws)), IDENTITY_TOL)


def coulomb_residual(lat: Lattice, seed: int, draws: int) -> CheckResult:
    """Worst Coulomb residual relative to 1 + |a|_(1,2) over mixed-flux configurations."""
    def residual(k):
        cfg = mixed_flux_configuration(lat, seed + k)
        return full_gauge_fix(cfg)[1].residual / (1.0 + sobolev12_norm(lat, cfg.gauge.a))

    return _worst("coulomb_residual", map(residual, range(draws)), COULOMB_TOL)


def hodge_sobolev_bound(lat: Lattice, seed: int, draws: int) -> CheckResult:
    """Worst |a|_(1,2) / (C |d1 a| + C') over gauge-fixed flux-free configurations."""
    consts = hodge_constants(lat)

    def ratio(k):
        a = full_gauge_fix(random_configuration(lat, seed + k, (0.8, 0.5)))[0].gauge.a
        lhs = sobolev12_norm(lat, a)
        return lhs / (consts.curl_factor * l2_norm(lat, d1(lat, a)) + consts.harmonic_radius)

    name = "hodge_sobolev_bound_" + "x".join(str(n) for n in lat.dims)
    return _worst(name, map(ratio, range(draws)), 1.0)


def flux_quantization(cfg: Configuration) -> CheckResult:
    """Worst |h^2 sum of F over a coordinate-plane slice - 2 pi n| over all six planes."""
    F, h2 = curvature(cfg), cfg.lattice.spacing**2
    defects = (np.max(np.abs(h2 * F[..., p].sum(axis=(mu, nu)) - 2.0 * np.pi * cfg.gauge.flux[mu, nu]))
               for p, (mu, nu) in enumerate(PLANES))
    return _worst("flux_quantization", defects, GAUGE_TOL)


def smooth_configuration(n: int) -> Configuration:
    """Single-mode smooth fields sampled on an n^4 unit-torus lattice.

    Used by the refinement study: the two energy forms disagree by a
    discretization defect that contracts as the mesh is refined.
    """
    lat = Lattice((n, n, n, n), 1.0 / n)
    x0, x1, x2, x3 = 2.0 * np.pi * (np.indices(lat.dims) / n)
    a = np.stack([0.3 * np.sin(x1), 0.2 * np.cos(x2), 0.25 * np.sin(x3), 0.15 * np.cos(x0)], axis=-1)
    phi = np.stack([0.8 + 0.3 * np.exp(1j * x0), 0.2 + 0.4 * np.exp(-1j * x2)], axis=-1)
    return Configuration(lat, GaugeField(a, np.zeros((4, 4), int)), phi, np.full(lat.dims, -0.5))


def weitzenbock_gap_contraction() -> CheckResult:
    """The 8^4 over the 4^4 gap of the energy forms: 0 if the 8^4 gap is 0, else inf if the 4^4 one is."""
    coarse, fine = (abs(energy_first_order(c) - energy_weitzenbock(c))
                    for c in map(smooth_configuration, (4, 8)))
    return _worst("weitzenbock_gap_contraction", [fine and (fine / coarse if coarse else np.inf)], 1 / 1.5)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the invariant suite at the command's sizes; level "full" adds the slow studies."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be fast or full, got {level!r}")

    def cube(spacing):
        return Lattice((3, 3, 3, 3), spacing)

    s = -np.ones((3, 3, 3, 3))
    one_flux = np.zeros((4, 4), dtype=int)
    one_flux[0, 1], one_flux[1, 0] = 1, -1
    results = [
        clifford_relation_defect(SIGMA),  # looked up here, so a patched SIGMA is measured
        quadratic_form_norm_identity((), 101, 25),
        exterior_derivative_squares_to_zero(cube(0.7), 102, 10),
        adjoint_defect("adjoint_d0_codiff1", cube(0.6), 103, 25),
        adjoint_defect("adjoint_d1_codiff2", cube(0.6), 104, 25),
        adjoint_defect("adjoint_covariant_diff", mixed_flux_configuration(cube(0.8), 105), 106, 25),
        adjoint_defect("adjoint_dirac", mixed_flux_configuration(cube(0.8), 107), 108, 25),
        energy_gauge_invariance(mixed_flux_configuration(cube(0.9), 109, scalar_curvature=s), 110, 10),
        gradient_matches_finite_differences(
            mixed_flux_configuration(cube(0.7), 111, scalar_curvature=s), 112, 10
        ),
        energy_lower_bound_margin(cube(0.8), 200, 10, curvature_seed=113),
        coulomb_residual(cube(0.7), 300, 5),
        hodge_sobolev_bound(cube(0.5), 400, 10),
        flux_quantization(random_configuration(cube(0.6), 115, (0.4, 0.0), flux=one_flux)),
    ]
    if level == "full":
        results += [hodge_sobolev_bound(Lattice((n,) * 4, 0.5), 400, 10) for n in (4, 8)]
        results.append(weitzenbock_gap_contraction())
    return results
