"""The registry of invariants behind `swflow check` and the acceptance suite.

Each public measure checks one contract of the library (algebraic
identity, adjointness, gauge invariance, bound, or refinement study) on a
problem it is handed: a lattice or configuration, a seed and a number of
random draws. It returns a CheckResult carrying its name, the measured
value and its tolerance; each tolerance is one of the constants below.
run_checks calls the measures at the command's own small sizes, and
tests/test_acceptance.py calls the same measures at its own sizes and
seeds. The fast level stays on lattices of at most 3^4 sites and skips
refinement studies; the full level adds 4^4 and 8^4 Hodge-bound sweeps and
the two-resolution comparison of the two energy forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .clifford import SIGMA, quadratic_form
from .fields import Configuration, GaugeField, GaugeTransform, apply_gauge, random_configuration
from .functional import energy_first_order, energy_lower_bound, energy_weitzenbock, gradient
from .gaugefix import full_gauge_fix, hodge_constants
from .lattice import (
    PLANES, Lattice, codiff1, codiff2, d0, d1, l2_inner, l2_norm, sobolev12_norm, worst_of,
)
from .operators import covariant_diff, covariant_diff_adjoint, curvature, dirac, dirac_adjoint

IDENTITY_TOL = 1e-12  # exact algebraic identities and adjoints, relative
GAUGE_TOL = 1e-10  # gauge invariance and flux plane sums, accumulated over the lattice
GRADIENT_TOL = 1e-5  # analytic gradient against central differences, relative
COULOMB_TOL = 1e-8  # Coulomb gauge residual


@dataclass(frozen=True)
class CheckResult:
    """One invariant: measured value compared against tolerance via op."""

    name: str
    measured: float
    tolerance: float
    op: str = "<="

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.measured <= self.tolerance
        return self.measured >= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.3e} (required {self.op} {self.tolerance:.3e})"


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
    # np.max, unlike the builtin, propagates a NaN entry into the result
    worst = float(np.max([np.max(np.abs(d)) for d in defects]))
    return CheckResult("clifford_relation_defect", worst, IDENTITY_TOL)


def quadratic_form_norm_identity(sites: tuple, seed: int, draws: int) -> CheckResult:
    """Worst relative defect of |sigma(phi)|^2 = |phi|^4 / 8 over spinors on site shape `sites`."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        phi = rng.standard_normal(sites + (2,)) + 1j * rng.standard_normal(sites + (2,))
        lhs = np.sum(quadratic_form(phi) ** 2, axis=-1)
        rhs = np.sum(np.abs(phi) ** 2, axis=-1) ** 2 / 8.0
        worst = worst_of(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    return CheckResult("quadratic_form_norm_identity", worst, IDENTITY_TOL)


def exterior_derivative_squares_to_zero(lat: Lattice, seed: int, draws: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        f = rng.standard_normal(lat.dims)
        worst = worst_of(worst, l2_norm(lat, d1(lat, d0(lat, f))) / l2_norm(lat, f))
    return CheckResult("exterior_derivative_squares_to_zero", worst, IDENTITY_TOL)


def _adjoint_pairs(lat: Lattice, problem) -> dict:
    """Name -> (operator, adjoint, fiber of u, fiber of v, complex fields), looked up per call."""
    return {
        "adjoint_d0_codiff1": (partial(d0, lat), partial(codiff1, lat), (), (4,), False),
        "adjoint_d1_codiff2": (partial(d1, lat), partial(codiff2, lat), (4,), (6,), False),
        "adjoint_covariant_diff": (partial(covariant_diff, problem),
                                   partial(covariant_diff_adjoint, problem), (2,), (4, 2), True),
        "adjoint_dirac": (partial(dirac, problem), partial(dirac_adjoint, problem), (2,), (2,), True),
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

    worst = 0.0
    for _ in range(draws):
        u, v = draw(fiber_u), draw(fiber_v)
        defect = abs(l2_inner(lat, op(u), v) - l2_inner(lat, u, adj(v)))
        worst = worst_of(worst, defect / (l2_norm(lat, u) * l2_norm(lat, v)))
    return CheckResult(name, worst, IDENTITY_TOL)


def energy_gauge_invariance(cfg: Configuration, seed: int, draws: int, windings=None) -> CheckResult:
    """Worst relative change of both energy forms under random gauge transforms.

    Each draw takes its phase field from the seeded stream and its winding
    from `windings` (one tuple per draw) or, by default, from the same
    stream in -2..2.
    """
    rng = np.random.default_rng(seed)
    energies = (energy_weitzenbock, energy_first_order)
    before = [energy(cfg) for energy in energies]
    worst = 0.0
    for k in range(draws):
        phase = rng.standard_normal(cfg.lattice.dims)
        if windings is None:
            winding = tuple(int(n) for n in rng.integers(-2, 3, size=4))
        else:
            winding = windings[k]
        moved = apply_gauge(GaugeTransform(phase, winding), cfg)
        for energy, e0 in zip(energies, before):
            worst = worst_of(worst, abs(energy(moved) - e0) / abs(e0))
    return CheckResult("energy_gauge_invariance", worst, GAUGE_TOL)


def gradient_matches_finite_differences(cfg: Configuration, seed: int, draws: int,
                                        step: float = 1e-5) -> CheckResult:
    """Worst relative error of the gradient against central differences.

    Each draw perturbs one coordinate (an a entry, or the real or imaginary
    part of a spinor entry) by +-step and compares the difference quotient of
    energy_weitzenbock with the pairing value of gradient; a draw where both
    are below 1e-10 (1 + |E|) counts as error 0 rather than 0/0.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    lat, rng = cfg.lattice, np.random.default_rng(seed)
    base, grad, h4 = energy_weitzenbock(cfg), gradient(cfg), lat.spacing**4
    worst = 0.0
    for _ in range(draws):
        kind = int(rng.integers(0, 3))
        site = tuple(int(rng.integers(0, n)) for n in lat.dims)
        idx = site + (int(rng.integers(0, 4 if kind == 0 else 2)),)
        unit = (1.0, 1.0, 1j)[kind]
        if kind == 0:
            pair = h4 * float(grad.da[idx])
        else:
            val = grad.dphi[idx]
            pair = 2.0 * h4 * float(val.real if kind == 1 else val.imag)

        def bump(eps):
            a2, p2 = cfg.gauge.a.copy(), cfg.phi.copy()
            (a2 if kind == 0 else p2)[idx] += eps * unit
            return cfg.replace(a=a2, phi=p2)

        fd = (energy_weitzenbock(bump(step)) - energy_weitzenbock(bump(-step))) / (2.0 * step)
        scale = max(abs(fd), abs(pair))
        if scale < 1e-10 * (1.0 + abs(base)):
            continue
        worst = worst_of(worst, abs(fd - pair) / scale)
    return CheckResult("gradient_matches_finite_differences", worst, GRADIENT_TOL)


def energy_lower_bound_margin(
    lat: Lattice, seed: int, draws: int, curvature_seed: int
) -> CheckResult:
    """Largest floor minus energy over random fields (seeds seed, seed+1, ...) and random s."""
    rng = np.random.default_rng(curvature_seed)
    worst = -np.inf
    for k in range(draws):
        s = rng.standard_normal(lat.dims)
        cfg = random_configuration(lat, seed + k, (0.5, 1.2), scalar_curvature=s)
        worst = worst_of(worst, energy_lower_bound(lat, cfg.scalar_curvature) - energy_weitzenbock(cfg))
    return CheckResult("energy_lower_bound_margin", worst, 0.0)


def coulomb_residual(lat: Lattice, seed: int, draws: int) -> CheckResult:
    """Worst Coulomb residual relative to 1 + |a|_(1,2) over mixed-flux configurations."""
    worst = 0.0
    for k in range(draws):
        cfg = mixed_flux_configuration(lat, seed + k)
        _, report = full_gauge_fix(cfg)
        worst = worst_of(worst, report.residual / (1.0 + sobolev12_norm(lat, cfg.gauge.a)))
    return CheckResult("coulomb_residual", worst, COULOMB_TOL)


def hodge_sobolev_bound(lat: Lattice, seed: int, draws: int) -> CheckResult:
    """Worst |a|_(1,2) / (C |d1 a| + C') over gauge-fixed flux-free configurations."""
    consts = hodge_constants(lat)
    worst = 0.0
    for k in range(draws):
        fixed, _ = full_gauge_fix(random_configuration(lat, seed + k, (0.8, 0.5)))
        lhs = sobolev12_norm(lat, fixed.gauge.a)
        rhs = consts.curl_factor * l2_norm(lat, d1(lat, fixed.gauge.a)) + consts.harmonic_radius
        worst = worst_of(worst, lhs / rhs)
    return CheckResult("hodge_sobolev_bound_" + "x".join(str(n) for n in lat.dims), worst, 1.0)


def flux_quantization(cfg: Configuration) -> CheckResult:
    """Worst |h^2 sum of F over a coordinate-plane slice - 2 pi n| over all six planes."""
    F = curvature(cfg)
    h2 = cfg.lattice.spacing**2
    worst = 0.0
    for p, (mu, nu) in enumerate(PLANES):
        plane_sums = h2 * F[..., p].sum(axis=(mu, nu))
        target = 2.0 * np.pi * cfg.gauge.flux[mu, nu]
        worst = worst_of(worst, float(np.max(np.abs(plane_sums - target))))
    return CheckResult("flux_quantization", worst, GAUGE_TOL)


def smooth_configuration(n: int) -> Configuration:
    """Single-mode smooth fields sampled on an n^4 unit-torus lattice.

    Used by the refinement study: the two energy forms disagree by a
    discretization defect that contracts as the mesh is refined.
    """
    lat = Lattice((n, n, n, n), 1.0 / n)
    axes = [np.arange(m) / m for m in lat.dims]
    x0, x1, x2, x3 = np.meshgrid(*axes, indexing="ij")
    tp = 2.0 * np.pi
    a = np.zeros(lat.dims + (4,))
    a[..., 0] = 0.3 * np.sin(tp * x1)
    a[..., 1] = 0.2 * np.cos(tp * x2)
    a[..., 2] = 0.25 * np.sin(tp * x3)
    a[..., 3] = 0.15 * np.cos(tp * x0)
    phi = np.zeros(lat.dims + (2,), dtype=complex)
    phi[..., 0] = 0.8 + 0.3 * np.exp(1j * tp * x0)
    phi[..., 1] = 0.2 + 0.4 * np.exp(-1j * tp * x2)
    s = -0.5 * np.ones(lat.dims)
    return Configuration(lat, GaugeField(a, np.zeros((4, 4), int)), phi, s)


def weitzenbock_gap_contraction() -> CheckResult:
    """4^4 over 8^4 gap between the two energy forms; 0 if the fine gap vanishes."""
    gaps = []
    for n in (4, 8):
        cfg = smooth_configuration(n)
        gaps.append(abs(energy_first_order(cfg) - energy_weitzenbock(cfg)))
    ratio = gaps[0] / gaps[1] if gaps[1] > 0.0 else 0.0
    return CheckResult("weitzenbock_gap_contraction", ratio, 1.5, op=">=")


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
        energy_gauge_invariance(mixed_flux_configuration(cube(0.9), 109, scalar_curvature=s), 110, 10,
                                windings=[(k % 3 - 1, 0, 1, -2) for k in range(10)]),
        gradient_matches_finite_differences(
            mixed_flux_configuration(cube(0.7), 111, scalar_curvature=s), 112, 10
        ),
        energy_lower_bound_margin(cube(0.8), 200, 10, curvature_seed=113),
        coulomb_residual(cube(0.7), 300, 5),
        hodge_sobolev_bound(cube(0.5), 400, 10),
        flux_quantization(random_configuration(cube(0.6), 115, (0.4, 0.0), flux=one_flux)),
    ]
    if level == "full":
        results.append(hodge_sobolev_bound(Lattice((4, 4, 4, 4), 0.5), 400, 10))
        results.append(hodge_sobolev_bound(Lattice((8, 8, 8, 8), 0.5), 400, 10))
        results.append(weitzenbock_gap_contraction())
    return results
