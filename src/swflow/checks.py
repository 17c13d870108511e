"""Self-contained invariant checks behind the `swflow check` command.

Each check exercises one contract of the library (algebraic identity,
adjointness, gauge invariance, bound, or refinement study) on small seeded
problems and reports a measured value against its tolerance. The fast level
stays on lattices of at most 3^4 sites per side and skips refinement
studies; the full level adds 4^4 and 8^4 Hodge-bound sweeps and the
two-resolution comparison of the two energy forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordTable, quadratic_form, relation_defect, standard_table
from .fields import Configuration, GaugeField, GaugeTransform, apply_gauge, random_configuration
from .functional import (
    energy_first_order,
    energy_lower_bound,
    energy_weitzenbock,
    fd_gradient_check,
)
from .gaugefix import full_gauge_fix, hodge_constants
from .lattice import (
    Lattice,
    codiff1,
    codiff2,
    d0,
    d1,
    l2_inner,
    l2_norm,
    sobolev12_norm,
)
from .operators import covariant_diff, covariant_diff_adjoint, curvature, dirac, dirac_adjoint


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


def _random_flux_cfg(lat: Lattice, seed: int) -> Configuration:
    flux = np.zeros((4, 4), dtype=int)
    flux[0, 1], flux[1, 0] = 1, -1
    flux[2, 3], flux[3, 2] = -1, 1
    return random_configuration(lat, seed, (0.6, 0.9), flux=flux)


def _check_clifford(table: CliffordTable) -> CheckResult:
    return CheckResult("clifford_relation_defect", relation_defect(table), 1e-12)


def _check_quadratic_form(table: CliffordTable) -> CheckResult:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(25):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sigma = quadratic_form(table, phi)
        lhs = float(np.sum(sigma**2))
        rhs = float(np.sum(np.abs(phi) ** 2) ** 2 / 8.0)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return CheckResult("quadratic_form_norm_identity", worst, 1e-12)


def _check_dd_zero() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.7)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        f = rng.standard_normal(lat.shape)
        worst = max(worst, l2_norm(lat, d1(lat, d0(lat, f))) / l2_norm(lat, f))
    return CheckResult("exterior_derivative_squares_to_zero", worst, 1e-12)


def _adjoint_defect(lat, op, adj, shape_u, shape_v, seed, complex_fields=False):
    rng = np.random.default_rng(seed)

    def draw(shape):
        u = rng.standard_normal(shape)
        if complex_fields:
            u = u + 1j * rng.standard_normal(shape)
        return u

    worst = 0.0
    for _ in range(25):
        u, v = draw(lat.shape + shape_u), draw(lat.shape + shape_v)
        lhs = l2_inner(lat, op(u), v)
        rhs = l2_inner(lat, u, adj(v))
        scale = l2_norm(lat, u) * l2_norm(lat, v)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _check_adjoint_d0() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.6)
    worst = _adjoint_defect(
        lat, lambda u: d0(lat, u), lambda v: codiff1(lat, v), (), (4,), 103
    )
    return CheckResult("adjoint_d0_codiff1", worst, 1e-12)


def _check_adjoint_d1() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.6)
    worst = _adjoint_defect(
        lat, lambda u: d1(lat, u), lambda v: codiff2(lat, v), (4,), (6,), 104
    )
    return CheckResult("adjoint_d1_codiff2", worst, 1e-12)


def _check_adjoint_covariant_diff() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = _random_flux_cfg(lat, 105)
    worst = _adjoint_defect(
        lat,
        lambda u: covariant_diff(cfg, u),
        lambda v: covariant_diff_adjoint(cfg, v),
        (2,),
        (4, 2),
        106,
        complex_fields=True,
    )
    return CheckResult("adjoint_covariant_diff", worst, 1e-12)


def _check_adjoint_dirac(table: CliffordTable) -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.8)
    cfg = _random_flux_cfg(lat, 107)
    worst = _adjoint_defect(
        lat,
        lambda u: dirac(cfg, u, table=table),
        lambda v: dirac_adjoint(cfg, v, table=table),
        (2,),
        (2,),
        108,
        complex_fields=True,
    )
    return CheckResult("adjoint_dirac", worst, 1e-12)


def _check_gauge_invariance(table: CliffordTable) -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.9)
    cfg = _random_flux_cfg(lat, 109)
    cfg = Configuration(lat, cfg.gauge, cfg.phi, -np.ones(lat.shape), cfg.seed)
    rng = np.random.default_rng(110)
    worst = 0.0
    for k in range(10):
        g = GaugeTransform(rng.standard_normal(lat.shape), (k % 3 - 1, 0, 1, -2))
        moved = apply_gauge(g, cfg)
        for energy in (energy_weitzenbock, lambda c: energy_first_order(c, table=table)):
            before, after = energy(cfg), energy(moved)
            worst = max(worst, abs(after - before) / abs(before))
    return CheckResult("energy_gauge_invariance", worst, 1e-10)


def _check_gradient() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.7)
    cfg = _random_flux_cfg(lat, 111)
    cfg = Configuration(lat, cfg.gauge, cfg.phi, -np.ones(lat.shape), cfg.seed)
    worst = fd_gradient_check(cfg, step=1e-5, n_directions=10, seed=112)
    return CheckResult("gradient_matches_finite_differences", worst, 1e-5)


def _check_lower_bound() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.8)
    rng = np.random.default_rng(113)
    worst = -np.inf
    for seed in range(10):
        cfg = random_configuration(lat, 200 + seed, (0.5, 1.2))
        cfg = Configuration(lat, cfg.gauge, cfg.phi, rng.standard_normal(lat.shape), cfg.seed)
        bound = energy_lower_bound(lat, cfg.scalar_curvature)
        worst = max(worst, bound - energy_weitzenbock(cfg))
    return CheckResult("energy_lower_bound_margin", worst, 0.0)


def _check_coulomb_residual() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.7)
    worst = 0.0
    for seed in range(5):
        cfg = _random_flux_cfg(lat, 300 + seed)
        fixed, report = full_gauge_fix(cfg)
        worst = max(worst, report.residual / (1.0 + sobolev12_norm(lat, cfg.gauge.a)))
    return CheckResult("coulomb_residual", worst, 1e-8)


def _check_hodge_bound(dims) -> CheckResult:
    lat = Lattice(dims, 0.5)
    consts = hodge_constants(lat)
    worst = 0.0
    for seed in range(10):
        cfg = random_configuration(lat, 400 + seed, (0.8, 0.5))
        fixed, _ = full_gauge_fix(cfg)
        lhs = sobolev12_norm(lat, fixed.gauge.a)
        rhs = consts.curl_factor * l2_norm(lat, d1(lat, fixed.gauge.a)) + consts.harmonic_radius
        worst = max(worst, lhs / rhs)
    name = "hodge_sobolev_bound_" + "x".join(str(n) for n in dims)
    return CheckResult(name, worst, 1.0)


def _check_flux_quantization() -> CheckResult:
    lat = Lattice((3, 3, 3, 3), 0.6)
    flux = np.zeros((4, 4), dtype=int)
    flux[0, 1], flux[1, 0] = 1, -1
    cfg = random_configuration(lat, 115, (0.4, 0.0), flux=flux)
    F = curvature(cfg)
    h2 = lat.spacing**2
    # sum F over each (0,1)-plane slice: fix the transverse coordinates
    plane_sums = h2 * F[..., 0].sum(axis=(0, 1))
    worst = float(np.max(np.abs(plane_sums - 2.0 * np.pi)))
    return CheckResult("flux_quantization", worst, 1e-10)


def smooth_configuration(n: int) -> Configuration:
    """Single-mode smooth fields sampled on an n^4 unit-torus lattice.

    Used by the refinement study: the two energy forms disagree by a
    discretization defect that contracts as the mesh is refined.
    """
    lat = Lattice((n, n, n, n), 1.0 / n)
    axes = [np.arange(m) / m for m in lat.dims]
    x0, x1, x2, x3 = np.meshgrid(*axes, indexing="ij")
    tp = 2.0 * np.pi
    a = np.zeros(lat.shape + (4,))
    a[..., 0] = 0.3 * np.sin(tp * x1)
    a[..., 1] = 0.2 * np.cos(tp * x2)
    a[..., 2] = 0.25 * np.sin(tp * x3)
    a[..., 3] = 0.15 * np.cos(tp * x0)
    phi = np.zeros(lat.shape + (2,), dtype=complex)
    phi[..., 0] = 0.8 + 0.3 * np.exp(1j * tp * x0)
    phi[..., 1] = 0.2 + 0.4 * np.exp(-1j * tp * x2)
    s = -0.5 * np.ones(lat.shape)
    return Configuration(lat, GaugeField(a, np.zeros((4, 4), int)), phi, s)


def _check_weitzenbock_refinement() -> CheckResult:
    gaps = []
    for n in (4, 8):
        cfg = smooth_configuration(n)
        gaps.append(abs(energy_first_order(cfg) - energy_weitzenbock(cfg)))
    return CheckResult("weitzenbock_gap_contraction", gaps[0] / gaps[1], 1.5, op=">=")


def run_checks(level: str = "fast", table: CliffordTable | None = None) -> list[CheckResult]:
    """Run the invariant suite; `table` overrides the Clifford table under test."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be fast or full, got {level!r}")
    tbl = standard_table() if table is None else table
    results = [
        _check_clifford(tbl),
        _check_quadratic_form(tbl),
        _check_dd_zero(),
        _check_adjoint_d0(),
        _check_adjoint_d1(),
        _check_adjoint_covariant_diff(),
        _check_adjoint_dirac(tbl),
        _check_gauge_invariance(tbl),
        _check_gradient(),
        _check_lower_bound(),
        _check_coulomb_residual(),
        _check_hodge_bound((3, 3, 3, 3)),
        _check_flux_quantization(),
    ]
    if level == "full":
        results.append(_check_hodge_bound((4, 4, 4, 4)))
        results.append(_check_hodge_bound((8, 8, 8, 8)))
        results.append(_check_weitzenbock_refinement())
    return results
