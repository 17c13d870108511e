"""The invariant registry and the field layout over lattice shapes: N = 2,
anisotropic and odd sides."""

import numpy as np
import pytest

from swflow import checks
from swflow.fields import random_configuration
from swflow.lattice import Lattice, codiff1, d1
from swflow.operators import covariant_diff, curvature, link_phases

SHAPES = [(2, 2, 2, 2), (3, 4, 2, 5), (5, 3, 3, 2)]


def mixed_flux(lat, seed):
    flux = np.zeros((4, 4), dtype=int)
    for (mu, nu), n in {(0, 1): 1, (1, 3): 2, (2, 3): -1}.items():
        flux[mu, nu], flux[nu, mu] = n, -n
    return random_configuration(lat, seed, (0.6, 0.9), flux=flux)


@pytest.mark.parametrize("dims", SHAPES)
def test_registry_holds_over_lattice_shapes(dims):
    lat = Lattice(dims, 0.7)
    cfg = mixed_flux(lat, 7)
    results = [checks.exterior_derivative_squares_to_zero(lat, 1, 10)]
    for i, name in enumerate(checks.ADJOINT_PAIRS):
        results.append(checks.adjoint_defect(name, cfg, 10 + i, 10))
    results += [checks.energy_gauge_invariance(cfg, 20, 10), checks.flux_quantization(cfg)]
    for result in results:
        assert result.passed, result.line()


@pytest.mark.parametrize("dims", SHAPES)
def test_component_built_fields_have_contiguous_components(dims):
    # the layout rule in the lattice docstring: public shape, component-major memory
    lat = Lattice(dims, 0.7)
    cfg = mixed_flux(lat, 7)
    fields = {"d1": (d1(lat, cfg.gauge.a), (6,)), "link_phases": (link_phases(cfg), (4,)),
              "covariant_diff": (covariant_diff(cfg), (4, 2)), "curvature": (curvature(cfg), (6,))}
    for name, (field, fiber) in fields.items():
        assert field.shape == dims + fiber, name
        # F[..., i], U[..., mu], grad[..., mu, :]
        assert all(c.flags.c_contiguous for c in np.moveaxis(field, 4, 0)), name


def test_registry_fails_on_broken_operators(monkeypatch):
    lat = Lattice((3, 4, 2, 5), 0.7)
    cfg = mixed_flux(lat, 7)
    monkeypatch.setattr(checks, "codiff1", lambda lat, v: 1.001 * codiff1(lat, v))
    monkeypatch.setattr(checks, "curvature", lambda c: curvature(c) + 1e-3)
    broken = [checks.adjoint_defect("adjoint_d0_codiff1", lat, 1, 3), checks.flux_quantization(cfg)]
    for result in broken:
        assert not result.passed, result.line()


def test_hodge_sobolev_bound_holds_at_12():
    # out of `swflow check --level full`, whose run time the benchmark measures
    result = checks.hodge_sobolev_bound(Lattice((12, 12, 12, 12), 0.5), 400, 10)
    assert result.passed, result.line()
