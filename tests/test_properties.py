"""Property tests over drawn lattices and fields.

save/load is bit-identical; shift is np.roll's permutation; the cached flux
background is never handed out for mutation; the invariant registry's
adjointness, gauge-invariance and flux-quantization measures hold at their
own tolerances over drawn shapes, spacings, flux sectors and windings; and the
staged evaluation rejects a trial only when the full energy fails the same
threshold, and otherwise returns the full evaluation bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from swflow import checks  # noqa: E402
from swflow.functional import Gradient, _evaluate  # noqa: E402
from swflow.fields import (  # noqa: E402
    Configuration,
    GaugeField,
    background_curvature,
    build_flux_background,
    load_configuration,
    random_configuration,
    save_configuration,
)
from swflow.lattice import PLANES, Lattice, shift  # noqa: E402
from swflow.optimize import descent_pairing  # noqa: E402

# doubles a lossy writer or reader would change: see tests/test_fields.py
EDGE_VALUES = (1.0 / 3.0, 0.1, 5e-324, 1.7976931348623157e308, -0.0)


DIMS = st.lists(st.integers(2, 5), min_size=4, max_size=4).map(tuple)


@st.composite
def flux_matrices(draw):
    flux = np.zeros((4, 4), dtype=int)
    for (mu, nu), n in zip(PLANES, draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))):
        flux[mu, nu], flux[nu, mu] = n, -n
    return flux


@st.composite
def configurations(draw):
    dims = draw(DIMS)
    spacing = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    flux = draw(flux_matrices())
    seed = draw(st.none() | st.integers(-(2**63), 2**63 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = [
        rng.standard_normal(dims + (4,)),
        rng.standard_normal(dims + (2,)),
        rng.standard_normal(dims + (2,)),
        rng.standard_normal(dims),
    ]
    for field in fields:
        flat = field.reshape(-1)
        where = draw(st.lists(st.integers(0, flat.size - 1), min_size=5, max_size=5, unique=True))
        flat[where] = EDGE_VALUES
    a, phi_re, phi_im, s = fields
    phi = phi_re.astype(complex)
    phi.imag = phi_im
    return Configuration(Lattice(dims, spacing), GaugeField(a, flux), phi, s, seed=seed)


@settings(max_examples=25, deadline=None)
@given(cfg=configurations())
def test_save_load_round_trip_is_bit_identical(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("roundtrip") / "cfg.json"
    save_configuration(cfg, path)
    back = load_configuration(path)
    assert back.lattice == cfg.lattice
    assert back.seed == cfg.seed
    assert np.array_equal(back.gauge.flux, cfg.gauge.flux)
    for got, want in [
        (back.gauge.a, cfg.gauge.a),
        (back.phi.real, cfg.phi.real),
        (back.phi.imag, cfg.phi.imag),
        (back.scalar_curvature, cfg.scalar_curvature),
    ]:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=60, deadline=None)
@given(
    dims=DIMS,
    trailing=st.sampled_from([(), (2,), (4, 2)]),
    is_complex=st.booleans(),
    mu=st.integers(0, 3),
    steps=st.integers(-7, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_shift_is_the_roll_permutation(dims, trailing, is_complex, mu, steps, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dims + trailing)
    if is_complex:
        u = u + 1j * rng.standard_normal(dims + trailing)
    got = shift(u, mu, steps)
    assert got.dtype == u.dtype
    assert np.array_equal(got, np.roll(u, -steps, axis=mu))


@settings(max_examples=20, deadline=None)
@given(dims=DIMS, spacing=st.floats(0.2, 3.0), flux=flux_matrices())
def test_flux_background_copies_are_independent_of_the_cache(dims, spacing, flux):
    lat = Lattice(dims, spacing)
    for build in (build_flux_background, background_curvature):
        first = build(lat, flux)
        want = first.copy()
        assert first.flags.writeable
        first += 1.0
        assert np.array_equal(build(lat, flux), want)


@settings(max_examples=15, deadline=None)
@given(
    dims=DIMS,
    spacing=st.floats(0.3, 2.0),
    flux=flux_matrices(),
    seed=st.integers(0, 2**31 - 1),
    windings=st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=2, max_size=2),
)
def test_registry_invariants_hold_over_drawn_problems(dims, spacing, flux, seed, windings):
    lat = Lattice(dims, spacing)
    cfg = random_configuration(lat, seed, (0.6, 0.9), flux=flux)
    results = [checks.adjoint_defect(name, cfg, seed + 1, 3) for name in checks.ADJOINT_PAIRS]
    results.append(checks.energy_gauge_invariance(cfg, seed + 2, 2, windings=windings))
    results.append(checks.flux_quantization(cfg))
    for result in results:
        assert result.passed, result.line()
    assert {r.tolerance for r in results} == {checks.IDENTITY_TOL, checks.GAUGE_TOL}


def _scalar_curvature(kind, lat, rng, height):
    if kind == "constant":
        return np.full(lat.dims, height)
    if kind == "random":
        return height * rng.standard_normal(lat.dims)
    x = np.indices(lat.dims) - (np.array(lat.dims) / 2.0).reshape(4, 1, 1, 1, 1)
    return height * np.exp(-np.sum(x**2, axis=0) / 2.0)


def _same_float(x, y):
    return np.array_equal(np.float64(x), np.float64(y), equal_nan=True)


@settings(max_examples=120, deadline=None)
@given(
    dims=DIMS,
    spacing=st.floats(0.3, 2.0),
    flux=st.just(np.zeros((4, 4), dtype=int)) | flux_matrices(),
    s_kind=st.sampled_from(["constant", "random", "bump"]),
    s_height=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**31 - 1),
    roughness=st.sampled_from([0.0, 1e-3, 1.0]),
    along_gradient=st.booleans(),
    log_t=st.floats(-8.0, 1.0) | st.floats(1.0, 200.0),
    armijo_c=st.floats(1e-6, 0.9),
    threshold=st.sampled_from(["armijo", "energy", "below", "above", "inf", "-inf", "nan"]),
)
def test_staged_evaluation_decides_as_the_full_energy(
    dims, spacing, flux, s_kind, s_height, seed, roughness, along_gradient, log_t, armijo_c,
    threshold,
):
    lat = Lattice(dims, spacing)
    rng = np.random.default_rng(seed)
    s = _scalar_curvature(s_kind, lat, rng, s_height)
    # a constant spinor plus noise: smooth fields make |grad phi|^2 small or
    # zero, where the partial energies come closest to the full one
    rough = random_configuration(lat, seed, (0.6 * roughness, 0.9 * roughness), flux=flux,
                                 scalar_curvature=s)
    cfg = rough.replace(phi=rough.phi + rng.standard_normal(2))
    base = _evaluate(cfg)
    g = base.gradient()
    if along_gradient:
        direction = g.scaled(-1.0)
    else:
        dphi = rng.standard_normal(g.dphi.shape) + 1j * rng.standard_normal(g.dphi.shape)
        direction = Gradient(lat, rng.standard_normal(g.da.shape), dphi)
    t = 10.0**log_t  # up to 1e200: the quartic term overflows to inf, and s|phi|^2 may give nan
    with np.errstate(all="ignore"):
        trial = cfg._trial(cfg.gauge.a + t * direction.da, cfg.phi + t * direction.dphi)
        full = _evaluate(trial)
        thr = {
            "armijo": base.energy + armijo_c * t * descent_pairing(g, direction),
            "energy": full.energy,
            "below": np.nextafter(full.energy, -np.inf),
            "above": np.nextafter(full.energy, np.inf),
            "inf": np.inf,
            "-inf": -np.inf,
            "nan": np.nan,
        }[threshold]
        staged = _evaluate(trial, float(thr))
    if staged is None:
        assert not full.energy <= thr
    else:
        assert _same_float(staged.energy, full.energy)
        for name in ("U", "grad", "fplus", "phi2"):
            assert np.array_equal(getattr(staged, name), getattr(full, name), equal_nan=True), name
