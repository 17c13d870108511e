"""Containers, gauge action, flux sectors, JSON round trips."""

import json
import os
import re

import numpy as np
import pytest

from oracles import compose, flux_matrix, inverse
from swflow.fields import (
    Configuration,
    GaugeField,
    GaugeTransform,
    apply_gauge,
    check_flux_matrix,
    json_text,
    load_configuration,
    random_configuration,
    save_configuration,
    transform_angle,
    write_atomic,
)
from swflow.lattice import PLANES, Lattice, d1
from swflow.operators import curvature, link_phases

rng = np.random.default_rng(20260403)


def random_cfg(lat, seed=7, flux=None):
    s = rng.standard_normal(lat.dims)
    return random_configuration(lat, seed, (0.8, 1.1), flux=flux, scalar_curvature=s)


def random_transform(lat, winding=(0, 0, 0, 0)):
    return GaugeTransform(rng.standard_normal(lat.dims), winding)


def zero_cfg(lat, flux):
    """The flux sector's background alone: zero fluctuation and spinor."""
    return random_configuration(lat, 0, (0.0, 0.0), flux=flux)


def background_phases(lat, flux):
    """exp(i theta) of the background angles, the square of the spinor transport."""
    return link_phases(zero_cfg(lat, flux)) ** 2


def plaquette_angles(lat, u, mu, nu):
    """Compact plaquette holonomy angle in (-pi, pi] from link phases."""
    hol = (
        u[..., mu]
        * np.roll(u[..., nu], -1, axis=mu)
        * np.conj(np.roll(u[..., mu], -1, axis=nu))
        * np.conj(u[..., nu])
    )
    return np.angle(hol)


def test_flux_matrix_validation():
    check_flux_matrix(flux_matrix(f01=3, f23=-2))
    with pytest.raises(ValueError):
        check_flux_matrix(np.ones((4, 4), dtype=int))  # not antisymmetric
    with pytest.raises(ValueError):
        check_flux_matrix(flux_matrix(f01=1) * 0.5)  # not integer
    with pytest.raises(ValueError):
        check_flux_matrix(np.zeros((3, 3), dtype=int))
    infinite = flux_matrix(f01=1).astype(float)
    # both entries cast to INT_MIN, which passes the antisymmetry test
    infinite[0, 1], infinite[1, 0] = np.inf, -np.inf
    with pytest.raises(ValueError, match="finite"):
        check_flux_matrix(infinite)


def test_flux_entries_must_be_numbers():
    a = np.zeros((2, 2, 2, 2, 4))
    for entry in (None, "0", {}, True, False):
        with pytest.raises(ValueError, match="numbers"):
            GaugeField(a, [[entry] * 4] * 4)
        with pytest.raises(ValueError, match="numbers"):
            check_flux_matrix([[entry] * 4] * 4)


def test_configuration_shape_and_finiteness_validation():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_cfg(lat)
    with pytest.raises(ValueError):
        Configuration(lat, cfg.gauge, cfg.phi[..., :1], cfg.scalar_curvature)
    bad = cfg.phi.copy()
    bad[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Configuration(lat, cfg.gauge, bad, cfg.scalar_curvature)
    with pytest.raises(ValueError):
        GaugeField(np.full(lat.dims + (4,), np.inf), np.zeros((4, 4), dtype=int))


def test_identity_transform_is_identity():
    lat = Lattice((3, 2, 2, 3), 0.8)
    cfg = random_cfg(lat)
    out = apply_gauge(GaugeTransform(np.zeros(lat.dims)), cfg)
    assert np.array_equal(out.gauge.a, cfg.gauge.a)
    assert np.array_equal(out.phi, cfg.phi)


def test_pure_winding_shifts_a_by_constant():
    lat = Lattice((4, 3, 2, 2), 0.6)
    cfg = random_cfg(lat)
    out = apply_gauge(GaugeTransform(np.zeros(lat.dims), (1, 0, 0, 0)), cfg)
    shift = out.gauge.a - cfg.gauge.a
    assert np.allclose(shift[..., 0], 2.0 * np.pi / (4 * 0.6))
    assert np.allclose(shift[..., 1:], 0.0)
    assert np.allclose(np.abs(out.phi), np.abs(cfg.phi))


def test_gauge_action_preserves_pointwise_norm_and_curvature():
    lat = Lattice((3, 4, 2, 3), 0.9)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1, f23=-2))
    g = random_transform(lat, winding=(2, -1, 0, 3))
    out = apply_gauge(g, cfg)
    assert np.allclose(np.abs(out.phi), np.abs(cfg.phi), rtol=1e-13)
    # d1(a) is exactly invariant: windings add constants, zeta adds d0 zeta
    assert np.allclose(d1(lat, out.gauge.a), d1(lat, cfg.gauge.a), atol=1e-12)
    assert np.array_equal(out.gauge.flux, cfg.gauge.flux)


def test_gauge_composition_both_orderings():
    lat = Lattice((3, 3, 2, 2), 1.1)
    cfg = random_cfg(lat)
    g1 = random_transform(lat, winding=(1, 0, -2, 0))
    g2 = random_transform(lat, winding=(0, 3, 1, -1))
    seq = apply_gauge(g2, apply_gauge(g1, cfg))
    combined = apply_gauge(compose(g1, g2), cfg)
    assert np.allclose(seq.gauge.a, combined.gauge.a, atol=1e-12)
    assert np.allclose(seq.phi, combined.phi, atol=1e-12)


def test_gauge_inverse_round_trip():
    lat = Lattice((2, 3, 3, 2), 0.7)
    cfg = random_cfg(lat)
    g = random_transform(lat, winding=(0, -1, 2, 1))
    back = apply_gauge(inverse(g), apply_gauge(g, cfg))
    assert np.allclose(back.gauge.a, cfg.gauge.a, atol=1e-12)
    assert np.allclose(back.phi, cfg.phi, atol=1e-12)


def test_transform_angle_matches_definition():
    lat = Lattice((3, 2, 4, 2), 1.0)
    g = random_transform(lat, winding=(1, 0, -2, 0))
    theta = transform_angle(lat, g)
    x = tuple(rng.integers(0, n) for n in lat.dims)
    want = g.zeta[x] + 2.0 * np.pi * (1 * x[0] / 3 + (-2) * x[2] / 4)
    assert theta[x] == pytest.approx(want)


def test_lattice_mismatch_rejected():
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_cfg(lat)
    g = GaugeTransform(np.zeros((3, 2, 2, 2)))
    with pytest.raises(ValueError):
        apply_gauge(g, cfg)


def test_flux_background_zero_sector():
    lat = Lattice((3, 3, 3, 3), 0.5)
    u = background_phases(lat, np.zeros((4, 4), dtype=int))
    assert np.array_equal(u, np.ones(lat.dims + (4,)))


def test_flux_background_uniform_holonomy():
    lat = Lattice((4, 4, 3, 2), 0.75)
    n = flux_matrix(f01=1)
    u = background_phases(lat, n)
    ang = plaquette_angles(lat, u, 0, 1)
    assert np.allclose(ang, 2.0 * np.pi / 16.0, atol=1e-12)
    # other planes carry no holonomy
    for mu, nu in PLANES[1:]:
        assert np.allclose(plaquette_angles(lat, u, mu, nu), 0.0, atol=1e-12)


def test_flux_background_plane_sums_quantized():
    lat = Lattice((4, 3, 5, 2), 0.6)
    n = flux_matrix(f01=2, f23=-1, f12=1)
    u = background_phases(lat, n)
    for mu, nu in PLANES:
        ang = plaquette_angles(lat, u, mu, nu)
        # fix the transverse coordinates, sum the full (mu, nu) plane
        idx = [0, 0, 0, 0]
        idx[mu] = slice(None)
        idx[nu] = slice(None)
        total = float(np.sum(ang[tuple(idx)]))
        assert total == pytest.approx(2.0 * np.pi * n[mu, nu], abs=1e-10)


def test_background_curvature_constant_and_quantized():
    lat = Lattice((4, 3, 2, 5), 0.9)
    n = flux_matrix(f02=3, f13=-2)
    F = curvature(zero_cfg(lat, n))
    h2 = lat.spacing**2
    for i, (mu, nu) in enumerate(PLANES):
        want = 2.0 * np.pi * n[mu, nu] / (lat.dims[mu] * lat.dims[nu] * h2)
        assert np.allclose(F[..., i], want)
        plane_sum = want * lat.dims[mu] * lat.dims[nu] * h2
        assert plane_sum == pytest.approx(2.0 * np.pi * n[mu, nu])


def test_random_configuration_contracts():
    lat = Lattice((3, 2, 3, 2), 1.2)
    c1 = random_configuration(lat, 42, (0.5, 0.7))
    c2 = random_configuration(lat, 42, (0.5, 0.7))
    assert np.array_equal(c1.gauge.a, c2.gauge.a)
    assert np.array_equal(c1.phi, c2.phi)
    assert c1.seed == 42
    zero = random_configuration(lat, 1, (0.0, 0.0))
    assert np.all(zero.gauge.a == 0.0) and np.all(zero.phi == 0.0)
    with pytest.raises(ValueError):
        random_configuration(lat, 1, (-0.1, 1.0))


def test_save_load_round_trip_exact(tmp_path):
    lat = Lattice((3, 2, 4, 2), 0.85)
    cfg = random_cfg(lat, flux=flux_matrix(f01=1, f23=2))
    path = tmp_path / "cfg.json"
    save_configuration(cfg, path)
    back = load_configuration(path)
    assert back.lattice == cfg.lattice
    assert np.array_equal(back.gauge.a, cfg.gauge.a)
    assert np.array_equal(back.gauge.flux, cfg.gauge.flux)
    assert np.array_equal(back.phi, cfg.phi)
    assert np.array_equal(back.scalar_curvature, cfg.scalar_curvature)
    assert back.seed == cfg.seed


# doubles that a writer printing too few digits, or dropping the sign of
# zero, cannot bring back: thirds, a non-dyadic decimal, the smallest
# subnormal, the largest finite double, negative zero
EDGE_VALUES = (1.0 / 3.0, 0.1, 5e-324, 1.7976931348623157e308, -0.0)


def salted_cfg(lat, flux=None):
    """random_cfg with every edge value planted in a, Re phi, Im phi and s."""
    cfg = random_cfg(lat, flux=flux)
    a, phi, s = cfg.gauge.a.copy(), cfg.phi.copy(), cfg.scalar_curvature.copy()
    n = len(EDGE_VALUES)
    a.reshape(-1)[:n] = EDGE_VALUES
    phi.real.reshape(-1)[:n] = EDGE_VALUES
    phi.imag.reshape(-1)[-n:] = EDGE_VALUES
    s.reshape(-1)[-n:] = EDGE_VALUES
    return Configuration(lat, GaugeField(a, cfg.gauge.flux), phi, s, seed=cfg.seed)


def assert_bit_identical(back, cfg):
    assert back.lattice == cfg.lattice
    assert back.seed == cfg.seed
    assert np.array_equal(back.gauge.flux, cfg.gauge.flux)
    pairs = [
        (back.gauge.a, cfg.gauge.a),
        (back.phi.real, cfg.phi.real),
        (back.phi.imag, cfg.phi.imag),
        (back.scalar_curvature, cfg.scalar_curvature),
    ]
    for got, want in pairs:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_save_writes_full_precision_reals(tmp_path):
    lat = Lattice((2, 2, 2, 2), 1.0 / 3.0)
    cfg = salted_cfg(lat)
    path = tmp_path / "cfg.json"
    save_configuration(cfg, path)
    text = path.read_text()
    assert "nan" not in text.lower() and "infinity" not in text.lower()
    assert_bit_identical(load_configuration(path), cfg)


def test_load_reads_seventeen_digit_documents(tmp_path):
    # configurations once printed every real as format(v, ".16e"); those
    # files must keep loading to the same arrays
    lat = Lattice((3, 2, 2, 3), 0.7)
    cfg = salted_cfg(lat, flux=flux_matrix(f01=1, f23=-2))
    path = tmp_path / "cfg.json"
    save_configuration(cfg, path)

    def emit(v):
        if isinstance(v, float):
            return format(v, ".16e")
        if isinstance(v, list):
            return "[" + ", ".join(emit(x) for x in v) + "]"
        return json.dumps(v)

    doc = json.loads(path.read_text())
    old = tmp_path / "old.json"
    old.write_text("{" + ", ".join(f"{json.dumps(k)}: {emit(v)}" for k, v in doc.items()) + "}\n")
    assert re.search(r"3\.3333333333333331e-01", old.read_text())
    assert_bit_identical(load_configuration(old), cfg)


def test_flat_order_is_site_major_x1_fastest(tmp_path):
    lat = Lattice((3, 2, 2, 2), 1.0)
    a = np.zeros(lat.dims + (4,))
    # encode (x1, mu) in the value; x1 must advance once per 4 entries
    for x1 in range(3):
        for mu in range(4):
            a[x1, 0, 0, 0, mu] = 100.0 * x1 + mu + 1.0
    cfg = Configuration(
        lat,
        GaugeField(a, np.zeros((4, 4), dtype=int)),
        np.zeros(lat.dims + (2,), dtype=complex),
        np.zeros(lat.dims),
    )
    path = tmp_path / "cfg.json"
    save_configuration(cfg, path)
    flat = json.loads(path.read_text())["a"]
    head = flat[: 3 * 4]
    want = [100.0 * x1 + mu + 1.0 for x1 in range(3) for mu in range(4)]
    assert head == want


def test_load_rejects_bad_documents(tmp_path):
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_cfg(lat)
    good = tmp_path / "good.json"
    save_configuration(cfg, good)
    doc = json.loads(good.read_text())

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValueError, match="JSON"):
        load_configuration(bad)

    for version in (99, True):
        bad.write_text(json.dumps(dict(doc, version=version)))
        with pytest.raises(ValueError, match="version"):
            load_configuration(bad)

    doc3 = dict(doc)
    doc3["a"] = doc3["a"][:-1]
    bad.write_text(json.dumps(doc3))
    with pytest.raises(ValueError, match="length"):
        load_configuration(bad)

    doc4 = dict(doc)
    del doc4["phi_re"]
    bad.write_text(json.dumps(doc4))
    with pytest.raises(ValueError, match="missing"):
        load_configuration(bad)

    # dims and seed are integers; they are never truncated on the way in, and
    # the spacing is a number, not a numeric string
    for key, value in (("dims", [2, 2, 2, 2.9]), ("dims", [2, 2, "2", 2]), ("dims", 16),
                       ("seed", 1.5), ("seed", "7"), ("seed", True),
                       ("spacing", "1.0"), ("spacing", True)):
        bad.write_text(json.dumps(dict(doc, **{key: value})))
        with pytest.raises(ValueError, match=key):
            load_configuration(bad)
    bad.write_text(json.dumps(dict(doc, spacing=[1.0])))
    with pytest.raises(ValueError):
        load_configuration(bad)


def test_load_maps_every_malformed_field_to_one_value_error(tmp_path):
    cfg = random_cfg(Lattice((2, 2, 2, 2), 1.0))
    save_configuration(cfg, tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    bad = tmp_path / "bad.json"
    for key, value in (("a", {}), ("a", [{}] * len(doc["a"])), ("phi_im", None),
                       ("s", [[1.0]] * len(doc["s"])), ("flux", [[None] * 4] * 4),
                       ("flux", [["0"] * 4] * 4), ("flux", [[2**70] * 4] * 4)):
        bad.write_text(json.dumps(dict(doc, **{key: value})))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_configuration(bad)


def test_windings_and_seeds_must_be_integers():
    lat = Lattice((2, 2, 2, 2), 1.0)
    for winding in ((0, 0, 0, 1.5), (0, 0, 0, 1.0), (True, 0, 0, 0)):
        with pytest.raises(ValueError, match="winding"):
            GaugeTransform(np.zeros(lat.dims), winding)
    k = GaugeTransform(np.zeros(lat.dims), tuple(np.array([1, -2, 0, 3]))).winding
    assert k == (1, -2, 0, 3) and all(type(v) is int for v in k)
    for seed in (1.5, 1.0, "3", None, False):
        with pytest.raises(ValueError, match="seed"):
            random_configuration(lat, seed, (0.1, 0.1))
    assert random_configuration(lat, np.int64(9), (0.1, 0.1)).seed == 9


def test_write_atomic_replaces_whole_file_or_nothing(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    write_atomic({path: json_text({"x": 0.1, "k": [1, 2]})})
    assert path.read_text() == '{"x": 0.1, "k": [1, 2]}\n'
    # nonstandard JSON is refused before any file is touched
    with pytest.raises(ValueError):
        json_text({"x": float("nan")})
    # a failed rename leaves the old bytes and no temp file behind
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic({path: json_text({"x": 2.0})})
    assert path.read_text() == '{"x": 0.1, "k": [1, 2]}\n'
    assert os.listdir(tmp_path) == ["doc.json"]
