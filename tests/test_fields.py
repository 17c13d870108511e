"""Containers, gauge action, flux sectors, JSON round trips."""

import json
import os
import re

import numpy as np
import pytest

from oracles import EDGE_VALUES, compose, flux_matrix, gaussian, inverse, random_cfg, zero_cfg
import swflow.fields
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


def test_replace_refuses_a_wrongly_shaped_or_non_finite_field_by_name():
    cfg = random_cfg(Lattice((2, 3, 2, 2), 1.0), flux=flux_matrix(f01=1))
    for key, name, good in (("a", "gauge field", cfg.gauge.a), ("phi", "spinor field", cfg.phi)):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            cfg.replace(**{key: good[..., :1]})
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            cfg.replace(**{key: good[0]})
        for value in (np.nan, np.inf):
            bad = good.copy()
            bad[1, 2, 0, 1, 0] = value
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cfg.replace(**{key: bad})


# each field constructor -> (the name it refuses by, the field's fiber, the built field)
FIELD_CONSTRUCTORS = {
    "GaugeField.a": ("gauge field", (4,), lambda cfg, u: GaugeField(u, cfg.gauge.flux).a),
    "GaugeTransform.zeta": ("zeta", (), lambda cfg, u: GaugeTransform(u).zeta),
    "Configuration.phi": ("spinor field", (2,),
                          lambda cfg, u: Configuration(cfg.lattice, cfg.gauge, u, cfg.scalar_curvature).phi),
    "Configuration.s": ("scalar curvature", (),
                        lambda cfg, u: Configuration(cfg.lattice, cfg.gauge, cfg.phi, u).scalar_curvature),
    "replace.a": ("gauge field", (4,), lambda cfg, u: cfg.replace(a=u).gauge.a),
    "replace.phi": ("spinor field", (2,), lambda cfg, u: cfg.replace(phi=u).phi),
}


def one_true_among_floats(shape):
    """A nested list of 0.5 with one True, which numpy alone would cast to 1.0."""
    u = np.full(shape, 0.5, dtype=object)
    u.flat[3] = True
    return u.tolist()


# entries that break the numbers rule, each as a field of the given shape
NOT_NUMBERS = {
    "strings": lambda shape: np.full(shape, "0.5"),
    "booleans": lambda shape: np.ones(shape, dtype=bool),
    "objects": lambda shape: np.full(shape, 0.5, dtype=object),
    "one-true-in-a-list": one_true_among_floats,
    "complex": lambda shape: np.full(shape, 0.5 + 0.5j),
}


@pytest.mark.parametrize("where, entries", [
    (where, entries) for where in FIELD_CONSTRUCTORS for entries in NOT_NUMBERS
    if not (entries == "complex" and where.endswith("phi"))  # the one complex field
])
def test_field_constructors_refuse_entries_that_are_not_numbers_by_name(where, entries):
    name, fiber, build = FIELD_CONSTRUCTORS[where]
    cfg = random_cfg(Lattice((2, 3, 2, 2), 1.0), flux=flux_matrix(f01=1))
    with pytest.raises(ValueError, match=f"{name} entries must be"):
        build(cfg, NOT_NUMBERS[entries](cfg.lattice.dims + fiber))


@pytest.mark.parametrize("where", FIELD_CONSTRUCTORS)
def test_field_constructors_take_integers_as_floats(where):
    name, fiber, build = FIELD_CONSTRUCTORS[where]
    cfg = random_cfg(Lattice((2, 3, 2, 2), 1.0), flux=flux_matrix(f01=1))
    ints = np.arange(np.prod(cfg.lattice.dims + fiber)).reshape(cfg.lattice.dims + fiber) % 5 - 2
    for u in (ints, ints.astype(np.int32), ints.tolist()):
        field = build(cfg, u)
        assert field.dtype == (complex if name == "spinor field" else float)
        assert np.array_equal(field, ints)


@pytest.mark.parametrize("key", ["a", "phi_re", "phi_im", "s"])
def test_load_refuses_field_entries_that_are_not_numbers_by_key(tmp_path, key):
    save_configuration(random_cfg(Lattice((2, 3, 2, 2), 1.0)), tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    bad = tmp_path / "bad.json"
    # JSON holds no complex numbers and no object arrays: the other three kinds
    for entries in ("strings", "booleans", "one-true-in-a-list"):
        value = NOT_NUMBERS[entries]((len(doc[key]),))
        bad.write_text(json.dumps(dict(doc, **{key: value if isinstance(value, list) else value.tolist()})))
        with pytest.raises(ValueError, match=f": {key} entries must be real numbers"):
            load_configuration(bad)


def test_load_reads_integer_entries_as_the_floats_they_equal(tmp_path):
    save_configuration(random_cfg(Lattice((2, 3, 2, 2), 1.0)), tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    keys = ("a", "phi_re", "phi_im", "s")
    for name, entry in (("ints", round), ("floats", lambda v: float(round(v)))):
        rounded = {k: list(map(entry, doc[k])) for k in keys}
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, **rounded)))
    ints, floats = load_configuration(tmp_path / "ints.json"), load_configuration(tmp_path / "floats.json")
    for got, want in ((ints.gauge.a, floats.gauge.a), (ints.phi, floats.phi),
                      (ints.scalar_curvature, floats.scalar_curvature)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_replace_carries_the_validated_flux_s_and_seed_over_without_revalidating(monkeypatch):
    cfg = random_cfg(Lattice((2, 3, 2, 2), 1.0), seed=11, flux=flux_matrix(f01=1, f23=-2))
    calls = []
    validate = swflow.fields.check_flux_matrix
    monkeypatch.setattr(swflow.fields, "check_flux_matrix", lambda f: calls.append(1) or validate(f))
    a, phi = 2.0 * cfg.gauge.a, 0.5 * cfg.phi
    for new in (cfg.replace(a=a), cfg.replace(phi=phi), cfg.replace(a=a, phi=phi),
                apply_gauge(GaugeTransform(gaussian(cfg.lattice.dims, 1), (1, 0, -2, 0)), cfg)):
        assert new.lattice is cfg.lattice
        assert new.gauge.flux is cfg.gauge.flux
        assert new.scalar_curvature is cfg.scalar_curvature
        assert new.seed == cfg.seed
    assert calls == []
    assert cfg.replace(a=a).phi is cfg.phi and cfg.replace(a=a).gauge.a is a
    assert cfg.replace(phi=phi).gauge.a is cfg.gauge.a and cfg.replace(phi=phi).phi is phi
    # a real or integer field is stored in the field's own dtype
    assert cfg.replace(phi=np.ones(cfg.phi.shape)).phi.dtype == complex
    assert cfg.replace(a=np.ones(cfg.gauge.a.shape, dtype=int)).gauge.a.dtype == float


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
    g = GaugeTransform(gaussian(lat.dims, 1), (2, -1, 0, 3))
    out = apply_gauge(g, cfg)
    assert np.allclose(np.abs(out.phi), np.abs(cfg.phi), rtol=1e-13)
    # d1(a) is exactly invariant: windings add constants, zeta adds d0 zeta
    assert np.allclose(d1(lat, out.gauge.a), d1(lat, cfg.gauge.a), atol=1e-12)
    assert np.array_equal(out.gauge.flux, cfg.gauge.flux)


def test_gauge_composition_both_orderings():
    lat = Lattice((3, 3, 2, 2), 1.1)
    cfg = random_cfg(lat)
    g1 = GaugeTransform(gaussian(lat.dims, 1), (1, 0, -2, 0))
    g2 = GaugeTransform(gaussian(lat.dims, 2), (0, 3, 1, -1))
    seq = apply_gauge(g2, apply_gauge(g1, cfg))
    combined = apply_gauge(compose(g1, g2), cfg)
    assert np.allclose(seq.gauge.a, combined.gauge.a, atol=1e-12)
    assert np.allclose(seq.phi, combined.phi, atol=1e-12)


def test_gauge_inverse_round_trip():
    lat = Lattice((2, 3, 3, 2), 0.7)
    cfg = random_cfg(lat)
    g = GaugeTransform(gaussian(lat.dims, 1), (0, -1, 2, 1))
    back = apply_gauge(inverse(g), apply_gauge(g, cfg))
    assert np.allclose(back.gauge.a, cfg.gauge.a, atol=1e-12)
    assert np.allclose(back.phi, cfg.phi, atol=1e-12)


def test_transform_angle_matches_definition():
    lat = Lattice((3, 2, 4, 2), 1.0)
    g = GaugeTransform(gaussian(lat.dims, 1), (1, 0, -2, 0))
    x = np.indices(lat.dims)
    want = g.zeta + 2.0 * np.pi * (1 * x[0] / 3 + (-2) * x[2] / 4)
    assert transform_angle(lat, g) == pytest.approx(want)


@pytest.mark.parametrize("zeta_shape", [(2, 2, 2, 2), (5,)], ids=["other-lattice", "flat"])
def test_transform_angle_refuses_a_zeta_off_the_lattice(zeta_shape):
    # both used to return an angle of zeta's own shape, silently
    lat = Lattice((3, 3, 3, 3), 1.0)
    g = GaugeTransform(np.zeros(zeta_shape), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="zeta"):
        transform_angle(lat, g)
    with pytest.raises(ValueError, match="zeta"):
        apply_gauge(g, random_cfg(lat))


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


def test_zero_amplitudes_give_the_same_positive_zeros_for_every_seed(tmp_path):
    lat = Lattice((3, 4, 2, 5), 0.7)
    zeros = [random_configuration(lat, seed, (0.0, 0.0)) for seed in range(4)]
    for cfg in zeros:
        assert not any(np.signbit(f).any() for f in (cfg.gauge.a, cfg.phi.real, cfg.phi.imag))
        assert cfg.gauge.a.tobytes() == zeros[0].gauge.a.tobytes()
        assert cfg.phi.tobytes() == zeros[0].phi.tobytes()
    save_configuration(zeros[1], tmp_path / "zero.json")
    assert "-0.0" not in (tmp_path / "zero.json").read_text()


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

    for version in (99, True, 1.0):
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
    for seed in (1.5, 1.0, "3", None, False, -5):
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


def test_configuration_stores_an_int_seed_or_refuses_it(tmp_path):
    lat = Lattice((2, 2, 2, 2), 1.0)
    cfg = random_cfg(lat)

    def with_seed(seed):
        return Configuration(lat, cfg.gauge, cfg.phi, cfg.scalar_curvature, seed=seed)

    assert with_seed(None).seed is None
    numpy_seed = with_seed(np.int64(5))
    assert type(numpy_seed.seed) is int
    save_configuration(numpy_seed, tmp_path / "cfg.json")
    back = load_configuration(tmp_path / "cfg.json")
    assert back.seed == 5 and type(back.seed) is int
    for seed in (True, "x", 1.5):  # refused here, not written and then refused by the load
        with pytest.raises(ValueError, match="seed"):
            with_seed(seed)
