"""Property tests over drawn lattices: save/load is bit-identical."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from swflow.fields import (  # noqa: E402
    Configuration,
    GaugeField,
    load_configuration,
    save_configuration,
)
from swflow.lattice import PLANES, Lattice  # noqa: E402

# doubles a lossy writer or reader would change: see tests/test_fields.py
EDGE_VALUES = (1.0 / 3.0, 0.1, 5e-324, 1.7976931348623157e308, -0.0)


@st.composite
def configurations(draw):
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=4, max_size=4)))
    spacing = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    flux = np.zeros((4, 4), dtype=int)
    for (mu, nu), n in zip(PLANES, draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))):
        flux[mu, nu], flux[nu, mu] = n, -n
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
