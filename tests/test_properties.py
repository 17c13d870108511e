"""Property tests over drawn lattices and fields.

save/load is bit-identical; shift is np.roll's permutation; the cached flux
background is never handed out for mutation; the invariant registry's
adjointness, gauge-invariance and flux-quantization measures hold at their
own tolerances over drawn shapes, spacings, flux sectors and windings; and the
line search's polynomial floor skips a trial only when its computed energy
fails the same threshold; excess_report fed from a held evaluation, and
full_gauge_fix, with its identity winding step skipped, equal the rebuilt
form and the two-step fix swflow first shipped; `swflow run` exits 0, or 2 with "bad config", on fuzzed
configs (always 2 for a string or bool spacing or amplitude), never with a
traceback; and `swflow gaugefix` exits 0, 1, or 2 with "cannot read
configuration", on saved configurations with one key replaced by a wrong
value, never with a traceback."""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from swflow import checks  # noqa: E402
from swflow.cli import main  # noqa: E402
from swflow.functional import Gradient, _evaluate, _line_floor, excess_report  # noqa: E402
from swflow.fields import (  # noqa: E402
    Configuration,
    GaugeField,
    GaugeTransform,
    _flux_background,
    apply_gauge,
    load_configuration,
    random_configuration,
    save_configuration,
)
from swflow.gaugefix import full_gauge_fix  # noqa: E402
from swflow.lattice import PLANES, Lattice, shift  # noqa: E402
from swflow.operators import curvature, link_phases  # noqa: E402
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
    zero = random_configuration(lat, 0, (0.0, 0.0), flux=flux)
    cached = _flux_background(lat, zero.gauge.flux)
    assert not any(c.flags.writeable for c in cached)
    for build in (link_phases, curvature):
        first = build(zero)
        want = first.copy()
        assert first.flags.writeable
        assert not any(np.shares_memory(first, c) for c in cached)
        first += 1.0
        assert np.array_equal(build(zero), want)


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


@settings(max_examples=150, deadline=None)
@given(
    dims=DIMS,
    spacing=st.floats(0.3, 2.0),
    flux=st.just(np.zeros((4, 4), dtype=int)) | flux_matrices(),
    s_kind=st.sampled_from(["constant", "random", "bump"]),
    s_height=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**31 - 1),
    amp_a=st.sampled_from([0.0, 1e-3, 0.6]),
    amp_phi=st.sampled_from([0.0, 1e-3, 0.9]),
    constant_phi=st.booleans(),
    pure_gauge=st.booleans(),
    along_gradient=st.booleans(),
    log_t=st.floats(-8.0, 1.0) | st.floats(1.0, 200.0),
    armijo_c=st.floats(1e-6, 0.9),
    threshold=st.sampled_from(["armijo", "energy", "below", "above", "partial", "partial-",
                               "partial+", "floor", "floor-", "inf", "-inf", "nan"]),
)
def test_line_floor_skips_only_trials_the_energy_rejects(
    dims, spacing, flux, s_kind, s_height, seed, amp_a, amp_phi, constant_phi, pure_gauge,
    along_gradient, log_t, armijo_c, threshold,
):
    lat = Lattice(dims, spacing)
    rng = np.random.default_rng(seed)
    s = _scalar_curvature(s_kind, lat, rng, s_height)
    # noise on a constant (or zero) spinor: smooth or vanishing spinors make
    # |grad phi|^2 small or zero, where the partial energy comes closest to
    # the full one
    rough = random_configuration(lat, seed, (amp_a, amp_phi), flux=flux, scalar_curvature=s)
    cfg = rough.replace(phi=rough.phi + constant_phi * rng.standard_normal(2))
    if pure_gauge:
        # a gauge transform by |chi| ~ 1e6 adds a = d0 chi: F and the energy
        # stay put while a, and the rounding of a + t da seen through d1, grow
        cfg = apply_gauge(GaugeTransform(1e6 * rng.standard_normal(dims)), cfg)
    base = _evaluate(cfg)
    g = base.gradient()
    if along_gradient:
        direction = g.scaled(-1.0)
    else:
        dphi = rng.standard_normal(g.dphi.shape) + 1j * rng.standard_normal(g.dphi.shape)
        direction = Gradient(lat, rng.standard_normal(g.da.shape), dphi)
    t = 10.0**log_t  # up to 1e200: the quartic term overflows to inf, and s|phi|^2 may give nan
    with np.errstate(all="ignore"):
        floor = _line_floor(cfg, direction, base.fplus)(t)
        full = _evaluate(cfg._trial(cfg.gauge.a + t * direction.da, cfg.phi + t * direction.dphi))
        # the partial energy the trial's own evaluation sums, without |grad phi|^2
        partial = lat.spacing**4 * np.sum(np.sum(full.fplus**2, axis=-1)
                                          + 0.25 * full.cfg.scalar_curvature * full.phi2
                                          + 0.125 * full.phi2**2)
        thr = {
            "armijo": base.energy + armijo_c * t * descent_pairing(g, direction),
            "energy": full.energy,
            "below": np.nextafter(full.energy, -np.inf),
            "above": np.nextafter(full.energy, np.inf),
            "partial": partial,
            "partial-": np.nextafter(partial, -np.inf),
            "partial+": np.nextafter(partial, np.inf),
            "floor": floor,
            "floor-": np.nextafter(floor, -np.inf),
            "inf": np.inf,
            "-inf": -np.inf,
            "nan": np.nan,
        }[threshold]
    if floor > thr:  # line_search skips this trial
        assert not full.energy <= thr
    if np.isfinite(full.energy):
        assert not floor > full.energy


@settings(max_examples=30, deadline=None)
@given(
    dims=DIMS,
    spacing=st.floats(0.3, 2.0),
    flux=flux_matrices(),
    s_kind=st.sampled_from(["constant", "random", "bump"]),
    s_height=st.floats(-3.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    amp_phi=st.sampled_from([0.9, 2.5]),
    winding=st.tuples(*[st.integers(-3, 3)] * 4).filter(any),
)
def test_held_pieces_and_the_skipped_identity_winding_change_nothing(
    dims, spacing, flux, s_kind, s_height, seed, amp_phi, winding,
):
    lat = Lattice(dims, spacing)
    s = _scalar_curvature(s_kind, lat, np.random.default_rng(seed), s_height)
    cfg = random_configuration(lat, seed, (0.6, amp_phi), flux=flux, scalar_curvature=s)
    held = _evaluate(cfg)
    assert excess_report(cfg, held.grad) == excess_report(cfg)
    # cfg's harmonic part is mostly inside the fundamental domain (zero winding);
    # the winding transform pushes it outside
    for start in (cfg, apply_gauge(GaugeTransform(np.zeros(dims), winding), cfg)):
        fixed, report = full_gauge_fix(start)
        coulomb, coulomb_report = oracles.coulomb_fix(start)
        want, want_report = oracles.component_fix(coulomb)
        assert np.array_equal(fixed.gauge.a, want.gauge.a)
        assert np.array_equal(fixed.phi, want.phi)
        assert np.array_equal(report.zeta, coulomb_report.zeta)
        assert (report.winding, report.residual, report.harmonic) == (
            want_report.winding, want_report.residual, want_report.harmonic)


# values of the wrong kind for any config key; none is a string, so a drawn
# output_dir cannot write outside its temporary directory
WRONG = (st.none() | st.booleans() | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -1])
         | st.lists(st.integers(-3, 3), max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
WRONG_OR_TEXT = WRONG | st.text(max_size=6)
# a number written as a string is not a number either
NUMERIC_TEXT = st.floats(0.5, 2.0).map(str) | st.sampled_from(["1", "0.3", "1e-1"])


@st.composite
def bad_flux(draw):
    flux = draw(flux_matrices()).astype(float)
    mu, nu = draw(st.sampled_from(PLANES))
    kind = draw(st.sampled_from(["half", "one-sided", "huge", "nan", "inf", "shape", "ragged"]))
    if kind == "half":
        flux[mu, nu], flux[nu, mu] = flux[mu, nu] + 0.5, -flux[mu, nu] - 0.5
    elif kind == "one-sided":
        flux[mu, nu] += 1
    elif kind == "huge":
        flux[mu, nu], flux[nu, mu] = 1e300, -1e300
    elif kind in ("nan", "inf"):
        flux[mu, nu] = float(kind)
    rows = flux.tolist()
    if kind == "ragged":
        rows[mu] = rows[mu][:2]
    return rows[:3] if kind == "shape" else rows


VALID_RUN = st.fixed_dictionaries(
    {
        "dims": st.lists(st.integers(2, 3), min_size=4, max_size=4),
        "spacing": st.floats(0.5, 2.0),
        "minimize": st.fixed_dictionaries({"max_iters": st.integers(0, 3)}, optional={
            "grad_tol": st.floats(1e-8, 1.0),
            "armijo_c": st.floats(1e-6, 0.5),
            "backtrack": st.floats(0.1, 0.9),
            "initial_step": st.floats(1e-3, 1e3),
            "method": st.sampled_from(["descent", "conjugate"]),
            "gaugefix_every": st.integers(0, 3),
            "record_every": st.integers(1, 3),
        }),
    },
    optional={
        "seed": st.integers(0, 2**64),
        "amplitudes": st.fixed_dictionaries({"a": st.floats(0.0, 1.0), "phi": st.floats(0.0, 2.0)}),
        "flux": st.none() | flux_matrices().map(np.ndarray.tolist),
        "scalar_curvature": st.floats(-3.0, 3.0) | st.builds("constant:{}".format, st.floats(-3.0, 3.0))
        | st.builds("bump:{},{}".format, st.floats(-3.0, 3.0), st.floats(0.5, 2.0) | st.just("inf")),
    },
)
# malformed values per config key ("minimize.<field>" for MinimizeParams fields)
BAD_VALUES = {
    "dims": WRONG_OR_TEXT | st.lists(st.sampled_from([1, -1, 2.5, "3", 3]), min_size=4, max_size=4)
    | st.lists(st.integers(2, 3), max_size=6).filter(lambda dims: len(dims) != 4),
    "spacing": WRONG_OR_TEXT | st.just(0) | NUMERIC_TEXT,
    "seed": WRONG_OR_TEXT | st.just(1.5),
    "amplitudes": WRONG_OR_TEXT | st.fixed_dictionaries(
        {}, optional={"a": WRONG_OR_TEXT | st.just(-0.1) | NUMERIC_TEXT, "phi": WRONG_OR_TEXT | NUMERIC_TEXT}),
    "flux": bad_flux() | WRONG_OR_TEXT,
    "scalar_curvature": WRONG_OR_TEXT | st.sampled_from([
        "bump:", "bump:1", "bump:1,2,3", "bump:,", "blob:1", "bump:nan,1", "bump:inf,1", "bump:1,0",
        "bump:1,-1", "bump:1,nan", "bump:1,1e-200", "bump:x,1", "constant:x", "constant:nan",
        "constant:inf", "constant:"]),
    "minimize": WRONG_OR_TEXT | st.just({"max_iters": 1, "step": 1.0}),
    "output_dir": WRONG,
    **{f"minimize.{name}": WRONG_OR_TEXT | st.just(bad) for name, bad in [
        ("max_iters", 2.5), ("grad_tol", 0.0), ("armijo_c", 1.5), ("backtrack", 0.0),
        ("initial_step", -1.0), ("method", "newton"), ("gaugefix_every", -1), ("record_every", 0)]},
}


@st.composite
def run_configs(draw):
    """`swflow run` configs on 2^4 to 3^4 with at most 3 iterations and up to
    two malformed keys, or a document that is not an object."""
    config = draw(VALID_RUN)
    for key in draw(st.sets(st.sampled_from(sorted(BAD_VALUES)), max_size=2)):
        if key.startswith("minimize.") and isinstance(config["minimize"], dict):
            config["minimize"][key[len("minimize."):]] = draw(BAD_VALUES[key])
        elif not key.startswith("minimize."):
            config[key] = draw(BAD_VALUES[key])
    return draw(st.just(config) | st.sampled_from([[], "config", 3, None]))


@settings(max_examples=200, deadline=None)
@given(config=run_configs())
def test_run_config_fuzz_exits_cleanly(tmp_path_factory, config):
    workdir = tmp_path_factory.mktemp("fuzz")
    if isinstance(config, dict):
        config.setdefault("output_dir", str(workdir / "out"))
    path = workdir / "run.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert "bad config" in err.getvalue()
    if isinstance(config, dict):
        amplitudes = config.get("amplitudes")
        numbers = [config["spacing"], *(amplitudes.values() if isinstance(amplitudes, dict) else ())]
        if any(isinstance(v, (str, bool)) for v in numbers):
            assert code == 2


# wrong values for one key of a saved configuration: a list value is either
# short or, with its entries repeated, as long as the list it replaces
WRONG_ENTRY = (st.none() | st.booleans() | st.text(max_size=3)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
               | st.lists(st.floats(-1.0, 1.0), max_size=2) | st.sampled_from([2**64, 10**400]))
WRONG_SAVED = WRONG_ENTRY | st.tuples(st.lists(WRONG_ENTRY, min_size=1, max_size=3), st.booleans())


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(["version", "dims", "spacing", "flux", "a", "phi_re", "phi_im", "s", "seed"]),
       wrong=WRONG_SAVED)
def test_gaugefix_on_malformed_saved_configuration_exits_cleanly(tmp_path_factory, key, wrong):
    workdir = tmp_path_factory.mktemp("fuzz")
    save_configuration(random_configuration(Lattice((2, 2, 2, 2), 1.0), 4, (0.4, 0.8)),
                       workdir / "valid.json")
    doc = json.loads((workdir / "valid.json").read_text())
    if isinstance(wrong, tuple):
        entries, full_length = wrong
        n = len(doc[key]) if full_length and isinstance(doc[key], list) else len(entries)
        wrong = (entries * n)[:n]
    doc[key] = wrong
    (workdir / "in.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(["gaugefix", str(workdir / "in.json"), str(workdir / "out.json")])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert "cannot read configuration" in err.getvalue()
