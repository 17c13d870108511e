"""Field containers, gauge transformations, flux sectors, serialization.

The gauge field is stored non-compactly: a real link 1-form a (the
fluctuation around the flux background, units 1/length) plus an integer
antisymmetric flux matrix selecting the bundle sector. The sector's
background (link angles with plaquette holonomy 2 pi n / (N_mu N_nu) on each
plane (mu, nu), and the constant curvature) is built once per lattice and
flux and shared read-only. Gauge transforms carry a periodic real angle zeta
plus four winding integers; windings are never baked into zeta, which keeps
branch cuts out of the fields entirely.

The numbers rule (_finite_field) holds every field argument, saved fields
included, to finite numbers, real for all but phi: strings, booleans (even one
in a list of numbers), other objects and complex values in a real field are
refused by name. Shapes against a lattice are lattice._check_form's rule.

Every JSON file swflow reads goes through read_json. Every file it writes
goes through write_atomic, which writes all the files of one command before it
renames any over its target, so a reader or a failed write never sees half a
file. JSON documents are standard JSON (json_text) whose floats are the
shortest decimals that read back to the same doubles, so a saved
configuration reloads bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .lattice import PLANES, Lattice, _check_form, d0, require_int, require_real

FORMAT_VERSION = 1


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _finite_field(u, dtype, name: str, lat: Lattice | None = None, fiber: tuple = ()) -> np.ndarray:
    """u under the numbers rule as dtype (None keeps its real dtype); given lat, a field of fiber on it."""
    try:
        arr = np.asarray(u)
    except ValueError:  # a ragged nested list
        raise ValueError(f"{name} must be an array of numbers") from None
    real = dtype is not complex
    # a list that mixes booleans with numbers gets a number dtype; an ndarray cannot hide one
    _require(arr.dtype.kind in ("iuf" if real else "iufc") and (isinstance(u, np.ndarray) or {
        bool, np.bool_}.isdisjoint(map(type, np.asarray(u, dtype=object).flat))),
        f"{name} entries must be {'real ' if real else ''}numbers, not strings, booleans or objects")
    arr = arr if dtype is None else arr.astype(dtype, copy=False)
    if lat is not None:
        _check_form(lat, arr, fiber, name)
    _require(np.all(np.isfinite(arr)), f"{name} must be finite")
    return arr


def check_flux_matrix(flux) -> np.ndarray:
    """Validate and return the 4x4 antisymmetric integer flux matrix."""
    f = _finite_field(flux, None, "flux")
    _require(f.shape == (4, 4), f"flux must be 4x4, got {f.shape}")
    _require(np.all(f == np.round(f)) and np.all(np.abs(f) < 2.0**63),
             "flux entries must be integers within int64")
    f = f.astype(int)
    _require(np.array_equal(f, -f.T), "flux matrix must be antisymmetric")
    return f


@dataclass(frozen=True)
class GaugeField:
    """Fluctuation 1-form a plus the integer flux sector; Configuration checks a's shape."""

    a: np.ndarray
    flux: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _finite_field(self.a, float, "gauge field"))
        object.__setattr__(self, "flux", check_flux_matrix(self.flux))


@dataclass(frozen=True)
class GaugeTransform:
    """g(x) = exp(i (zeta(x) + 2 pi sum_mu k_mu x_mu / N_mu)); transform_angle checks zeta's shape."""

    zeta: np.ndarray
    winding: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "zeta", _finite_field(self.zeta, float, "zeta"))
        k = tuple(require_int(v, "winding") for v in self.winding)
        _require(len(k) == 4, "winding needs four integers")
        object.__setattr__(self, "winding", k)


@dataclass(frozen=True)
class Configuration:
    """A gauge field and a positive spinor field over one lattice.

    scalar_curvature is the coefficient field s(x) of the |phi|^2 term
    (units 1/length^2). seed records provenance when the configuration was
    randomly generated; it is an int or None, carried through serialization.
    """

    lattice: Lattice
    gauge: GaugeField
    phi: np.ndarray
    scalar_curvature: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        lat = self.lattice
        _check_form(lat, self.gauge.a, (4,), "gauge field")
        phi = _finite_field(self.phi, complex, "spinor field", lat, (2,))
        s = _finite_field(self.scalar_curvature, float, "scalar curvature", lat)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "scalar_curvature", s)
        if self.seed is not None:  # a NumPy integer is stored as the int JSON can write
            object.__setattr__(self, "seed", require_int(self.seed, "seed"))

    def replace(self, a=None, phi=None) -> "Configuration":
        """Copy with new field data, each given field checked for shape and
        numbers (the numbers rule); the validated flux, s, and seed are carried over as they are."""
        return self._trial(
            self.gauge.a if a is None else _finite_field(a, float, "gauge field", self.lattice, (4,)),
            self.phi if phi is None else _finite_field(phi, complex, "spinor field", self.lattice, (2,)),
        )

    def _trial(self, a: np.ndarray, phi: np.ndarray) -> "Configuration":
        """replace without validation, for trial points derived from valid fields
        (float a, complex phi); the line search rejects every non-finite one."""
        gauge = object.__new__(GaugeField)
        gauge.__dict__.update(self.gauge.__dict__, a=a)
        trial = object.__new__(Configuration)
        trial.__dict__.update(self.__dict__, gauge=gauge, phi=phi)
        return trial


def transform_angle(lat: Lattice, g: GaugeTransform) -> np.ndarray:
    """Unwrapped angle theta(x) = zeta(x) + 2 pi sum_mu k_mu x_mu / N_mu, zeta a site field on lat."""
    _check_form(lat, g.zeta, (), "zeta")
    theta = g.zeta.copy()
    for k, x, n in zip(g.winding, np.indices(lat.dims, sparse=True), lat.dims):
        if k:  # adding 0.0 would turn a -0.0 of zeta into +0.0
            theta += 2.0 * np.pi * k * x / n
    return theta


def apply_gauge(g: GaugeTransform, cfg: Configuration) -> Configuration:
    """Gauge action: a += d theta, phi *= exp(-i theta), flux untouched.

    The winding part of theta is linear in x with a wrap discontinuity; its
    exact lattice differential is the constant 2 pi k_mu / (N_mu h) on
    direction mu, which is added directly so a stays smooth and periodic.
    """
    lat = cfg.lattice
    theta = transform_angle(lat, g)  # checks zeta's shape before d0 reads it
    a_new = cfg.gauge.a + d0(lat, g.zeta)
    for mu in range(4):
        if g.winding[mu]:
            a_new[..., mu] += 2.0 * np.pi * g.winding[mu] / (lat.dims[mu] * lat.spacing)
    phase = np.exp(-1j * theta)
    phi_new = phase[..., None] * cfg.phi
    return cfg.replace(a=a_new, phi=phi_new)


def _flux_background(lat: Lattice, flux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link angles, direction-major with shape (4,) + dims, and the per-plane
    curvature 6-vector of a validated flux: cached per (lattice, flux), read-only."""
    return _cached_background(lat, tuple(flux.ravel().tolist()))


@functools.lru_cache(maxsize=16)
def _cached_background(lat: Lattice, key: tuple) -> tuple[np.ndarray, np.ndarray]:
    flux = np.reshape(key, (4, 4))
    theta, F = np.zeros((4,) + lat.dims), np.zeros(6)
    x = np.indices(lat.dims, sparse=True)
    for i, (mu, nu) in enumerate(PLANES):  # a zero n adds +0.0 to angles that are never -0.0
        n = flux[mu, nu]
        nmu, nnu = lat.dims[mu], lat.dims[nu]
        theta[nu] += (2.0 * np.pi * n / (nmu * nnu)) * x[mu]
        # repair the wrap column so interior plaquettes stay uniform
        wrap = x[mu] == nmu - 1
        theta[mu] -= np.where(wrap, (2.0 * np.pi * n / nnu) * x[nu], 0.0)
        F[i] = 2.0 * np.pi * n / (nmu * nnu * lat.spacing**2)
    theta.flags.writeable = F.flags.writeable = False
    return theta, F


def random_configuration(
    lat: Lattice,
    seed: int,
    amplitudes,
    flux=None,
    scalar_curvature=None,
) -> Configuration:
    """Gaussian fields: a ~ amp_a * N(0,1) per link, phi with RMS amp_phi.

    Deterministic in seed. amplitudes is the pair (amp_a, amp_phi), both
    nonnegative; (0, 0) gives the zero configuration, the same +0.0 for every seed.
    """
    seed = require_int(seed, "seed")
    if seed < 0:  # a Configuration keeps any int as provenance, but numpy seeds are nonnegative
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    amp_a, amp_phi = (require_real(v, "amplitude") for v in amplitudes)
    if amp_a < 0 or amp_phi < 0:
        raise ValueError(f"amplitudes must be nonnegative, got {amplitudes}")
    rng = np.random.default_rng(seed)
    a = amp_a * rng.standard_normal(lat.dims + (4,))
    phi = (amp_phi / np.sqrt(2.0)) * (
        rng.standard_normal(lat.dims + (2,)) + 1j * rng.standard_normal(lat.dims + (2,))
    )
    # + 0.0 turns the -0.0 a zero amplitude leaves on negative draws into +0.0; other bits stay
    a += 0.0
    phi += 0.0
    if flux is None:
        flux = np.zeros((4, 4), dtype=int)
    if scalar_curvature is None:
        scalar_curvature = np.zeros(lat.dims)
    return Configuration(lat, GaugeField(a, flux), phi, scalar_curvature, seed=seed)


def write_atomic(texts: dict):
    """Replace each file path -> text in texts, never leaving one half written.

    A directory target (not a link to one) is refused before anything is written. Each text
    goes to a new file beside its target (so it gets the usual umask permissions) and is
    synced; only when all are written are they renamed over their targets, in the order of
    texts. On any error before the first rename every temp file is removed and every target
    keeps its old bytes; a failed rename after an earlier one leaves the earlier targets replaced.
    """
    for path in texts:
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(f"{path} is a directory")
    tmps = {}
    try:
        for path, text in texts.items():
            with open(f"{path}.{os.getpid()}.tmp", "x", encoding="utf-8", newline="") as fh:
                tmps[path] = fh.name
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
        for path in texts:
            os.replace(tmps[path], path)
            del tmps[path]
    except BaseException:
        for tmp in tmps.values():
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def json_text(doc) -> str:
    """doc as one line of standard JSON.

    Floats print as their repr, the shortest decimal that reads back to the
    same double; NaN and infinities raise ValueError instead of producing
    nonstandard JSON.
    """
    return json.dumps(doc, allow_nan=False) + "\n"


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path) -> dict:
    """The JSON object in the UTF-8 file at path; NaN, Infinity and a top level
    other than an object are refused. Every failure (a missing or unreadable
    file, bytes that are not UTF-8, a parse error, nesting too deep to parse)
    is one ValueError that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_not_a_number)
    except FileNotFoundError:
        raise ValueError(f"{path}: not found") from None
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except (ValueError, RecursionError) as exc:  # decode and parse errors are ValueErrors
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return doc


def _flatten_site_major(u: np.ndarray) -> list:
    """Flatten with x1 varying fastest across sites, components fastest within."""
    return u.reshape(u.shape[:4] + (-1,)).transpose(3, 2, 1, 0, 4).ravel().tolist()


def _unflatten_site_major(vals, shape, key: str) -> np.ndarray:
    """Inverse of _flatten_site_major for the field under key, of the given shape."""
    arr = _finite_field(vals, float, key)
    expect = int(np.prod(shape))
    if arr.shape != (expect,):
        raise ValueError(f"{key} length mismatch: expected {expect} values, got {arr.shape}")
    n1, n2, n3, n4 = shape[:4]
    return arr.reshape(n4, n3, n2, n1, -1).transpose(3, 2, 1, 0, 4).reshape(shape).copy()


def save_configuration(cfg: Configuration, path, others: dict | None = None):
    """Write a configuration as a single JSON document (format version 1).

    others maps further paths to texts, which write_atomic writes with it and
    renames before it.
    """
    lat = cfg.lattice
    write_atomic({**(others or {}), path: json_text({
        "version": FORMAT_VERSION,
        "dims": list(lat.dims),
        "spacing": lat.spacing,
        "flux": cfg.gauge.flux.tolist(),
        "a": _flatten_site_major(cfg.gauge.a),
        "phi_re": _flatten_site_major(cfg.phi.real),
        "phi_im": _flatten_site_major(cfg.phi.imag),
        "s": _flatten_site_major(cfg.scalar_curvature),
        "seed": cfg.seed,
    })})


def load_configuration(path) -> Configuration:
    """Read a configuration written by save_configuration; strict validation."""
    doc = read_json(path)
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
    missing = {"dims", "spacing", "flux", "a", "phi_re", "phi_im", "s"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    try:
        lat = Lattice(doc["dims"], doc["spacing"])
        a = _unflatten_site_major(doc["a"], lat.dims + (4,), "a")
        # set the parts directly: re + 1j * im would turn an imaginary -0.0 into +0.0
        phi = _unflatten_site_major(doc["phi_re"], lat.dims + (2,), "phi_re").astype(complex)
        phi.imag = _unflatten_site_major(doc["phi_im"], lat.dims + (2,), "phi_im")
        s = _unflatten_site_major(doc["s"], lat.dims, "s")
        return Configuration(lat, GaugeField(a, doc["flux"]), phi, s, seed=doc.get("seed"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
