"""Field containers, gauge transformations, flux sectors, serialization.

The gauge field is stored non-compactly: a real link 1-form a (the
fluctuation around the flux background, units 1/length) plus an integer
antisymmetric flux matrix selecting the bundle sector. The sector's
background (link angles with plaquette holonomy 2 pi n / (N_mu N_nu) on each
plane (mu, nu), and the constant curvature) is built once per lattice and
flux and shared read-only. Gauge transforms carry a periodic real angle zeta
plus four winding integers; windings are never baked into zeta, which keeps
branch cuts out of the fields entirely.

Every file swflow writes goes through write_atomic, which writes all the
files of one command before it renames any over its target, so a reader or a
failed write never sees half a file. JSON documents are standard JSON
(json_text) whose floats are the shortest decimals that read back to the same
doubles, so a saved configuration reloads bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .lattice import PLANES, Lattice, d0, require_int, require_real

FORMAT_VERSION = 1


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def check_flux_matrix(flux) -> np.ndarray:
    """Validate and return the 4x4 antisymmetric integer flux matrix."""
    f = np.asarray(flux)
    _require(f.shape == (4, 4), f"flux must be 4x4, got {f.shape}")
    _require(f.dtype.kind in "iufc", f"flux entries must be numbers, got dtype {f.dtype}")
    # a list that mixes booleans with numbers gets a number dtype; an array cannot hide one
    _require(isinstance(flux, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(flux, dtype=object).flat),
        "flux entries must be numbers, not booleans")
    _require(np.all(np.isfinite(f)), "flux entries must be finite")
    _require(
        not np.iscomplexobj(f) and np.all(f == np.round(f)) and np.all(np.abs(f) < 2.0**63),
        "flux entries must be integers within int64",
    )
    f = f.astype(int)
    _require(np.array_equal(f, -f.T), "flux matrix must be antisymmetric")
    return f


@dataclass(frozen=True)
class GaugeField:
    """Fluctuation 1-form a plus the integer flux sector."""

    a: np.ndarray
    flux: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        _require(a.ndim == 5 and a.shape[-1] == 4, f"a must be sites x 4, got {a.shape}")
        _require(np.all(np.isfinite(a)), "gauge field must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "flux", check_flux_matrix(self.flux))


@dataclass(frozen=True)
class GaugeTransform:
    """g(x) = exp(i (zeta(x) + 2 pi sum_mu k_mu x_mu / N_mu))."""

    zeta: np.ndarray
    winding: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        _require(z.ndim == 4, f"zeta must be a site scalar field, got shape {z.shape}")
        _require(np.all(np.isfinite(z)), "zeta must be finite")
        k = tuple(require_int(v, "winding") for v in self.winding)
        _require(len(k) == 4, "winding needs four integers")
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "winding", k)


@dataclass(frozen=True)
class Configuration:
    """A gauge field and a positive spinor field over one lattice.

    scalar_curvature is the coefficient field s(x) of the |phi|^2 term
    (units 1/length^2). seed records provenance when the configuration was
    randomly generated; it is carried through serialization untouched.
    """

    lattice: Lattice
    gauge: GaugeField
    phi: np.ndarray
    scalar_curvature: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        lat = self.lattice
        _require(
            self.gauge.a.shape == lat.dims + (4,),
            f"gauge field shape {self.gauge.a.shape} does not match lattice {lat.dims}",
        )
        phi = np.asarray(self.phi, dtype=complex)
        _require(
            phi.shape == lat.dims + (2,),
            f"spinor field must have shape {lat.dims + (2,)}, got {phi.shape}",
        )
        _require(np.all(np.isfinite(phi)), "spinor field must be finite")
        s = np.asarray(self.scalar_curvature, dtype=float)
        _require(
            s.shape == lat.dims,
            f"scalar curvature must have shape {lat.dims}, got {s.shape}",
        )
        _require(np.all(np.isfinite(s)), "scalar curvature must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "scalar_curvature", s)

    def replace(self, a=None, phi=None) -> "Configuration":
        """Copy with new field data; flux, s, and seed are carried over."""
        gauge = self.gauge if a is None else GaugeField(a, self.gauge.flux)
        return Configuration(
            self.lattice,
            gauge,
            self.phi if phi is None else phi,
            self.scalar_curvature,
            self.seed,
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
    """Unwrapped angle theta(x) = zeta(x) + 2 pi sum_mu k_mu x_mu / N_mu."""
    theta = g.zeta.copy()
    if any(g.winding):  # no coordinate grid for the Coulomb step's pure phase
        x = np.indices(lat.dims)
        for mu in range(4):
            if g.winding[mu]:
                theta += 2.0 * np.pi * g.winding[mu] * x[mu] / lat.dims[mu]
    return theta


def apply_gauge(g: GaugeTransform, cfg: Configuration) -> Configuration:
    """Gauge action: a += d theta, phi *= exp(-i theta), flux untouched.

    The winding part of theta is linear in x with a wrap discontinuity; its
    exact lattice differential is the constant 2 pi k_mu / (N_mu h) on
    direction mu, which is added directly so a stays smooth and periodic.
    """
    lat = cfg.lattice
    if g.zeta.shape != lat.dims:
        raise ValueError(
            f"transform on lattice {g.zeta.shape}, configuration on {lat.dims}"
        )
    a_new = cfg.gauge.a + d0(lat, g.zeta)
    for mu in range(4):
        if g.winding[mu]:
            a_new[..., mu] += 2.0 * np.pi * g.winding[mu] / (lat.dims[mu] * lat.spacing)
    phase = np.exp(-1j * transform_angle(lat, g))
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
    x = np.indices(lat.dims)
    for i, (mu, nu) in enumerate(PLANES):
        n = flux[mu, nu]
        if n == 0:
            continue
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
    nonnegative; (0, 0) gives the zero configuration.
    """
    seed = require_int(seed, "seed")
    amp_a, amp_phi = (require_real(v, "amplitude") for v in amplitudes)
    if amp_a < 0 or amp_phi < 0:
        raise ValueError(f"amplitudes must be nonnegative, got {amplitudes}")
    rng = np.random.default_rng(seed)
    a = amp_a * rng.standard_normal(lat.dims + (4,))
    phi = (amp_phi / np.sqrt(2.0)) * (
        rng.standard_normal(lat.dims + (2,)) + 1j * rng.standard_normal(lat.dims + (2,))
    )
    if flux is None:
        flux = np.zeros((4, 4), dtype=int)
    if scalar_curvature is None:
        scalar_curvature = np.zeros(lat.dims)
    return Configuration(lat, GaugeField(a, flux), phi, scalar_curvature, seed=seed)


def write_atomic(texts: dict):
    """Replace each file path -> text in texts, never leaving one half written.

    Each text goes to a new file beside its target (so it gets the usual umask
    permissions) and is synced; only when all are written are they renamed
    over their targets, in the order of texts. On any error before the first
    rename every temp file is removed and every target keeps its old bytes; a
    failed rename after an earlier one leaves the earlier targets replaced.
    """
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


def _flatten_site_major(u: np.ndarray) -> list:
    """Flatten with x1 varying fastest across sites, components fastest within."""
    return u.reshape(u.shape[:4] + (-1,)).transpose(3, 2, 1, 0, 4).ravel().tolist()


def _unflatten_site_major(vals, shape) -> np.ndarray:
    """Inverse of _flatten_site_major for a field of the given shape."""
    arr = np.asarray(vals, dtype=float)
    expect = int(np.prod(shape))
    if arr.shape != (expect,):
        raise ValueError(f"field length mismatch: expected {expect} values, got {arr.shape}")
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
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    version = doc.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
    missing = {"dims", "spacing", "flux", "a", "phi_re", "phi_im", "s"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    dims, seed = doc["dims"], doc.get("seed")
    try:
        if not isinstance(dims, list):
            raise ValueError(f"dims must be a list, got {dims!r}")
        lat = Lattice(tuple(dims), doc["spacing"])
        seed = None if seed is None else require_int(seed, "seed")
        a = _unflatten_site_major(doc["a"], lat.dims + (4,))
        # set the parts directly: re + 1j * im would turn an imaginary -0.0 into +0.0
        phi = _unflatten_site_major(doc["phi_re"], lat.dims + (2,)).astype(complex)
        phi.imag = _unflatten_site_major(doc["phi_im"], lat.dims + (2,))
        s = _unflatten_site_major(doc["s"], lat.dims)
        return Configuration(lat, GaugeField(a, doc["flux"]), phi, s, seed=seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
