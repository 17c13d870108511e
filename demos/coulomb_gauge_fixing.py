### Reduce a connection to its Coulomb normal form: divergence-free,
### harmonic part in the fundamental domain, integer windings stripped.
### Hodge constants from the closed-form spectral gap then bound the Sobolev norm
### of every fixed flux-free connection by its curvature alone.

import numpy as np

from swflow import (
    GaugeTransform,
    Lattice,
    apply_gauge,
    codiff1,
    curvature,
    full_gauge_fix,
    hodge_constants,
    l2_norm,
    random_configuration,
    sobolev12_norm,
)

lat = Lattice((4, 4, 4, 4), 0.9)
cfg = random_configuration(lat, seed=5, amplitudes=(0.8, 0.7))

### push the harmonic part out of the fundamental domain on purpose
a = cfg.gauge.a.copy()
a[..., 1] += 2.6 * 2.0 * np.pi / (lat.dims[1] * lat.spacing)
cfg = cfg.replace(a=a)

fixed, rep = full_gauge_fix(cfg)
print(f"Coulomb residual |div a'| = {rep.residual:.3e}")
print(f"windings removed          = {rep.winding}")
print(f"harmonic part             = " + ", ".join(f"{h:+.4f}" for h in rep.harmonic))
print(f"domain half-width pi/L    = {np.pi / (lat.dims[0] * lat.spacing):.4f}")

### idempotence: fixing a fixed configuration is the identity
again, rep2 = full_gauge_fix(fixed)
drift = float(np.max(np.abs(again.gauge.a - fixed.gauge.a)))
print(f"second pass moves a by    = {drift:.3e} (winding {rep2.winding})")

### a pure-gauge connection collapses to a = 0 exactly
rng = np.random.default_rng(77)
zero = random_configuration(lat, seed=6, amplitudes=(0.0, 0.8))
pure = apply_gauge(GaugeTransform(rng.standard_normal(lat.dims), (1, -2, 0, 3)), zero)
reduced, _ = full_gauge_fix(pure)
print(f"pure gauge reduces to     = {float(np.max(np.abs(reduced.gauge.a))):.3e}")

### Sobolev bound with constants from the 1-form Hodge Laplacian's gap, read
### off its Fourier symbol: the lowest mode along the longest direction.
### The determinant-line curvature is twice d1(a), hence the factor 1/2.
hc = hodge_constants(lat)
print(f"\nspectral gap {hc.spectral_gap:.4f}, curl factor {hc.curl_factor:.4f}, "
      f"harmonic radius {hc.harmonic_radius:.4f}")
worst = 0.0
for seed in range(25):
    c = random_configuration(lat, 300 + seed, (0.8, 0.7))
    f, _ = full_gauge_fix(c)
    lhs = sobolev12_norm(lat, f.gauge.a)
    rhs = 0.5 * hc.curl_factor * l2_norm(lat, curvature(f)) + hc.harmonic_radius
    worst = max(worst, lhs / rhs)
print(f"worst |a|_(1,2) / bound over 25 fixed configurations: {worst:.3f}")
assert worst <= 1.0
assert float(l2_norm(lat, codiff1(lat, fixed.gauge.a))) <= 1e-8
