### The energy is a function on the gauge quotient: random transforms,
### winding included, move the fields but not the numbers.  The flux
### integers, in turn, are pinned by quantization: every plane slice of
### the curvature integrates to 2 pi times the flux, no matter how the
### connection fluctuates.

import numpy as np

from swflow import (
    GaugeTransform,
    Lattice,
    PLANES,
    apply_gauge,
    curvature,
    energy_first_order,
    energy_weitzenbock,
    random_configuration,
)

lat = Lattice((4, 4, 4, 4), 0.7)

### one unit of flux through the (0,1) plane, minus one through (2,3)
flux = np.zeros((4, 4), dtype=int)
flux[0, 1], flux[1, 0] = 1, -1
flux[2, 3], flux[3, 2] = -1, 1
cfg = random_configuration(lat, seed=12, amplitudes=(0.6, 0.9), flux=flux)

e2, e1 = energy_weitzenbock(cfg), energy_first_order(cfg)
print(f"reference energies: E = {e2:.10f}   E' = {e1:.10f}")

rng = np.random.default_rng(34)
worst = 0.0
for trial in range(20):
    g = GaugeTransform(
        rng.standard_normal(lat.dims),
        tuple(int(k) for k in rng.integers(-2, 3, size=4)),
    )
    moved = apply_gauge(g, cfg)
    worst = max(
        worst,
        abs(energy_weitzenbock(moved) - e2) / abs(e2),
        abs(energy_first_order(moved) - e1) / abs(e1),
    )
print(f"worst relative drift over 20 transforms: {worst:.3e}")
assert worst <= 1e-10

### Flux quantization: sum h^2 F over each coordinate plane, slice by slice.
F = curvature(cfg)
cell = lat.spacing**2
print("\nplane   slice sums of h^2 F / (2 pi)   expected")
for i, (mu, nu) in enumerate(PLANES):
    sums = cell * F[..., i].sum(axis=(mu, nu)) / (2.0 * np.pi)
    lo, hi = float(sums.min()), float(sums.max())
    print(f"({mu},{nu})   [{lo:+.12f}, {hi:+.12f}]      {flux[mu, nu]:+d}")
    assert abs(lo - flux[mu, nu]) <= 1e-10 and abs(hi - flux[mu, nu]) <= 1e-10
