### Evaluate the energy in both forms and cross-check the exact gradient
### against central finite differences on a small random configuration.

import numpy as np

from swflow import (
    Lattice,
    energy_first_order,
    energy_lower_bound,
    energy_weitzenbock,
    gradient,
    l2_norm,
    random_configuration,
)
from swflow.checks import gradient_matches_finite_differences

lat = Lattice((3, 3, 3, 3), 0.8)

### A random flux-free configuration with a mildly negative curvature profile.
rng = np.random.default_rng(7)
cfg = random_configuration(
    lat, seed=7, amplitudes=(0.6, 0.9),
    scalar_curvature=-1.0 + 0.4 * rng.standard_normal(lat.dims),
)

e2 = energy_weitzenbock(cfg)
e1 = energy_first_order(cfg)
lb = energy_lower_bound(lat, cfg.scalar_curvature)
print(f"second-order energy  E  = {e2:+.10f}")
print(f"first-order energy   E' = {e1:+.10f}")
print(f"lower bound             = {lb:+.10f}")
print(f"discretization gap E'-E = {e1 - e2:+.3e}")

### The two forms integrate the same density up to a discrete Weitzenboeck
### defect, so they differ at finite spacing but never cross the bound.
assert e2 >= lb and e1 >= 0.0

g = gradient(cfg)
print(f"\ngradient norm            = {g.norm():.6f}")
print(f"  1-form part  |dE/da|   = {l2_norm(lat, g.da):.6f}")
print(f"  spinor part  |dE/dphi| = {l2_norm(lat, g.dphi):.6f}")

### 20 random coordinate directions, central differences with step 1e-5: the
### measure `swflow check` runs, here at the demo's own size and seed.
check = gradient_matches_finite_differences(cfg, seed=3, draws=20, step=1e-5)
print(f"\nworst relative FD error over 20 directions: {check.measured:.3e}")
assert check.passed, check.line()
