### Minimize the energy on a torus with s = -1 everywhere, starting from a
### deliberately oversized spinor.  The flow lands on the lower bound, and
### the converged spinor obeys the maximum principle: |phi|^2 <= -min s.

import numpy as np

from swflow import (
    Lattice,
    MinimizeParams,
    energy_lower_bound,
    linf_norm,
    minimize,
    random_configuration,
)

lat = Lattice((4, 4, 4, 4), 1.0)
cfg = random_configuration(
    lat, seed=42, amplitudes=(0.4, 1.0),
    scalar_curvature=np.full(lat.dims, -1.0),
)
### inflate the spinor to three times the maximum-principle ceiling
cfg = cfg.replace(phi=cfg.phi * (3.0 / linf_norm(lat, cfg.phi)))

params = MinimizeParams(
    max_iters=2000, grad_tol=1e-5, method="conjugate",
    gaugefix_every=10, record_every=25,
)
traj = minimize(cfg, params)

print("iter    energy          |grad|      |phi|_inf   radial excess")
for r in traj.records:
    print(f"{r.iter:5d}  {r.energy:+.8f}  {r.grad_norm:.3e}  {r.phi_linf:.6f}  "
          f"{r.radial_excess:.3e}")

lb = energy_lower_bound(lat, traj.final.scalar_curvature)
final = traj.records[-1]
print(f"\nterminated: {traj.reason} after {final.iter} iterations")
print(f"final energy {final.energy:.8f}, lower bound {lb:.8f}, "
      f"gap {final.energy - lb:.3e}")
print(f"maximum principle: |phi|_inf = {final.phi_linf:.6f} "
      f"(ceiling sqrt(-min s) = {np.sqrt(final.threshold):.6f})")
assert traj.reason == "converged"
assert final.energy >= lb
assert final.phi_linf <= 1.0 + 1e-3
