### With positive curvature everywhere and zero flux, the only finite-energy
### rest point is the vacuum: the flow drives the spinor and the energy to
### zero together.

import numpy as np

from swflow import Lattice, MinimizeParams, minimize, random_configuration

lat = Lattice((4, 4, 4, 4), 1.0)
cfg = random_configuration(
    lat, seed=88, amplitudes=(0.2, 0.4),
    scalar_curvature=np.full(lat.dims, 1.0),
)

traj = minimize(
    cfg,
    MinimizeParams(
        max_iters=3000, grad_tol=1e-8, method="conjugate",
        gaugefix_every=10, record_every=40,
    ),
)

print("iter    energy        |grad|      |phi|_inf")
for r in traj.records:
    print(f"{r.iter:5d}  {r.energy:.4e}  {r.grad_norm:.3e}  {r.phi_linf:.3e}")

final = traj.records[-1]
print(f"\nterminated: {traj.reason} after {final.iter} iterations")
print(f"|phi|_inf = {final.phi_linf:.3e}, energy = {final.energy:.3e}")
assert traj.reason == "converged"
assert final.phi_linf <= 1e-3 and abs(final.energy) <= 1e-6
