### Two minimization runs started from gauge-equivalent data are the same
### run on the quotient: re-fixing the gauge after every step, both land on
### one representative, and the per-step gauge motion decays summably.

import numpy as np

from swflow import (
    GaugeTransform,
    Lattice,
    MinimizeParams,
    apply_gauge,
    gauge_distance,
    linf_norm,
    minimize,
    ps_diagnostics,
    random_configuration,
)

lat = Lattice((3, 3, 3, 3), 1.5)
base = random_configuration(
    lat, seed=99, amplitudes=(0.4, 1.1),
    scalar_curvature=np.full(lat.dims, -1.0),
)
cfg = base.replace(phi=base.phi * (2.0 / linf_norm(lat, base.phi)))

rng = np.random.default_rng(6)
moved = apply_gauge(GaugeTransform(0.7 * rng.standard_normal(lat.dims), (2, -1, 0, 1)), cfg)
print(f"initial gauge distance between the two starts: {gauge_distance(cfg, moved):.3e}")

params = MinimizeParams(max_iters=4000, grad_tol=1e-5, gaugefix_every=1)
runs = [minimize(cfg, params), minimize(moved, params)]

for tag, traj in zip("AB", runs):
    diag = ps_diagnostics(traj)
    final = traj.records[-1]
    print(f"\nrun {tag}: {traj.reason} after {final.iter} iterations, "
          f"energy {final.energy:+.8f}")
    print(f"  gauge-step distance quartile sums: "
          + ", ".join(f"{q:.3e}" for q in diag.quartile_sums))
    print(f"  summable-decreasing: {diag.summable}, "
          f"first/last quartile ratio {diag.contraction_ratio:.1f}")
    assert traj.reason == "converged" and diag.summable

d = gauge_distance(runs[0].final, runs[1].final)
print(f"\ngauge distance between the two final configurations: {d:.3e}")
assert d <= 1e-6
