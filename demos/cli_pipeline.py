### Drive the command-line interface end to end: write a run config, launch
### `swflow run`, inspect history.csv and summary.json, then push the final
### configuration through `swflow gaugefix` and the self-check suite.

import csv
import json
import os
import subprocess
import sys
import tempfile

workdir = tempfile.mkdtemp(prefix="swflow-demo-")
out_dir = os.path.join(workdir, "out")
config = {
    "dims": [3, 3, 3, 3],
    "spacing": 1.5,
    "seed": 11,
    "amplitudes": {"a": 0.4, "phi": 1.0},
    "scalar_curvature": "bump:-2.0,1.5",
    "minimize": {"max_iters": 400, "grad_tol": 1e-5, "method": "conjugate"},
    "output_dir": out_dir,
}
config_path = os.path.join(workdir, "run.json")
with open(config_path, "w") as fh:
    json.dump(config, fh, indent=2)

def run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "swflow", *argv],
        capture_output=True, text=True,
    )
    print(f"$ swflow {' '.join(argv)}")
    print(proc.stdout.rstrip())
    assert proc.returncode == 0, proc.stderr
    return proc

run("run", config_path)

with open(os.path.join(out_dir, "history.csv")) as fh:
    rows = list(csv.DictReader(fh))
print(f"\nhistory.csv: {len(rows)} rows, columns {list(rows[0])}")
energies = [float(r["energy"]) for r in rows]
print(f"energy: {energies[0]:+.6f} -> {energies[-1]:+.6f} (monotone: "
      f"{all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))})")

with open(os.path.join(out_dir, "summary.json")) as fh:
    summary = json.load(fh)
print(f"summary: {summary['reason']} after {summary['iterations']} iterations, "
      f"final energy {summary['final']['energy']:+.6f}")

print()
fixed_path = os.path.join(workdir, "fixed.json")
run("gaugefix", os.path.join(out_dir, "final.json"), fixed_path)
with open(fixed_path + ".report.json") as fh:
    report = json.load(fh)
print(f"gaugefix report: residual {report['residual']:.3e}, "
      f"winding {report['winding']}")

print()
run("check", "--level", "fast")
