"""Check that two delaycomp checkouts write the same outputs.

Usage:  python tools/equivalence_probe.py CHECKOUT_A CHECKOUT_B

Each CHECKOUT is the root of a delaycomp source tree (the directory that
holds `src/delaycomp`).  In each checkout, from a fresh temporary
directory, the probe runs:

* `delaycomp simulate` on the CLI determinism scenario (M=20, dt=0.005,
  T=1.5), once each on the linear, the cubic and the double-integrator
  plant (X0 = 1.0, -0.5);
* `delaycomp verify` on the benchmark's certify scenario over the
  integer-ratio ladder 10:0.02,20:0.01,40:0.005;
* a two-cell `delaycomp sweep` over the feedback gain k;
* an eight-cell sweep over k, X0 and the estimate's amplitude, whose
  cells run as two lockstep ensembles of four (one per gain).

For every run it prints both exit codes and the `compare_outputs` table of
the two output trees (wall-clock fields excluded).  Exit status: 0 when
every run exits with the same code in both checkouts and every tree
compares equal, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_outputs  # noqa: E402

SCHEDULE = """\
X0 = 1.0
D = 0.5
schedule = sinusoid
schedule.base = 0.5
schedule.amplitude = 0.1
schedule.omega = 1.0
"""
LINEAR = "plant = linear\nplant.a = 1.0\nplant.b = 1.0\nplant.k = 2.0\n"
DETERMINISM = "M = 20\ndt = 0.005\nT = 1.5\nstride = 100\n"
CERTIFY = "M = 100\ndt = 0.001\nT = 6.3\nstride = 100\nmargin = 4.5\n"
SWEEP = "M = 32\ndt = 0.004\nT = 2.0\nstride = 25\nmargin = 1.0\n"

# (name, config text, CLI arguments after the config and output options)
RUNS = (
    ("simulate-linear", LINEAR + SCHEDULE + DETERMINISM, ["simulate"]),
    ("simulate-cubic", "plant = cubic\n" + SCHEDULE + DETERMINISM,
     ["simulate"]),
    ("simulate-double-integrator",
     "plant = double_integrator\n"
     + SCHEDULE.replace("X0 = 1.0", "X0 = 1.0, -0.5") + DETERMINISM,
     ["simulate"]),
    ("verify", LINEAR + SCHEDULE + CERTIFY,
     ["verify", "--ladder", "10:0.02,20:0.01,40:0.005"]),
    ("sweep", LINEAR + SCHEDULE + SWEEP, ["sweep", "--set", "plant.k=1.5,2.0"]),
    ("sweep-ensembles", LINEAR + SCHEDULE + SWEEP,
     ["sweep", "--set", "plant.k=1.5,2.0", "--set", "X0=0.8,1.2",
      "--set", "schedule.amplitude=0.05,0.1"]),
)


def run(checkout, name, text, args, workdir):
    """Run one CLI command of `checkout` in `workdir`; (exit code, tree)."""
    cfg = os.path.join(workdir, f"{name}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = os.path.join(workdir, name)
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "delaycomp.cli", args[0], "--config", cfg,
         "--out", out] + args[1:],
        cwd=workdir, env=env, capture_output=True, text=True)
    return proc.returncode, out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(
            os.path.isdir(os.path.join(c, "src", "delaycomp")) for c in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("a", "b")]
        for d in dirs:
            os.mkdir(d)
        for name, text, args in RUNS:
            (code_a, tree_a), (code_b, tree_b) = (
                run(c, name, text, args, d) for c, d in zip(argv, dirs))
            print(f"== {name}: exit {code_a} / {code_b}")
            same &= code_a == code_b
            if os.path.isdir(tree_a) and os.path.isdir(tree_b):
                same &= compare_outputs.main([tree_a, tree_b]) == 0
            else:
                same &= os.path.isdir(tree_a) == os.path.isdir(tree_b)
    print("equivalent" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
