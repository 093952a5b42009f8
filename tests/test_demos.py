"""The demos that read the public API run end to end."""

import os
import subprocess
import sys

import delaycomp

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def _run_demo(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(delaycomp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_closed_loop_demo_decays():
    # last line: "|X(8)| = <value>  (wall time <s> s)"
    last = _run_demo("closed_loop_run.py")
    assert last.startswith("|X(8)| = ")
    assert float(last.split()[2]) < 1e-2


def test_kernel_identities_demo_round_trips():
    # last line: "  double_integrator: worst error over 20 profiles <err>"
    last = _run_demo("kernel_identities.py")
    assert last.strip().startswith(
        "double_integrator: worst error over 20 profiles")
    assert float(last.split()[-1]) < 1e-10
