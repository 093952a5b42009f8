"""The package runs on numpy alone."""

import os
import subprocess
import sys

import delaycomp

PROBE = """
import sys
import delaycomp
import delaycomp.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(delaycomp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
