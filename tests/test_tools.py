import importlib.util
import json
import os
import subprocess
import sys

import pytest

from delaycomp import cli
from test_cli import BASE, write_cfg

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "compare_outputs.py")
PROBE = os.path.join(ROOT, "tools", "equivalence_probe.py")


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_runs(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    return outs


def test_identical_runs_compare_equal(compare_outputs, two_runs, capsys):
    assert compare_outputs.main([str(p) for p in two_runs]) == 0
    out = capsys.readouterr().out
    assert "trajectory.csv:x1" in out
    assert "snapshots/step_000100.csv:what" in out
    assert "worst relative difference 0.000e+00" in out


def test_changed_numbers_are_reported(compare_outputs, two_runs, capsys):
    a, b = two_runs
    path = b / "trajectory.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("U")
    row = lines[5].split(",")
    row[col] = repr(float(row[col]) * (1.0 + 1e-6) + 1e-9)
    lines[5] = ",".join(row)
    path.write_text("\r\n".join(lines) + "\r\n")
    meta = b / "snapshots" / "step_000100.json"
    doc = json.loads(meta.read_text())
    doc["dhat"] += 0.5
    meta.write_text(json.dumps(doc))

    assert compare_outputs.main([str(a), str(b)]) == 1
    table = compare_outputs.compare(str(a), str(b))
    assert table.rows[("trajectory.csv", "U")][1] > 0.0
    assert table.rows[("trajectory.csv", "t")] == (0.0, 0.0)
    assert table.rows[("snapshots/step_000100.json", "dhat")][0] == \
        pytest.approx(0.5)
    assert not table.problems
    capsys.readouterr()


def test_missing_files_are_listed(compare_outputs, two_runs):
    a, b = two_runs
    os.remove(b / "manifest.json")
    table = compare_outputs.compare(str(a), str(b))
    assert table.problems == ["only in A: manifest.json"]


def test_equivalence_probe_same_checkout():
    proc = subprocess.run([sys.executable, PROBE, ROOT, ROOT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = ("simulate-linear", "simulate-cubic",
             "simulate-double-integrator", "verify", "sweep",
             "sweep-ensembles")
    for name in names:
        assert f"== {name}: exit 0 / 0" in proc.stdout
    assert proc.stdout.count("worst relative difference 0.000e+00") == \
        len(names)
    assert proc.stdout.rstrip().endswith("equivalent")
