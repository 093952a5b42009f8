"""The benchmark in perfbench/ reaches into the package by name: it patches
layer functions by module attribute and times a predictor march directly.
These checks fail when such a name is deleted or renamed."""

import importlib.util
import os
import sys

import pytest

from delaycomp import simulate

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("spans"), _load("workloads")


def test_spans_install_and_restore(bench, tmp_path):
    spans, workloads = bench
    original = simulate.eval_all
    rec = spans.Recorder()
    restore = spans.install(rec, str(tmp_path))
    try:
        assert simulate.eval_all is not original
        # one traced slice batch: every plant callback is counted
        op = workloads.Slices(1, str(tmp_path)).run(0)
    finally:
        restore()
    assert simulate.eval_all is original
    assert op.failed == 0 and op.attempted == 12
    assert rec.counts["plants.callbacks"] > 0
    assert "kernels.eval_all" in rec.aggregate()["layers"]


def test_march_probe_runs(bench):
    _, workloads = bench
    per_interval = workloads.march_probe(1, (32,), rounds=1)
    assert list(per_interval) == [32] and per_interval[32] > 0.0
