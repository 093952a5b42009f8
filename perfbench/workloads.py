"""The three benchmark workloads: certify, sweep and slices.

Each workload turns a seed into program inputs when it is created, then
runs one operation batch per `run` call and returns an `Op`.  A batch is what a
user waits for: one `delaycomp verify` on the acceptance ladder, one
64-cell `delaycomp sweep`, or one batch of snapshot slices.  The batch's
outputs are checked (the correctness gates) and reduced to a digest, so
repeated batches on the same seed can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from delaycomp import (backstepping, cli, grid, history, plants, predictor,
                       simulate)

CERTIFY_T = 6.3
ACCEPTANCE_LADDER = "50:0.002,100:0.001,200:0.0005"
# a coarse ladder on the same scenario; cheap enough to run twice per
# benchmark run as the determinism probe of the verify path
PROBE_LADDER = "10:0.02,12:0.015,14:0.01"

CERTIFY_CONFIG = """\
plant = linear
plant.a = 1.0
plant.b = 1.0
plant.k = 2.0
X0 = {x0!r}
D = 0.5
schedule = sinusoid
schedule.base = 0.5
schedule.amplitude = 0.1
schedule.omega = 1.0
M = 100
dt = 0.001
T = {T!r}
stride = 100
margin = 4.5
"""

SWEEP_CONFIG = """\
plant = linear
plant.a = 1.0
plant.b = 1.0
plant.k = 2.0
X0 = 1.0
D = 0.5
schedule = sinusoid
schedule.base = 0.5
schedule.amplitude = 0.1
schedule.omega = 1.0
M = 32
dt = {dt!r}
T = {T!r}
stride = 25
margin = 1.0
"""
SWEEP_DT, SWEEP_T = 0.004, 2.0
SWEEP_WORKERS = 2

SLICE_M = 200
SLICE_PLANTS = (("linear", 1), ("cubic", 1), ("double_integrator", 2))
SLICES_PER_PLANT = 4
KERNEL_PAIRS = (("p1", "p3"), ("p2", "p4"), ("q1", "q3"), ("q2", "q4"),
                ("q3", "q5"), ("q4", "q6"))
ROUND_TRIP_TOL = 1e-8


@dataclass
class Op:
    """One operation batch: its wall time, gate outcome and output digest."""

    wall: float
    attempted: int
    failed: int
    digest: str
    samples: list = field(default_factory=list)  # per rung/cell/slice, s
    steps: int = 0
    pool_utilization: float = 0.0


def _quiet_cli(argv):
    """Run the delaycomp CLI in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        sys.stderr.write(sink.getvalue())
    return code


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def tree_digest(root):
    """sha256 over every output file below `root`, JSON wall-clock fields
    excluded, so two runs of one seed must agree byte for byte."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                data = json.dumps(_strip_wall(json.loads(data)),
                                  sort_keys=True).encode()
            h.update(data)
    return h.hexdigest()


class Certify:
    """`delaycomp verify` on the acceptance ladder, rungs run serially."""

    name = "certify"
    repeats_inputs = True

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        # the seed moves the initial state; the loop is linear in X0, so
        # every rung does the same work and the certificate must pass
        self.x0 = round(float(rng.uniform(0.5, 1.5)), 6)
        self.workdir = workdir
        self.config = os.path.join(workdir, "certify.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(CERTIFY_CONFIG.format(x0=self.x0, T=CERTIFY_T))
        self.setup_config = self.config
        self.rungs = [tuple(float(v) for v in r.split(":"))
                      for r in ACCEPTANCE_LADDER.split(",")]
        self.steps = sum(int(round(CERTIFY_T / dt)) + 1
                         for _, dt in self.rungs)
        self._count = 0

    def _verify(self, ladder, label):
        self._count += 1
        out = os.path.join(self.workdir, f"{label}-{self._count}")
        started = perf_counter()
        code = _quiet_cli(["verify", "--config", self.config,
                           "--ladder", ladder, "--out", out])
        wall = perf_counter() - started
        return code, out, wall

    def run(self, _batch):
        code, out, wall = self._verify(ACCEPTANCE_LADDER, "verify")
        report = {}
        path = os.path.join(out, "report.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        ok = code == cli.EXIT_OK and report.get("passed") is True
        n = len(self.rungs)
        return Op(wall=wall, attempted=n, failed=0 if ok else n,
                  digest=f"{code}:{tree_digest(out)}", steps=self.steps)

    def probe(self):
        """(digest, wall) of the verify path on a coarse ladder, same
        scenario."""
        code, out, wall = self._verify(PROBE_LADDER, "probe")
        return f"{code}:{tree_digest(out)}", wall


class Sweep:
    """`delaycomp sweep --workers 2` over a seeded 4x4x4 grid."""

    name = "sweep"
    repeats_inputs = True

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.axes = {
            "plant.k": 1.5 + 0.01 * rng.choice(151, 4, replace=False),
            "X0": 0.5 + 0.01 * rng.choice(101, 4, replace=False),
            "schedule.amplitude": 0.01 * rng.choice(16, 4, replace=False),
        }
        self.workdir = workdir
        self.config = os.path.join(workdir, "sweep.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(dt=SWEEP_DT, T=SWEEP_T))
        self.setup_config = self.config
        self.cells = 1
        for values in self.axes.values():
            self.cells *= len(values)
        self.steps = self.cells * (int(round(SWEEP_T / SWEEP_DT)) + 1)
        self._count = 0

    def _sweep(self, axes, label):
        self._count += 1
        out = os.path.join(self.workdir, f"{label}-{self._count}")
        argv = ["sweep", "--config", self.config, "--out", out,
                "--workers", str(SWEEP_WORKERS)]
        for key, values in axes.items():
            argv += ["--set", key + "=" + ",".join(f"{v:.2f}"
                                                   for v in sorted(values))]
        started = perf_counter()
        code = _quiet_cli(argv)
        return code, out, perf_counter() - started

    def probe(self):
        """(digest, wall) of a two-cell sweep on the same base scenario."""
        code, out, wall = self._sweep(
            {"plant.k": self.axes["plant.k"][:2]}, "probe")
        return f"{code}:{tree_digest(out)}", wall

    def run(self, _batch):
        code, out, wall = self._sweep(self.axes, "sweep")
        failed = 0
        cell_walls = []
        cells = [d for d in sorted(os.listdir(out)) if d.startswith("cell_")] \
            if os.path.isdir(out) else []
        for d in cells:
            with open(os.path.join(out, d, "manifest.json"),
                      encoding="utf-8") as fh:
                man = json.load(fh)
            cell_walls.append(float(man["wall_time"]))
            norm = man.get("final_norm")
            if man.get("status") != "ok" or norm is None \
                    or not math.isfinite(norm):
                failed += 1
        failed += self.cells - len(cells)
        if code != cli.EXIT_OK:
            failed = self.cells
        return Op(wall=wall, attempted=self.cells, failed=failed,
                  digest=f"{code}:{tree_digest(out)}", samples=cell_walls,
                  steps=self.steps,
                  pool_utilization=sum(cell_walls) / (SWEEP_WORKERS * wall))


def _synthetic_history(rng, dt=1e-3, t_end=3.5):
    """A smooth recorded input with seeded incommensurate frequencies."""
    a1, a2 = rng.uniform(0.15, 0.3), rng.uniform(0.05, 0.15)
    w1, w2 = rng.uniform(1.0, 1.6), rng.uniform(0.5, 0.9)
    ph = rng.uniform(0.0, np.pi)
    hist = history.ControlHistory(dt)
    for k in range(int(round(t_end / dt)) + 1):
        t = k * dt
        hist.append(t, a1 * np.sin(w1 * t + ph) + a2 * np.cos(w2 * t))
    return hist


class Slices:
    """Snapshot algebra on a synthetic history, as in the kernel demo:
    materialize a slice at M=200, its transition field and kernel set, and
    the inverse/forward transformation round trip, for three plants."""

    name = "slices"
    repeats_inputs = False

    def __init__(self, seed, workdir):
        self.seed = seed
        self.hist = _synthetic_history(np.random.default_rng([seed, 3]))
        self.setup_config = os.path.join(workdir, "setup.cfg")
        with open(self.setup_config, "w", encoding="utf-8") as fh:
            fh.write(CERTIFY_CONFIG.format(x0=1.0, T=CERTIFY_T))

    def probe(self):
        """(digest, wall) of batch 0."""
        op = self.run(0)
        return op.digest, op.wall

    def _inputs(self, batch):
        rng = np.random.default_rng([self.seed, 4, batch])
        out = []
        for plant, dim in SLICE_PLANTS:
            for _ in range(SLICES_PER_PLANT):
                out.append(dict(
                    plant=plant, X=rng.uniform(-0.6, 0.6, size=dim),
                    t=rng.uniform(2.6, 3.4), true_delay=rng.uniform(0.5, 0.7),
                    dhat=rng.uniform(0.4, 0.5),
                    dhat_dot=rng.uniform(-0.08, 0.08),
                    dhat_ddot=rng.uniform(-0.05, 0.05)))
        return out

    def run(self, batch):
        m = SLICE_M
        tol = 50.0 / m ** 2
        h = hashlib.sha256()
        samples = []
        failed = 0
        for s in self._inputs(batch):
            t0 = perf_counter()
            bundle = plants.make_plant(s["plant"])
            model, ctrl = bundle.model, bundle.controller
            snap = simulate.materialize_slice(
                model, ctrl, self.hist, s["t"], s["X"], s["true_delay"],
                s["dhat"], s["dhat_dot"], s["dhat_ddot"], m)
            ks = simulate.snapshot_kernels(model, ctrl, s["true_delay"], snap)
            uhat, phat = backstepping.inverse_transform(
                model, ctrl, snap.X, grid.GridProfile(snap.what), snap.dhat)
            back = backstepping.forward_transform(ctrl, uhat, phat)
            samples.append(perf_counter() - t0)

            pair_err = max(float(np.max(np.abs(
                getattr(ks, child) - grid.fd_x_wide(getattr(ks, parent),
                                                    m, 1))))
                for parent, child in KERNEL_PAIRS)
            trip_err = float(np.max(np.abs(back.values - snap.what)))
            if not (pair_err <= tol and trip_err <= ROUND_TRIP_TOL):
                failed += 1
            for arr in (snap.phat, snap.what, snap.phat_x, ks.p1, ks.p2,
                        ks.q1, ks.q2, ks.p3, ks.p4, ks.q3, ks.q4, ks.q5,
                        ks.q6, ks.uhat_t, ks.uhat_xt, ks.phat_t,
                        snap.field.matrices, uhat.values, phat.values,
                        back.values, np.array([ks.q1_t, ks.q7])):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        # the batch wall is the program's time; the gates are not in it
        return Op(wall=sum(samples), attempted=len(samples), failed=failed,
                  digest=h.hexdigest(), samples=samples)


def march_probe(seed, sizes, rounds=40):
    """Median seconds per grid interval of one predictor march at each M,
    timed directly on the linear plant with a seeded smooth estimate
    profile, so every grid size is measured on every workload.  The sizes
    take turns, so a slow spell of the machine hits all of them alike."""
    rng = np.random.default_rng([seed, 5])
    model = plants.make_plant("linear").model
    inputs = {}
    for m in sizes:
        x = np.linspace(0.0, 1.0, m + 1)
        inputs[m] = (rng.uniform(0.5, 1.5, size=1),
                     grid.GridProfile(rng.uniform(0.1, 0.3)
                                      * np.sin(rng.uniform(1.0, 3.0) * x)))
    times = {m: [] for m in sizes}
    for _ in range(rounds):
        for m, (X, uhat) in inputs.items():
            started = perf_counter()
            predictor.compute_predictor(model, X, uhat, 0.5)
            times[m].append(perf_counter() - started)
    return {m: statistics.median(t) / m for m, t in times.items()}


WORKLOADS = {w.name: w for w in (Certify, Sweep, Slices)}
