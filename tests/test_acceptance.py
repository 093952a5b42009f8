"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion.  The first two
share one residual convergence study over the refinement ladder, run once
per module.
"""

import json
import time

import numpy as np
import pytest

from delaycomp import ScenarioConfig, cli, convergence_study, fd_x_wide, \
    forward_transform, grid_nodes, inverse_transform, make_plant, \
    run_scenario, snapshot_kernels
from delaycomp.grid import GridProfile
from delaycomp.residuals import BOUNDARY_EQUATIONS, \
    evaluate_snapshot_residuals
from conftest import make_slice

LADDER_SCENARIO = ScenarioConfig(
    plant="linear", plant_params=dict(a=1.0, b=1.0, k=2.0), X0=(1.0,),
    true_delay=0.5, schedule_kind="sinusoid",
    schedule_params=dict(base=0.5, amplitude=0.1, omega=1.0),
    num_intervals=100, dt=1e-3, horizon=6.3, stride=100, margin=4.5)

LADDER = [(50, 2e-3), (100, 1e-3), (200, 5e-4)]


def verdict(capfd, num, desc, ok, detail=""):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}" \
        + (f"  [{detail}]" if detail else "")
    # lift output capture so the certification line is always visible
    with capfd.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num} ({desc}): {detail}"


def slope_ok(slope, minimum=1.7):
    return slope == "exact" or slope >= minimum


@pytest.fixture(scope="module")
def ladder_study():
    started = time.perf_counter()
    report = convergence_study(LADDER_SCENARIO, LADDER, workers=3)
    return report, time.perf_counter() - started


def test_criterion_1_first_order_residuals(ladder_study, capfd):
    report, wall = ladder_study
    ok = not report.aborted and wall <= 120.0
    details = []
    for name in ("what", "utilde", "uhat", "phat", "state"):
        slope = report.slopes[name]
        finest = report.finest(name)
        ok = ok and slope_ok(slope) and finest <= 1e-3
        details.append(f"{name}:{slope if isinstance(slope, str) else round(slope, 2)}"
                       f"/{finest:.1e}")
    verdict(capfd, 1, "transport and state residual convergence", ok,
            " ".join(details) + f" wall={wall:.1f}s")


def test_criterion_2_derivative_residuals(ladder_study, capfd):
    report, wall = ladder_study
    ok = not report.aborted and wall <= 180.0
    details = []
    for name in ("utildex", "whatx", "whatxx"):
        slope = report.slopes[name]
        ok = ok and slope_ok(slope)
        details.append(f"{name}:{slope if isinstance(slope, str) else round(slope, 2)}")
    for name in BOUNDARY_EQUATIONS:
        finest = report.finest(name)
        ok = ok and finest <= 1e-6
        details.append(f"{name}:{finest:.1e}")
    verdict(capfd, 2, "derivative systems and boundary identities", ok,
            " ".join(details))


def test_criterion_3_boundary_exactness(capfd):
    scenarios = [
        LADDER_SCENARIO.with_resolution(50, 2e-3),
        ScenarioConfig(plant="cubic", X0=(1.5,), true_delay=0.4,
                       schedule_kind="ramp",
                       schedule_params=dict(base=0.35, rate=0.05),
                       num_intervals=50, dt=2e-3, horizon=3.0, stride=250),
        ScenarioConfig(plant="double_integrator", X0=(0.5, -0.3),
                       true_delay=0.5, schedule_kind="constant",
                       schedule_params=dict(value=0.6),
                       num_intervals=50, dt=2e-3, horizon=3.0, stride=250),
    ]
    worst = 0.0
    count = 0
    for cfg in scenarios:
        res = run_scenario(cfg)
        for snap in res.snapshots.values():
            worst = max(worst, abs(snap.what[-1]), abs(snap.utilde[-1]))
            count += 1
    verdict(capfd, 3, "boundary values at every snapshot", worst <= 1e-12,
            f"max {worst:.2e} over {count} snapshots")


def test_criterion_4_exact_delay_degeneracy(capfd):
    cfg = ScenarioConfig(plant="linear",
                         plant_params=dict(a=1.0, b=1.0, k=2.0),
                         X0=(1.0,), true_delay=0.5,
                         schedule_kind="constant",
                         schedule_params=dict(value=0.5),
                         num_intervals=100, dt=1e-3, horizon=3.0, stride=500)
    res = run_scenario(cfg)
    max_ut = 0.0
    max_diff = 0.0
    for c in res.centers:
        prev, snap, nxt = res.snapshot_triplet(c)
        max_ut = max(max_ut, np.max(np.abs(snap.utilde)))
        prof = evaluate_snapshot_residuals(res, c)["what"]
        wt = (nxt.what - prev.what) / (2.0 * cfg.dt)
        transport = (snap.dhat * wt - snap.what_x)[1:-1]
        max_diff = max(max_diff, np.max(np.abs(prof - transport)))
    ok = max_ut <= 1e-14 and max_diff <= 1e-12
    verdict(capfd, 4, "exact delay estimate degenerates to pure transport", ok,
            f"max|utilde|={max_ut:.2e} residual gap {max_diff:.2e}")


def test_criterion_5_kernel_pair_identities(capfd):
    started = time.perf_counter()
    m = 200
    tol = 50.0 / m ** 2
    pairs = [("p1", "p3"), ("p2", "p4"), ("q1", "q3"), ("q2", "q4"),
             ("q3", "q5"), ("q4", "q6")]
    worst = 0.0
    for plant, X in (("linear", [0.4]), ("cubic", [0.5]),
                     ("double_integrator", [0.3, -0.2])):
        bundle, snap = make_slice(plant, X, num_intervals=m)
        ks = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
        for parent, child in pairs:
            err = np.max(np.abs(getattr(ks, child)
                                - fd_x_wide(getattr(ks, parent), m, 1)))
            worst = max(worst, err)
    wall = time.perf_counter() - started
    ok = worst <= tol and wall <= 60.0
    verdict(capfd, 5, "kernel derivative pair identities", ok,
            f"worst {worst:.2e} vs {tol:.2e}, wall {wall:.1f}s")


def test_criterion_6_time_derivative_oracles(capfd):
    cfg = ScenarioConfig(plant="linear",
                         plant_params=dict(a=1.0, b=1.0, k=2.0),
                         X0=(1.0,), true_delay=0.5,
                         schedule_kind="sinusoid",
                         schedule_params=dict(base=0.5, amplitude=0.1,
                                              omega=1.0),
                         num_intervals=200, dt=1e-3, horizon=6.1,
                         stride=100, margin=4.5)
    center = 6000
    spacings = (20, 40, 80)
    steps = [center] + [center + s * d for d in spacings for s in (-1, 1)]
    res = run_scenario(cfg, snapshot_steps=steps)
    m = cfg.num_intervals
    D = cfg.true_delay
    ks_c = snapshot_kernels(res.model, res.controller, D,
                            res.snapshots[center])
    names = ("uhat_t", "uhat_xt", "phat_t", "q1_t", "q7")
    errs = {name: [] for name in names}
    deltas = []
    for d in spacings:
        lo = res.snapshots[center - d]
        hi = res.snapshots[center + d]
        delta = d * cfg.dt
        deltas.append(delta)
        ks_lo = snapshot_kernels(res.model, res.controller, D, lo)
        ks_hi = snapshot_kernels(res.model, res.controller, D, hi)

        def fd(a, b):
            return (b - a) / (2.0 * delta)

        errs["uhat_t"].append(
            np.max(np.abs(fd(lo.uhat, hi.uhat) - ks_c.uhat_t)))
        errs["uhat_xt"].append(
            np.max(np.abs(fd(fd_x_wide(lo.uhat, m, 1),
                             fd_x_wide(hi.uhat, m, 1)) - ks_c.uhat_xt)))
        errs["phat_t"].append(
            np.max(np.abs(fd(lo.phat, hi.phat) - ks_c.phat_t)))
        errs["q1_t"].append(abs(fd(ks_lo.q1[-1], ks_hi.q1[-1]) - ks_c.q1_t))
        errs["q7"].append(abs(fd(lo.what_x[-1], hi.what_x[-1]) - ks_c.q7))
    ok = True
    details = []
    for name in names:
        slope = np.polyfit(np.log(deltas), np.log(errs[name]), 1)[0]
        ok = ok and 1.7 <= slope <= 2.5
        details.append(f"{name}:{slope:.2f}")
    verdict(capfd, 6, "analytic time derivatives vs central differences", ok,
            " ".join(details))


def test_criterion_7_round_trip(capfd):
    m = 200
    x = grid_nodes(m)
    rng = np.random.default_rng(0)
    worst = 0.0
    for plant in ("integrator", "linear", "cubic", "double_integrator"):
        bundle = make_plant(plant)
        for _ in range(100):
            w = np.zeros(m + 1)
            for j in range(4):
                w += rng.uniform(-1.0, 1.0) \
                    * np.sin((j + 1) * np.pi * x / 2.0
                             + rng.uniform(0.0, np.pi))
            peak = np.max(np.abs(w))
            if peak > 1.0:
                w /= peak
            prof = GridProfile(w)
            X = rng.uniform(-1.0, 1.0, size=bundle.model.dim)
            dhat = rng.uniform(0.3, 0.8)
            uhat, phat = inverse_transform(bundle.model, bundle.controller,
                                           X, prof, dhat)
            back = forward_transform(bundle.controller, uhat, phat)
            worst = max(worst, np.max(np.abs(back.values - w)))
    verdict(capfd, 7, "transformation round trip over random profiles",
            worst <= 1e-8, f"worst {worst:.2e}")


def _final_state(plant, params, x0, D, m, dt, horizon):
    cfg = ScenarioConfig(plant=plant, plant_params=params, X0=(x0,),
                         true_delay=D, schedule_kind="constant",
                         schedule_params=dict(value=D), num_intervals=m,
                         dt=dt, horizon=horizon, stride=10 ** 9)
    res = run_scenario(cfg, snapshot_steps=[])
    return float(res.states[-1, 0])


def test_criterion_8_closed_loop_decay_and_self_convergence(capfd):
    lin = dict(a=1.0, b=1.0, k=2.0)
    decay_lin = abs(_final_state("linear", lin, 2.0, 0.5, 100, 0.01, 20.0))
    decay_cub = abs(_final_state("cubic", {}, 1.5, 0.3, 200, 0.01, 20.0))

    # halving ladders stay step-aligned with the delay so the startup
    # bias is common to all rungs and cancels in the differences
    xs = [_final_state("linear", lin, 2.0, 0.5, 100, dt, 3.0)
          for dt in (0.1, 0.05, 0.025)]
    fac_lin = abs(xs[0] - xs[1]) / abs(xs[1] - xs[2])
    xs = [_final_state("cubic", {}, 1.5, 0.3, 200, dt, 3.0)
          for dt in (0.15, 0.075, 0.0375)]
    fac_cub = abs(xs[0] - xs[1]) / abs(xs[1] - xs[2])

    ok = decay_lin <= 1e-3 and decay_cub <= 1e-3 \
        and fac_lin >= 8.0 and fac_cub >= 8.0
    verdict(capfd, 8, "closed-loop decay with step-halving self-convergence", ok,
            f"|X(20)| lin {decay_lin:.1e} cub {decay_cub:.1e}; "
            f"factors lin {fac_lin:.1f} cub {fac_cub:.1f}")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capfd):
    text = ("plant = linear\nplant.a = 1.0\nplant.b = 1.0\nplant.k = 2.0\n"
            "X0 = 1.0\nD = 0.5\nschedule = sinusoid\nschedule.base = 0.5\n"
            "schedule.amplitude = 0.1\nschedule.omega = 1.0\n"
            "M = 20\ndt = 0.005\nT = 1.5\nstride = 100\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    blobs = []
    ok = True
    for name in ("a", "b"):
        out = tmp_path / name
        ok = ok and cli.main(["simulate", "--config", str(cfg),
                              "--out", str(out)]) == 0
        blobs.append((out / "trajectory.csv").read_bytes()
                     + (out / "snapshots" / "step_000100.csv").read_bytes())
    ok = ok and blobs[0] == blobs[1]

    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("dt = 0.005", "dt = -1.0"))
    ok = ok and cli.main(["simulate", "--config", str(bad),
                          "--out", str(tmp_path / "o2")]) == 2

    unstable = tmp_path / "unstable.cfg"
    unstable.write_text(text.replace("plant.k = 2.0", "plant.k = 0.0")
                        .replace("T = 1.5", "T = 25.0")
                        .replace("schedule = sinusoid", "schedule = constant")
                        .replace("schedule.base = 0.5",
                                 "schedule.value = 0.5")
                        .replace("schedule.amplitude = 0.1\n", "")
                        .replace("schedule.omega = 1.0\n", ""))
    out3 = tmp_path / "o3"
    ok = ok and cli.main(["simulate", "--config", str(unstable),
                          "--out", str(out3)]) == 3
    manifest = json.loads((out3 / "manifest.json").read_text())
    ok = ok and manifest["status"] == "blow-up" \
        and 0.0 < manifest["failure_time"] < 25.0
    verdict(capfd, 9, "deterministic outputs and exit-code taxonomy", ok)
