import dataclasses

import numpy as np
import pytest

from delaycomp import ScenarioConfig, run_scenario, simulate
from delaycomp.errors import BlowUpError, ConfigError


def linear_config(**kw):
    base = dict(plant="linear", plant_params=dict(a=1.0, b=1.0, k=2.0),
                X0=(1.0,), true_delay=0.5, schedule_kind="constant",
                schedule_params=dict(value=0.5), num_intervals=50,
                dt=2e-3, horizon=3.0, stride=250)
    base.update(kw)
    return ScenarioConfig(**base)


def test_equilibrium_stays_at_zero():
    res = run_scenario(linear_config(X0=(0.0,)))
    assert np.max(np.abs(res.states)) == 0.0
    assert np.max(np.abs(res.controls)) == 0.0
    for snap in res.snapshots.values():
        assert np.max(np.abs(snap.uhat)) == 0.0
        assert np.max(np.abs(snap.what)) == 0.0
        assert np.max(np.abs(snap.phat)) == 0.0


def test_linear_closed_loop_decay_rate():
    # with the estimate pinned at the true delay the closed loop is
    # X' = (a - b k) X after one delay interval, here rate -1
    res = run_scenario(linear_config(horizon=10.0, dt=1e-3, stride=1000))
    t = res.times
    mask = (t >= 2.0) & (t <= 8.0)
    slope = np.polyfit(t[mask], np.log(np.abs(res.states[mask, 0])), 1)[0]
    assert abs(slope - (-1.0)) < 0.1


def test_snapshot_boundary_values():
    cfg = linear_config(schedule_kind="sinusoid",
                        schedule_params=dict(base=0.5, amplitude=0.1,
                                             omega=1.0))
    res = run_scenario(cfg)
    assert res.centers
    for snap in res.snapshots.values():
        assert abs(snap.uhat[-1] - snap.U) < 1e-12
        assert abs(snap.what[-1]) < 1e-12
        assert abs(snap.u[-1] - snap.U) < 1e-12


def test_exact_estimate_gives_zero_mismatch_field():
    res = run_scenario(linear_config())
    for snap in res.snapshots.values():
        assert np.max(np.abs(snap.utilde)) == 0.0


@pytest.mark.parametrize("kw,phrase", [
    (dict(dt=0.0), "dt"),
    (dict(horizon=1e-5), "T"),
    (dict(num_intervals=4), "M"),
    (dict(stride=0), "stride"),
    (dict(true_delay=1e-4), "D"),
    (dict(horizon=1e300, dt=1e-300), "T/dt"),
    (dict(dt=0.5, horizon=0.5 * simulate.MAX_STEPS + 0.5), "T/dt"),
    (dict(num_intervals=simulate.MAX_INTERVALS + 1), "M"),
])
def test_validate_rejects_bad_settings(kw, phrase):
    with pytest.raises(ConfigError) as exc:
        linear_config(**kw).validate()
    assert phrase in str(exc.value)


def test_validate_accepts_the_size_caps():
    # validate reads T/dt and M only, so nothing of this size is allocated;
    # dt = 0.5 makes T/dt exact
    linear_config(dt=0.5, horizon=0.5 * simulate.MAX_STEPS,
                  num_intervals=simulate.MAX_INTERVALS).validate()


def test_with_resolution_preserves_center_times():
    cfg = linear_config()
    fine = cfg.with_resolution(100, 1e-3)
    assert fine.num_intervals == 100
    assert fine.dt == 1e-3
    assert fine.stride * fine.dt == pytest.approx(cfg.stride * cfg.dt)


def test_snapshot_steps_out_of_range():
    with pytest.raises(ConfigError):
        run_scenario(linear_config(), snapshot_steps=[0])
    with pytest.raises(ConfigError):
        run_scenario(linear_config(), snapshot_steps=[10 ** 6])


def test_unstable_loop_raises_blowup_with_time(monkeypatch):
    cfg = linear_config(plant_params=dict(a=1.0, b=1.0, k=0.0),
                        X0=(2.0,), horizon=25.0, dt=5e-3, stride=10 ** 6)
    failures = []
    for block in (simulate._BLOCK, 1):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        with pytest.raises(BlowUpError) as exc:
            run_scenario(cfg)
        failures.append((exc.value.time, exc.value.x, str(exc.value)))
    assert failures[0][0] is not None
    assert 10.0 < failures[0][0] < 25.0
    # the block size changes where the work happens, not where it fails
    assert failures[0] == failures[1]


SNAPSHOT_ARRAYS = [f.name for f in dataclasses.fields(simulate.SystemSnapshot)
                   if f.name not in ("field", "kernels")]


def _block_pair(monkeypatch, cfg):
    assert simulate._BLOCK == 64
    runs = []
    for block in (64, 1):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        runs.append(run_scenario(cfg))
    assert runs[0].centers
    assert sorted(runs[0].snapshots) == sorted(runs[1].snapshots)
    return runs


# D/dt = 125 lets blocks reach 64 steps; the short delay caps blocks at a
# few steps
BLOCK_CASES = {
    "integrator": dict(plant="integrator", plant_params={}),
    "linear": {},
    "cubic": dict(plant="cubic", plant_params={}, X0=(1.5,)),
    "linear-short-delay": dict(true_delay=0.05, d_lower=0.03, d_upper=0.1,
                               schedule_params=dict(base=0.05,
                                                    amplitude=0.02,
                                                    omega=3.0)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_size_is_invisible_on_scalar_plants(monkeypatch, case):
    kw = dict(schedule_kind="sinusoid",
              schedule_params=dict(base=0.5, amplitude=0.1, omega=1.0),
              num_intervals=16, dt=4e-3, horizon=2.4, stride=40)
    kw.update(BLOCK_CASES[case])
    blocked, single = _block_pair(monkeypatch, linear_config(**kw))
    for name in ("times", "states", "controls"):
        assert np.array_equal(getattr(blocked, name), getattr(single, name))
    for k, snap in blocked.snapshots.items():
        for name in SNAPSHOT_ARRAYS:
            assert np.array_equal(getattr(snap, name),
                                  getattr(single.snapshots[k], name)), \
                (k, name)


def test_block_size_on_double_integrator_within_roundoff(monkeypatch):
    cfg = linear_config(plant="double_integrator", plant_params={},
                        X0=(0.5, -0.3), schedule_kind="sinusoid",
                        schedule_params=dict(base=0.5, amplitude=0.1,
                                             omega=1.0),
                        num_intervals=16, dt=4e-3, horizon=2.4, stride=40)
    blocked, single = _block_pair(monkeypatch, cfg)

    def rel(a, b):
        a, b = np.asarray(a), np.asarray(b)
        scale = np.maximum(np.abs(a), np.abs(b))
        out = np.divide(np.abs(a - b), scale, out=np.zeros(scale.shape),
                        where=scale > 0.0)
        return float(np.max(out, initial=0.0))

    worst = max(rel(blocked.states, single.states),
                rel(blocked.controls, single.controls))
    for k, snap in blocked.snapshots.items():
        for name in SNAPSHOT_ARRAYS:
            worst = max(worst, rel(getattr(snap, name),
                                   getattr(single.snapshots[k], name)))
    assert worst <= 1e-12


def test_runs_are_deterministic():
    cfg = linear_config(schedule_kind="sinusoid",
                        schedule_params=dict(base=0.5, amplitude=0.1,
                                             omega=1.0))
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert np.array_equal(r1.states, r2.states)
    assert np.array_equal(r1.controls, r2.controls)
    key = min(r1.snapshots)
    assert np.array_equal(r1.snapshots[key].what_xx, r2.snapshots[key].what_xx)


@pytest.mark.parametrize("plant,X0", [("cubic", (1.2,)),
                                      ("double_integrator", (0.5, -0.3))])
def test_loop_snapshots_equal_materialize_slice(monkeypatch, plant, X0):
    # the step loop finishes snapshot predictors from the block's stored
    # prefix; a fresh full march on the same history must agree exactly
    built = simulate._BlockMarches.snapshot
    checked = []

    def snapshot(self, k, schedule, true_delay):
        snap = built(self, k, schedule, true_delay)
        ref = simulate.materialize_slice(
            self.model, self.controller, self.hist, snap.t, snap.X,
            true_delay, snap.dhat, snap.dhat_dot, snap.dhat_ddot,
            snap.num_intervals, step=k)
        for name in SNAPSHOT_ARRAYS:
            assert np.array_equal(getattr(snap, name), getattr(ref, name)), \
                (k, name)
        checked.append(k)
        return snap

    monkeypatch.setattr(simulate._BlockMarches, "snapshot", snapshot)
    run_scenario(linear_config(plant=plant, plant_params={}, X0=X0,
                               schedule_kind="sinusoid",
                               schedule_params=dict(base=0.5, amplitude=0.1,
                                                    omega=1.0),
                               num_intervals=16, dt=4e-3, horizon=2.4,
                               stride=40))
    assert len(checked) == 3 * 14
