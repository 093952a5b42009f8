import dataclasses

import numpy as np
import pytest

from delaycomp import ScenarioConfig, run_ensemble, run_scenario, simulate
from delaycomp.errors import BlowUpError, ConfigError, UsageError


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
    assert _worst_relative_difference(blocked, single) <= 1e-12


def _worst_relative_difference(a, b):
    """Largest relative difference between two runs' states, controls and
    snapshot arrays, which must be on the same steps."""
    def rel(x, y):
        x, y = np.asarray(x), np.asarray(y)
        scale = np.maximum(np.abs(x), np.abs(y))
        out = np.divide(np.abs(x - y), scale, out=np.zeros(scale.shape),
                        where=scale > 0.0)
        return float(np.max(out, initial=0.0))

    assert sorted(a.snapshots) == sorted(b.snapshots)
    worst = max(rel(a.times, b.times), rel(a.states, b.states),
                rel(a.controls, b.controls))
    for k, snap in a.snapshots.items():
        for name in SNAPSHOT_ARRAYS:
            worst = max(worst, rel(getattr(snap, name),
                                   getattr(b.snapshots[k], name)))
    return worst


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
    built = simulate._BlockMarches.snapshots
    checked = []

    def snapshots(self, k, rows, true_delay):
        snaps, lost = built(self, k, rows, true_delay)
        for snap in snaps.values():
            # a one-row history reads its row for every query
            ref = simulate.materialize_slice(
                self.model, self.controller, self.hist, snap.t, snap.X,
                true_delay, snap.dhat, snap.dhat_dot, snap.dhat_ddot,
                snap.num_intervals, step=k)
            for name in SNAPSHOT_ARRAYS:
                assert np.array_equal(getattr(snap, name),
                                      getattr(ref, name)), (k, name)
            checked.append(k)
        return snaps, lost

    monkeypatch.setattr(simulate._BlockMarches, "snapshots", snapshots)
    run_scenario(linear_config(plant=plant, plant_params={}, X0=X0,
                               schedule_kind="sinusoid",
                               schedule_params=dict(base=0.5, amplitude=0.1,
                                                    omega=1.0),
                               num_intervals=16, dt=4e-3, horizon=2.4,
                               stride=40))
    assert len(checked) == 3 * 14


# each row of an ensemble runs as its scenario alone: the rows differ in
# X0 and in the estimate schedule, and one row of each escapes at t = 0
# (the linear row's control, the cubic row's predictor march)
ENSEMBLE_ROWS = {
    "linear": [((0.7,), "constant", dict(value=0.5)),
               ((1.3,), "sinusoid", dict(base=0.5, amplitude=0.15,
                                         omega=1.0)),
               ((5e7,), "sinusoid", dict(base=0.5, amplitude=0.1,
                                         omega=1.0)),
               ((1.0,), "sinusoid", dict(base=0.45, amplitude=0.05,
                                         omega=2.0))],
    "cubic": [((0.5,), "sinusoid", dict(base=0.5, amplitude=0.0,
                                        omega=1.0)),
              ((1.5,), "sinusoid", dict(base=0.5, amplitude=0.15,
                                        omega=1.0)),
              ((40.0,), "sinusoid", dict(base=0.5, amplitude=0.1,
                                         omega=1.0)),
              ((-1.0,), "ramp", dict(base=0.5, rate=0.05))],
    "double_integrator": [
        ((0.5, -0.3), "sinusoid", dict(base=0.5, amplitude=0.0, omega=1.0)),
        ((-1.0, 0.2), "sinusoid", dict(base=0.5, amplitude=0.12, omega=1.0)),
        ((0.1, 0.4), "constant", dict(value=0.6))],
}


def _ensemble_configs(plant, **kw):
    params = dict(a=1.0, b=1.0, k=2.0) if plant == "linear" else {}
    base = dict(plant=plant, plant_params=params, num_intervals=16, dt=4e-3,
                horizon=2.4, stride=40)
    base.update(kw)
    return [linear_config(X0=X0, schedule_kind=kind, schedule_params=sp,
                          **base)
            for X0, kind, sp in ENSEMBLE_ROWS[plant]]


def _ensemble_and_solo(configs):
    """Each row of the ensemble next to its scenario run alone; a row that
    escapes must carry the error its run alone raises."""
    pairs = []
    for cfg, row in zip(configs, run_ensemble(configs)):
        try:
            alone = run_scenario(cfg)
        except BlowUpError as exc:
            assert isinstance(row, BlowUpError)
            assert (row.time, row.x, str(row)) == (exc.time, exc.x, str(exc))
            continue
        assert not isinstance(row, BlowUpError), row
        pairs.append((row, alone))
    return pairs


@pytest.mark.parametrize("plant", ["linear", "cubic"])
def test_ensemble_rows_equal_runs_alone(plant):
    pairs = _ensemble_and_solo(_ensemble_configs(plant))
    assert len(pairs) == 3
    for row, alone in pairs:
        assert row.centers == alone.centers
        for name in ("times", "states", "controls"):
            assert np.array_equal(getattr(row, name), getattr(alone, name))
        assert sorted(row.snapshots) == sorted(alone.snapshots)
        for k, snap in row.snapshots.items():
            for name in SNAPSHOT_ARRAYS:
                assert np.array_equal(getattr(snap, name),
                                      getattr(alone.snapshots[k], name)), \
                    (k, name)


def test_ensemble_rows_on_double_integrator_within_roundoff():
    pairs = _ensemble_and_solo(_ensemble_configs("double_integrator"))
    assert len(pairs) == 3
    for row, alone in pairs:
        assert _worst_relative_difference(row, alone) <= 1e-12


def test_row_that_escapes_mid_run_leaves_the_others_unchanged():
    # an unstable open loop: the two large rows escape near t = 2.5, the
    # small ones run to T
    cfgs = [linear_config(plant_params=dict(a=3.0, b=1.0, k=0.0), X0=(x,),
                          schedule_kind="sinusoid",
                          schedule_params=dict(base=0.5, amplitude=a,
                                               omega=1.0),
                          num_intervals=16, dt=4e-3, horizon=3.2,
                          stride=10 ** 6)
            for x in (1e4, 1e-6) for a in (0.0, 0.1)]
    rows = run_ensemble(cfgs)
    assert [isinstance(r, BlowUpError) for r in rows] == [True, True,
                                                          False, False]
    assert all(2.0 < r.time < 3.2 for r in rows[:2])
    pairs = _ensemble_and_solo(cfgs)
    assert len(pairs) == 2
    for row, alone in pairs:
        assert np.array_equal(row.states, alone.states)
        assert np.array_equal(row.controls, alone.controls)


def test_ensemble_rows_must_share_the_loop():
    cfgs = _ensemble_configs("linear")
    with pytest.raises(UsageError):
        run_ensemble([cfgs[0], dataclasses.replace(cfgs[1], dt=2e-3)])
    with pytest.raises(UsageError):
        run_ensemble([])
