import numpy as np

from delaycomp import ScenarioConfig, run_scenario
from delaycomp.serialize import fmt, snapshot_meta, snapshot_rows, \
    trajectory_rows, versions, write_csv, write_json
from delaycomp import snapshot_kernels


def small_result():
    cfg = ScenarioConfig(plant="linear",
                         plant_params=dict(a=1.0, b=1.0, k=2.0),
                         X0=(1.0,), true_delay=0.5,
                         schedule_kind="constant",
                         schedule_params=dict(value=0.5),
                         num_intervals=20, dt=5e-3, horizon=1.5, stride=100)
    return cfg, run_scenario(cfg)


def test_fmt_round_trips_floats():
    assert fmt(0.1) == "0.1"
    assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert fmt(np.float64(2.5)) == "2.5"
    assert fmt(np.int64(7)) == "7"
    assert fmt("abc") == "abc"


def test_write_csv_is_rfc4180(tmp_path):
    p = tmp_path / "out.csv"
    write_csv(p, ["a", "b"], [[1, "x,y"], [0.5, "plain"]])
    raw = p.read_bytes()
    assert raw == b'a,b\r\n1,"x,y"\r\n0.5,plain\r\n'


def test_write_json_sorted_with_newline(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"b": 2, "a": 1})
    raw = p.read_text()
    assert raw.index('"a"') < raw.index('"b"')
    assert raw.endswith("\n")


def test_versions_lists_stack():
    v = versions()
    assert sorted(v) == ["delaycomp", "numpy", "python"]
    assert all(v.values())


def test_trajectory_rows_shape():
    cfg, res = small_result()
    header, rows = trajectory_rows(res)
    assert header == ["t", "x1", "U", "dhat"]
    assert len(rows) == int(round(cfg.horizon / cfg.dt)) + 1
    assert rows[0][0] == 0.0
    assert rows[-1][0] == res.times[-1]


def test_snapshot_rows_with_kernels():
    cfg, res = small_result()
    snap = res.snapshots[res.centers[0]]
    snapshot_kernels(res.model, res.controller, cfg.true_delay, snap)
    header, rows = snapshot_rows(snap)
    assert len(rows) == cfg.num_intervals + 1
    assert "q7" not in header
    for name in ("x", "u", "uhat", "what_xx", "phat1", "p1", "q2_1",
                 "phat_t1"):
        assert name in header
    meta = snapshot_meta(snap)
    assert meta["M"] == cfg.num_intervals
    assert "q7" in meta and "q1_t" in meta


def test_serialization_is_byte_deterministic(tmp_path):
    _, r1 = small_result()
    _, r2 = small_result()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    h1, rows1 = trajectory_rows(r1)
    h2, rows2 = trajectory_rows(r2)
    write_csv(p1, h1, rows1)
    write_csv(p2, h2, rows2)
    assert p1.read_bytes() == p2.read_bytes()
