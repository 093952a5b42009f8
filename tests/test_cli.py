import json
import os

import numpy as np
import pytest

from delaycomp import cli, plants
from delaycomp.errors import FutureQueryError, UsageError

BASE = """
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
M = 20
dt = 0.005
T = 1.5
stride = 100
margin = 0.5
"""

EQUILIBRIUM = """
plant = linear
plant.a = 1.0
plant.b = 1.0
plant.k = 2.0
X0 = 0.0
D = 0.5
schedule = constant
schedule.value = 0.5
M = 16
dt = 0.002
T = 3.0
stride = 500
margin = 1.0
"""

UNSTABLE = """
plant = linear
plant.a = 1.0
plant.b = 1.0
plant.k = 0.0
X0 = 2.0
D = 0.5
schedule = constant
schedule.value = 0.5
M = 16
dt = 0.005
T = 25.0
stride = 1000000
margin = 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_writes_run(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_bytes().split(b"\r\n")
    assert len([l for l in lines if l]) == 1 + 300 + 1
    snaps = sorted(os.listdir(out / "snapshots"))
    assert "step_000100.csv" in snaps
    assert "step_000100.json" in snaps
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["M"] == 20
    assert manifest["versions"]["numpy"] == np.__version__


def test_simulate_env_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_ROOT, str(tmp_path / "root"))
    cfg = write_cfg(tmp_path, BASE)
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "root" / "simulate" / "manifest.json").exists()


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("dt = 0.005", "dt = -1.0"))
    code = cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_unknown_schedule_parameter_exit_2(tmp_path, capsys):
    # a misspelt key must not fall back to the default omega = 1
    cfg = write_cfg(tmp_path, BASE + "schedule.omgea = 5.0\n")
    code = cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "schedule.omgea" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_simulate_missing_config_exit_2(tmp_path):
    code = cli.main(["simulate", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_simulate_blowup_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, UNSTABLE)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blow-up"
    assert 0.0 < manifest["failure_time"] < 25.0


def test_simulate_numeric_fault_exit_4(tmp_path, monkeypatch):
    def broken(cfg):
        raise np.linalg.LinAlgError("singular transition system")
    monkeypatch.setattr(cli, "run_scenario", broken)
    cfg = write_cfg(tmp_path, BASE)
    code = cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")])
    assert code == 4


def test_simulate_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_equilibrium_exit_0(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EQUILIBRIUM)
    out = tmp_path / "v"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--ladder", "16:0.002,32:0.001,64:0.0005"])
    assert code == 0
    assert "verify: ok" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["slopes"]["state"] == "exact"
    assert (out / "report.txt").exists()
    assert (out / "convergence.csv").exists()


def test_verify_unreachable_slope_exit_5(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EQUILIBRIUM.replace("X0 = 0.0", "X0 = 1.0")
                    .replace("T = 3.0", "T = 2.4")
                    .replace("stride = 500", "stride = 250"))
    out = tmp_path / "v"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--ladder", "16:0.002,32:0.001,64:0.0005",
                     "--slope-min", "99"])
    assert code == 5
    assert "FAIL" in capsys.readouterr().err


def test_verify_blowup_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, UNSTABLE.replace("stride = 1000000",
                                               "stride = 100"))
    code = cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "v"),
                     "--ladder", "16:0.005,32:0.005,64:0.005"])
    assert code == 3


def test_verify_short_ladder_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, EQUILIBRIUM)
    code = cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "v"), "--ladder", "16,32"])
    assert code == 2
    assert not (tmp_path / "v").exists()


def test_verify_bad_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EQUILIBRIUM + "schedule.valeu = 0.4\n")
    code = cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "v"), "--ladder", "16,32,64"])
    assert code == 2
    assert "schedule.valeu" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_sweep_grid(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "plant.k=1.5,2.0", "--set", "M=16,20"])
    assert code == 0
    lines = (out / "aggregate.csv").read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "cell,plant.k,M,final_norm,max_residual,status"
    assert len(lines) == 5
    cells = [d for d in os.listdir(out) if d.startswith("cell_")]
    assert len(cells) == 4
    for cell in cells:
        assert (out / cell / "trajectory.csv").exists()
        assert (out / cell / "manifest.json").exists()


def test_sweep_worst_code_wins(tmp_path):
    cfg = write_cfg(tmp_path, UNSTABLE.replace("T = 25.0", "T = 22.0"))
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "plant.k=0.0,2.0"])
    assert code == 3
    lines = (out / "aggregate.csv").read_bytes().decode().strip().split("\r\n")
    statuses = {l.rsplit(",", 1)[-1] for l in lines[1:]}
    assert statuses == {"ok", "blow-up"}


def test_sweep_ensemble_blowup_marks_only_its_cell(tmp_path):
    # both cells share plant and grid, so they run as one ensemble; the
    # large one escapes, the small one runs to T as it does alone
    text = UNSTABLE.replace("plant.a = 1.0", "plant.a = 3.0").replace(
        "T = 25.0", "T = 3.2")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "X0=1e4,1e-6"])
    assert code == 3
    lines = (out / "aggregate.csv").read_bytes().decode().strip().split("\r\n")
    status = {l.split(",")[0]: l.rsplit(",", 1)[-1] for l in lines[1:]}
    assert status == {"cell_X0-1e4": "blow-up", "cell_X0-1e-6": "ok"}
    failed = json.loads((out / "cell_X0-1e4" / "manifest.json").read_text())
    alone = tmp_path / "alone"
    single = write_cfg(tmp_path, text.replace("X0 = 2.0", "X0 = 1e4"),
                       name="alone.cfg")
    assert cli.main(["simulate", "--config", single,
                     "--out", str(alone)]) == 3
    solo = json.loads((alone / "manifest.json").read_text())
    assert (failed["failure_time"], failed["failure"]) == \
        (solo["failure_time"], solo["failure"])
    ok = tmp_path / "ok"
    single = write_cfg(tmp_path, text.replace("X0 = 2.0", "X0 = 1e-6"),
                       name="ok.cfg")
    assert cli.main(["simulate", "--config", single, "--out", str(ok)]) == 0
    assert (out / "cell_X0-1e-6" / "trajectory.csv").read_bytes() == \
        (ok / "trajectory.csv").read_bytes()


def test_serial_sweep_chunks_hold_at_most_ensemble_rows(tmp_path,
                                                       monkeypatch):
    # a serial sweep splits a group of three cells into chunks of at most
    # ENSEMBLE_ROWS rows, with the same files as one chunk of three
    cfg = write_cfg(tmp_path, BASE)
    axis = ["--set", "X0=0.5,1.0,1.5"]
    whole = tmp_path / "whole"
    assert cli.main(["sweep", "--config", cfg, "--out", str(whole)]
                    + axis) == 0
    sizes = []
    run_chunk = cli._sweep_cell

    def recording(payload):
        sizes.append(len(payload))
        return run_chunk(payload)

    monkeypatch.setattr(cli, "ENSEMBLE_ROWS", 2)
    monkeypatch.setattr(cli, "_sweep_cell", recording)
    split = tmp_path / "split"
    assert cli.main(["sweep", "--config", cfg, "--out", str(split)]
                    + axis) == 0
    assert sizes == [2, 1]
    for name in ["aggregate.csv"] + [
            f"cell_X0-{x}/trajectory.csv" for x in ("0.5", "1.0", "1.5")]:
        assert (split / name).read_bytes() == (whole / name).read_bytes()


def test_sweep_cells_resolving_to_one_scenario_exit_2(tmp_path, capsys):
    # three spellings of one value name three cells but one scenario
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "plant.k=2,2.0,2e0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "resolve to the same scenario" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_without_axes_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert code == 2


def test_sweep_bad_axis_value_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--set", "dt="])
    assert code == 2


DUPLICATE_CELLS = {
    "key-in-two-axes": ["--set", "M=16,20", "--set", "M=24"],
    "value-twice-in-one-axis": ["--set", "M=16,16"],
    "key-twice-with-spaces": ["--set", "plant.k=1.5",
                              "--set", " plant.k =2.0"],
}


@pytest.mark.parametrize("argv", DUPLICATE_CELLS.values(),
                         ids=DUPLICATE_CELLS.keys())
def test_sweep_duplicate_cell_exit_2(tmp_path, capsys, argv):
    # two cells that would share one directory are refused before any
    # directory is made
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "s"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "twice" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_integrator_takes_no_plant_parameters(tmp_path, capsys):
    # the integrator is the linear plant with a, b and k fixed
    text = BASE.replace("plant = linear", "plant = integrator").replace(
        "plant.a = 1.0\nplant.b = 1.0\nplant.k = 2.0\n", "plant.a = 2\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "plant parameters" in err and "'a'" in err
    assert not out.exists()


@pytest.mark.parametrize("registered", [False, True],
                         ids=["unknown-plant", "registered-plant"])
def test_sweep_cell_outside_root_exit_2(tmp_path, capsys, monkeypatch,
                                        registered):
    # a cell name that climbs out of the output root is refused before
    # any directory is made, whether or not the plant itself would build
    name = "../../../escaped"
    if registered:
        monkeypatch.setitem(plants.PLANT_REGISTRY, name, plants.make_linear)
    cfg = write_cfg(tmp_path, BASE)
    root = tmp_path / "root"
    root.mkdir()
    before = sorted(os.listdir(tmp_path))
    code = cli.main(["sweep", "--config", cfg, "--out", str(root / "out"),
                     "--set", f"plant={name}"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert os.listdir(root) == []
    assert sorted(os.listdir(tmp_path)) == before


NON_FINITE = [
    ("T", "inf"), ("X0", "nan"), ("schedule.amplitude", "nan"),
    ("dt", "nan"), ("D", "inf"), ("d_lower", "nan"), ("d_upper", "inf"),
    ("plant.a", "inf"), ("margin", "-inf"), ("schedule.soft_width", "nan"),
]


@pytest.mark.parametrize("key,value", NON_FINITE,
                         ids=[f"{k}={v}" for k, v in NON_FINITE])
def test_non_finite_setting_exit_2(tmp_path, capsys, key, value):
    # a later line overrides the base scenario's value of the key
    cfg = write_cfg(tmp_path, BASE + f"{key} = {value}\n")
    code = cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be finite" in err
    assert "Traceback" not in err


def test_bad_ladder_rung_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EQUILIBRIUM)
    code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--ladder", "16,x:0.1,64"])
    assert code == 2
    assert "ladder rung" in capsys.readouterr().err


@pytest.mark.parametrize("error,code", [
    (UsageError("malformed call"), 2),
    (FutureQueryError("requested t beyond newest sample"), 4),
], ids=["usage", "future-query"])
def test_package_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch,
                                          error, code):
    def broken(cfg):
        raise error
    monkeypatch.setattr(cli, "run_scenario", broken)
    cfg = write_cfg(tmp_path, BASE)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert str(error) in err
    assert "Traceback" not in err


OVERSIZED = {
    "steps-overflow": "T = 1e300\ndt = 1e-300\n",
    "steps-finite": "T = 1e6\ndt = 1e-9\n",
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_oversized_run_exit_2(tmp_path, capsys, command, case):
    # the size guard reads T/dt before any array is allocated
    cfg = write_cfg(tmp_path, BASE + OVERSIZED[case])
    out = tmp_path / "o"
    code = cli.main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("ladder", [
    "16:0.005,32:1e-300,64:1e-300",  # T/dt too large on the finer rungs
    "16:0,32:0.005,64:0.005",
    "16:nan,32:0.005,64:0.005",
])
def test_verify_bad_rung_step_exit_2(tmp_path, capsys, ladder):
    # every rung is checked before the first one runs
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "v"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--ladder", ladder])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("slope_min", ["nan", "inf", "-inf", "0", "-1"])
def test_verify_bad_slope_min_exit_2(tmp_path, capsys, slope_min):
    # a required order that is not positive and finite is rejected before
    # the first rung runs
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "v"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--ladder", "10:0.02,20:0.01,40:0.005",
                     f"--slope-min={slope_min}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "slope_min" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_cell_without_window_centre_has_no_residual(tmp_path):
    # at T = 1.5 every snapshot centre lies before the analysis window
    # (max Dhat + margin = 1.1 s); at T = 2.5 two of them fall inside it
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--set", "T=1.5,2.5"]) == 0
    rows = (out / "aggregate.csv").read_text().splitlines()[1:]
    residual = {row.split(",")[0]: row.split(",")[3] for row in rows}
    assert residual["cell_T-1.5"] == "nan"
    assert float(residual["cell_T-2.5"]) > 0.0
    empty = json.loads((out / "cell_T-1.5" / "manifest.json").read_text())
    full = json.loads((out / "cell_T-2.5" / "manifest.json").read_text())
    assert empty["status"] == "ok"
    assert "max_residual" not in empty
    assert np.isfinite(empty["final_norm"])
    assert full["max_residual"] == float(residual["cell_T-2.5"])
