import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp import ScenarioConfig, apply_override, cli, config_to_dict, \
    load_config, parse_config_text
from delaycomp.errors import ConfigError, UsageError

SAMPLE = """
# closed-loop scenario
plant = linear
plant.a = 1.0
plant.b = 1.0
plant.k = 2.0
X0 = 1.0
D = 0.5
schedule = sinusoid
schedule.base = 0.5
schedule.amplitude = 0.1   # peak offset
schedule.omega = 1.0
M = 100
dt = 0.001
T = 6.3
stride = 100
margin = 4.5
"""


def test_parse_round_trip():
    cfg = parse_config_text(SAMPLE)
    assert cfg.plant == "linear"
    assert cfg.plant_params == dict(a=1.0, b=1.0, k=2.0)
    assert cfg.X0 == (1.0,)
    assert cfg.true_delay == 0.5
    assert cfg.schedule_kind == "sinusoid"
    assert cfg.schedule_params == dict(base=0.5, amplitude=0.1, omega=1.0)
    assert cfg.num_intervals == 100
    assert cfg.dt == 1e-3
    assert cfg.horizon == 6.3
    assert cfg.stride == 100
    assert cfg.margin == 4.5
    d = config_to_dict(cfg)
    assert d["plant.k"] == 2.0
    assert d["schedule.omega"] == 1.0
    assert d["D"] == 0.5
    assert d["d_lower"] is None


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# only a comment\n\nplant = cubic\n")
    assert cfg.plant == "cubic"
    assert cfg.plant_params == {}


def test_unknown_key_names_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("plant = linear\nwobble = 3\n")
    assert "line 2" in str(exc.value)
    assert "wobble" in str(exc.value)


def test_bad_value_reported():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("dt = fast\n")
    assert "dt" in str(exc.value)
    assert "fast" in str(exc.value)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("plant linear\n")
    assert "key = value" in str(exc.value)


def test_vector_initial_state():
    cfg = parse_config_text("plant = double_integrator\nX0 = 0.3, -0.2\n")
    assert cfg.X0 == (0.3, -0.2)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(SAMPLE)
    assert load_config(p).horizon == 6.3


def test_apply_override_scalar_and_namespaced():
    cfg = parse_config_text(SAMPLE)
    c2 = apply_override(cfg, "M", "200")
    assert c2.num_intervals == 200 and cfg.num_intervals == 100
    c3 = apply_override(cfg, "plant.k", "3.0")
    assert c3.plant_params["k"] == 3.0 and cfg.plant_params["k"] == 2.0
    c4 = apply_override(cfg, "schedule.omega", 2.0)
    assert c4.schedule_params["omega"] == 2.0
    c5 = apply_override(cfg, "X0", "0.1,0.2")
    assert c5.X0 == (0.1, 0.2)
    c6 = apply_override(cfg, "schedule", "constant")
    assert c6.schedule_kind == "constant"
    c7 = apply_override(cfg, "plant", "cubic")
    assert c7.plant == "cubic"


def test_apply_override_rejects_unknown_or_bad():
    cfg = ScenarioConfig()
    with pytest.raises(ConfigError):
        apply_override(cfg, "wobble", 1.0)
    with pytest.raises(ConfigError):
        apply_override(cfg, "dt", "fast")


# -- properties of the schema boundary ---------------------------------------

NUMBER_KEYS = ("D", "d_lower", "d_upper", "M", "dt", "T", "stride", "margin",
               "X0", "schedule.soft_width", "plant.a", "plant.b", "plant.k",
               "schedule.base", "schedule.amplitude", "schedule.omega",
               "schedule.value", "schedule.rate", "schedule.phase")
NAMES = ("linear", "cubic", "integrator", "double_integrator", "pendulum",
         "constant", "ramp", "sinusoid")
junk = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=12)
numbers = st.one_of(st.floats(), st.integers(-10 ** 6, 10 ** 6)).map(repr)
lines = st.one_of(
    st.tuples(st.sampled_from(NUMBER_KEYS), st.one_of(numbers, junk)),
    st.tuples(st.sampled_from(("plant", "schedule")),
              st.one_of(st.sampled_from(NAMES), junk)),
    st.tuples(junk, st.one_of(numbers, junk)),
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.one_of(lines, junk), max_size=12).map("\n".join))
def test_any_config_text_builds_or_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            load_config(path).build()
            return
        except (ConfigError, UsageError):
            pass
        code = cli.main(["simulate", "--config", path,
                         "--out", os.path.join(tmp, "out")])
        assert code == 2


FLOAT_KEYS = ("D", "d_lower", "d_upper", "dt", "T", "margin",
              "schedule.soft_width", "plant.a", "plant.k", "schedule.omega")
overrides = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), st.floats(allow_nan=False)),
    st.tuples(st.sampled_from(("M", "stride")),
              st.integers(-10 ** 9, 10 ** 9)),
    st.tuples(st.just("X0"),
              st.lists(st.floats(allow_nan=False), min_size=1, max_size=3)),
    st.tuples(st.sampled_from(("plant", "schedule")), junk),
)


def _text(value):
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=200, deadline=None)
@given(earlier=st.lists(overrides, max_size=5), change=overrides)
def test_apply_override_round_trips_through_config_to_dict(earlier, change):
    cfg = ScenarioConfig()
    for key, value in earlier:
        cfg = apply_override(cfg, key, _text(value))
    before = config_to_dict(cfg)
    key, value = change
    out = apply_override(cfg, key, _text(value))
    assert config_to_dict(cfg) == before
    assert config_to_dict(out) == dict(before, **{key: value})
