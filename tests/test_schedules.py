import numpy as np
import pytest

from delaycomp import make_schedule, relative_mismatch
from delaycomp.errors import ConfigError
from delaycomp.plants import DelayBounds

BOUNDS = DelayBounds(d_lower=0.2, d_upper=1.0, true_delay=0.5)


def test_constant_schedule_triple():
    sched = make_schedule("constant", BOUNDS, value=0.7)
    assert sched.evaluate(2.3) == (0.7, 0.0, 0.0)


def test_sinusoid_at_time_zero():
    sched = make_schedule("sinusoid", BOUNDS, base=0.5, amplitude=0.1,
                          omega=1.0)
    d, d1, d2 = sched.evaluate(0.0)
    assert abs(d - 0.5) < 1e-14
    assert abs(d1 - 0.1) < 1e-14
    assert abs(d2) < 1e-14


@pytest.mark.parametrize("kind,params", [
    ("ramp", dict(base=0.5, rate=0.08)),
    ("sinusoid", dict(base=0.5, amplitude=0.25, omega=1.7)),
])
def test_derivatives_match_finite_differences(kind, params):
    sched = make_schedule(kind, BOUNDS, **params)
    hs = [1e-3, 5e-4]
    for t in np.linspace(0.3, 8.0, 17):
        d, d1, d2 = sched.evaluate(t)
        errs1, errs2 = [], []
        for h in hs:
            vp = sched.evaluate(t + h)[0]
            vm = sched.evaluate(t - h)[0]
            errs1.append(abs((vp - vm) / (2.0 * h) - d1))
            errs2.append(abs((vp - 2.0 * d + vm) / (h * h) - d2))
        assert errs1[1] <= errs1[0] / 3.0 + 1e-11
        assert errs2[1] <= errs2[0] / 3.0 + 1e-7


def test_saturation_keeps_estimate_inside_bounds():
    sched = make_schedule("ramp", BOUNDS, base=0.5, rate=0.3)
    values = [sched.evaluate(t)[0] for t in np.linspace(0.0, 30.0, 301)]
    assert max(values) <= BOUNDS.d_upper + 1e-12
    assert min(values) >= BOUNDS.d_lower - 1e-12
    sched = make_schedule("ramp", BOUNDS, base=0.5, rate=-0.3)
    values = [sched.evaluate(t)[0] for t in np.linspace(0.0, 30.0, 301)]
    assert min(values) >= BOUNDS.d_lower - 1e-12


def test_max_value_tracks_peak():
    sched = make_schedule("sinusoid", BOUNDS, base=0.5, amplitude=0.1,
                          omega=1.0)
    assert abs(sched.max_value(10.0) - 0.6) < 1e-3


def test_constant_outside_bounds_rejected():
    with pytest.raises(ConfigError):
        make_schedule("constant", BOUNDS, value=1.5)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        make_schedule("sawtooth", BOUNDS)


@pytest.mark.parametrize("kind,params,bad", [
    ("sinusoid", dict(base=0.5, omgea=5.0), "omgea"),
    ("constant", dict(value=0.5, amplitude=0.1), "amplitude"),
    ("ramp", dict(base=0.5, omega=1.0), "omega"),
])
def test_unknown_parameter_rejected_by_name(kind, params, bad):
    with pytest.raises(ConfigError, match=f"schedule.{bad}"):
        make_schedule(kind, BOUNDS, **params)


def test_relative_mismatch():
    assert relative_mismatch(0.5, 0.5) == 0.0
    assert abs(relative_mismatch(0.5, 0.4) - 0.2) < 1e-15
    assert abs(relative_mismatch(0.5, 0.6) + 0.2) < 1e-15
