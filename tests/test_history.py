import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp import ControlHistory, distributed_true_input
from delaycomp.errors import FutureQueryError, UsageError
from conftest import make_history, smooth_signal


def test_constant_signal_interpolates_exactly():
    hist = make_history(fn=lambda t: 0.75, dt=0.01, t_end=1.0)
    thetas = np.linspace(0.0, 1.0, 517)
    assert np.allclose(hist.sample_many(thetas), 0.75, atol=1e-14)


def test_zero_before_recording_started():
    hist = make_history(dt=0.01, t_end=1.0)
    assert hist.sample_many(-1.0) == 0.0
    assert np.all(hist.sample_many(np.array([-2.0, -0.5])) == 0.0)


def test_cubic_signals_reproduce_exactly():
    hist = make_history(fn=lambda t: t ** 3 - 0.4 * t + 0.2, dt=0.02,
                        t_end=2.0)
    thetas = np.linspace(0.05, 1.95, 301)
    exact = thetas ** 3 - 0.4 * thetas + 0.2
    assert np.max(np.abs(hist.sample_many(thetas) - exact)) < 1e-12


def test_smooth_signal_midpoint_accuracy():
    errs = []
    for dt in (0.02, 0.01):
        hist = make_history(dt=dt, t_end=2.0)
        thetas = np.arange(0.5, 1.5, dt) + 0.5 * dt
        errs.append(np.max(np.abs(hist.sample_many(thetas)
                                  - smooth_signal(thetas))))
    assert errs[1] < errs[0] / 8.0  # fourth order in the step


def test_future_query_raises():
    hist = make_history(dt=0.01, t_end=1.0)
    with pytest.raises(FutureQueryError):
        hist.sample_many(np.array([1.02]))
    # one extra step is allowed under tail extrapolation, no further
    hist.sample_many(np.array([1.009]), allow_tail_extrapolation=True)
    with pytest.raises(FutureQueryError):
        hist.sample_many(np.array([1.02]), allow_tail_extrapolation=True)


def test_append_off_grid_rejected():
    hist = ControlHistory(0.01)
    hist.append(0.0, 1.0)
    with pytest.raises(UsageError):
        hist.append(0.02, 2.0)


def test_replace_at_overwrites_sample():
    hist = make_history(fn=lambda t: 1.0, dt=0.1, t_end=1.0)
    hist.replace_at(0.5, 3.0)
    assert hist.sample_many(0.5) == 3.0
    with pytest.raises(UsageError):
        hist.replace_at(0.55, 0.0)
    with pytest.raises(UsageError):
        hist.replace_at(4.0, 0.0)


def test_breaks_keep_stencils_one_sided():
    kink = 1.0
    fn = lambda t: abs(t - kink)
    theta = np.array([0.995, 1.005])
    plain = make_history(fn=fn, dt=0.01, t_end=2.0).sample_many(theta)
    aware = make_history(fn=fn, dt=0.01, t_end=2.0,
                         breaks=[kink]).sample_many(theta)
    exact = np.abs(theta - kink)
    assert np.max(np.abs(plain - exact)) > 1e-4
    assert np.max(np.abs(aware - exact)) < 1e-12


def test_breaks_off_grid_are_ignored():
    theta = np.linspace(0.3, 1.7, 101)
    assert np.array_equal(
        make_history(dt=0.01, t_end=2.0).sample_many(theta),
        make_history(dt=0.01, t_end=2.0, breaks=[1.0033]).sample_many(theta))


def test_break_indices_follow_a_trim():
    # the on-grid break indices are cached per buffer origin and length;
    # after a trim and as many appends as it dropped the length is back
    # where it was, but the origin has moved
    dt, kink = 0.01, 1.3
    fn = lambda t: abs(t - kink)
    hist = ControlHistory(dt, retention=1.0, breaks=[kink])
    for k in range(201):
        hist.append(k * dt, fn(k * dt))
    before = hist.num_samples
    theta = np.linspace(1.25, 1.95, 71)
    hist.sample_many(theta)
    hist.trim()
    dropped = before - hist.num_samples
    assert dropped > 0
    for k in range(201, 201 + dropped):
        hist.append(k * dt, fn(k * dt))
    assert hist.num_samples == before
    fresh = ControlHistory(dt, t_start=dropped * dt, breaks=[kink])
    for k, value in enumerate(hist.values):
        fresh.append((dropped + k) * dt, value)
    assert np.array_equal(hist.sample_many(theta), fresh.sample_many(theta))
    assert np.max(np.abs(hist.sample_many(theta) - fn(theta))) < 1e-12


def test_trim_keeps_recent_window():
    hist = ControlHistory(0.01, retention=0.5)
    for k in range(301):
        hist.append(k * 0.01, smooth_signal(k * 0.01))
    hist.trim()
    theta = np.linspace(2.6, 3.0, 57)
    assert np.max(np.abs(hist.sample_many(theta)
                         - smooth_signal(theta))) < 1e-9


def test_distributed_fields_boundary_values():
    hist = make_history(dt=0.001, t_end=3.0)
    t, dhat = 2.5, 0.45
    uhat = distributed_true_input(hist, t, dhat, 100)
    assert abs(uhat.values[-1] - hist.sample_many(t)) < 1e-14
    assert abs(uhat.values[0] - smooth_signal(t - dhat)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       start=st.integers(4, 80),
       blocks=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       kinks=st.lists(st.integers(1, 150), max_size=4),
       off_grid=st.floats(0.1, 0.9))
def test_settled_samples_do_not_change_within_a_block(seed, start, blocks,
                                                      kinks, off_grid):
    # the step loop's protocol: at each block start (after a trim) sample
    # the settled times once; every later step of the block appends its
    # sample and may replace it, and must read the same values there
    dt = 0.01
    rng = np.random.default_rng(seed)
    breaks = [k * dt for k in kinks] + [(kinks[0] + off_grid) * dt] \
        if kinks else None
    hist = ControlHistory(dt, retention=0.3, breaks=breaks)
    step = 0
    for _ in range(start):
        hist.append(step * dt, rng.uniform(-1.0, 1.0))
        step += 1
    for size in blocks:
        hist.trim()
        thetas = hist.t_now + rng.uniform(-0.5, 1.5 * dt, size=64)
        mask = hist.settled(thetas)
        if hist.num_samples >= 4:
            # everything at least three steps back is settled
            assert np.all(mask[thetas <= hist.t_now - 3.0 * dt])
        assert not np.any(mask[thetas > hist.t_now])
        first = hist.sample_many(thetas[mask])
        for _ in range(size):
            hist.append(step * dt, rng.uniform(-1.0, 1.0))
            step += 1
            for extrapolate in (True, False):
                assert np.array_equal(
                    hist.sample_many(thetas[mask], extrapolate), first)
            hist.replace_last(rng.uniform(-1.0, 1.0))
            assert np.array_equal(hist.sample_many(thetas[mask]), first)


def test_nothing_settled_before_four_samples():
    hist = ControlHistory(0.1)
    for k in range(3):
        hist.append(0.1 * k, 1.0)
        assert not np.any(hist.settled(np.array([-1.0, 0.0, 0.1 * k])))
    hist.append(0.3, 1.0)
    assert np.array_equal(hist.settled(np.array([-1.0, 0.0, 0.05, 0.1])),
                          [True, True, True, False])
