import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp import ControlHistory, distributed_true_input
from delaycomp.grid import lagrange4
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


def test_breaks_take_the_nearest_one_sided_stencil():
    # a signal that no stencil reproduces exactly, smooth on each side of
    # a kink at sample 100: a query on either side reads the four samples
    # nearest to it that do not cross the kink
    dt, kink = 0.01, 100
    fn = lambda t: np.sin(3.0 * t) if t <= 1.0 else \
        np.sin(3.0) + np.sin(5.0 * (t - 1.0))
    hist = make_history(fn=fn, dt=dt, t_end=2.0, breaks=[kink * dt])
    vals = np.array([fn(k * dt) for k in range(201)])
    for theta, base in ((0.995, kink - 3), (0.985, kink - 3),
                        (1.005, kink), (1.015, kink)):
        expect = lagrange4(theta / dt - base, *vals[base:base + 4])
        assert abs(hist.sample_many(theta) - expect) < 1e-15


def test_breaks_off_grid_are_ignored():
    theta = np.linspace(0.3, 1.7, 101)
    assert np.array_equal(
        make_history(dt=0.01, t_end=2.0).sample_many(theta),
        make_history(dt=0.01, t_end=2.0, breaks=[1.0033]).sample_many(theta))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(4, 60),
       inner=st.lists(st.integers(1, 58), max_size=4),
       past=st.lists(st.integers(0, 8), min_size=1, max_size=4),
       before=st.lists(st.integers(-8, 0), max_size=3))
def test_breaks_outside_the_samples_change_nothing(seed, n, inner, past,
                                                   before):
    # breaks at or past the newest sample, or at or before t = 0, move no
    # stencil, with or without tail extrapolation: the history reads as
    # one given only the breaks strictly inside its samples
    dt = 0.01
    rng = np.random.default_rng(seed)
    inside = [k * dt for k in inner if k < n - 1]
    outside = [(n - 1 + k) * dt for k in past] + [k * dt for k in before]
    plain = ControlHistory(dt, breaks=inside)
    padded = ControlHistory(dt, breaks=inside + outside)
    for k, value in enumerate(rng.uniform(-1.0, 1.0, n)):
        plain.append(k * dt, value)
        padded.append(k * dt, value)
    for reach in (0.0, dt):
        thetas = np.concatenate([
            dt * np.arange(n),
            rng.uniform(-2.0 * dt, plain.t_now + reach, size=64)])
        assert np.array_equal(
            padded.sample_many(thetas, reach > 0.0),
            plain.sample_many(thetas, reach > 0.0))


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
    # the step loop's protocol: at each block start sample the settled
    # times once; every later step of the block appends its sample and may
    # replace it, and must read the same values there
    dt = 0.01
    rng = np.random.default_rng(seed)
    breaks = [k * dt for k in kinks] + [(kinks[0] + off_grid) * dt] \
        if kinks else None
    hist = ControlHistory(dt, breaks=breaks)
    step = 0
    for _ in range(start):
        hist.append(step * dt, rng.uniform(-1.0, 1.0))
        step += 1
    for size in blocks:
        thetas = hist.t_now + rng.uniform(-0.5, 1.5 * dt, size=64)
        mask = hist.settled(thetas)
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


def test_settled_time_past_a_break_reads_the_newest_sample():
    # with a break at sample index n - 4, a settled time just after it has
    # its stencil moved onto samples n - 4 .. n - 1, so replacing the
    # newest sample changes it; settled values may only be kept once the
    # newest sample is final (the step loop samples them at block start)
    dt = 0.01
    hist = ControlHistory(dt, breaks=[0.10])
    for k in range(14):
        hist.append(k * dt, np.sin(3.0 * k * dt))
    theta = np.array([0.105, 0.085])
    assert hist.settled(theta).all()
    before = hist.sample_many(theta)
    hist.replace_last(1.0)
    after = hist.sample_many(theta)
    assert after[0] != before[0]
    assert after[1] == before[1]  # before the break: samples 7 .. 10


def test_rows_interpolate_as_their_own_histories():
    # a history of K rows reads each query from its row exactly as a
    # one-signal history of that row's samples does, breaks included
    dt = 0.01
    rng = np.random.default_rng(5)
    signals = rng.uniform(-1.0, 1.0, size=(3, 40))
    rows = ControlHistory(dt, breaks=[0.1, 0.2], rows=3)
    alone = [ControlHistory(dt, breaks=[0.1, 0.2]) for _ in range(3)]
    for k in range(40):
        rows.append(k * dt, signals[:, k])
        for hist, sig in zip(alone, signals):
            hist.append(k * dt, sig[k])
        thetas = rng.uniform(-0.05, (k + 1) * dt, size=(3, 9))
        which = rng.integers(0, 3, size=9)
        got = rows.sample_many(thetas, allow_tail_extrapolation=True)
        mixed = rows.sample_many(thetas[0], True, rows=which)
        for r, hist in enumerate(alone):
            ref = hist.sample_many(thetas[r], allow_tail_extrapolation=True)
            assert np.array_equal(got[r], ref)
            assert np.array_equal(
                mixed[which == r], hist.sample_many(thetas[0][which == r],
                                                    True))
    assert np.array_equal(rows.values, signals)
    with pytest.raises(UsageError):
        rows.append(40 * dt, 1.0)
