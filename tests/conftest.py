"""Shared helpers: synthetic input signals and materialized time slices."""

import numpy as np
import pytest

from delaycomp import ControlHistory, make_plant, materialize_slice


def smooth_signal(theta):
    """A smooth scalar test input with incommensurate frequencies."""
    return 0.25 * np.sin(1.3 * theta) + 0.1 * np.cos(0.7 * theta)


def make_history(fn=smooth_signal, dt=1e-3, t_end=3.5, breaks=None):
    hist = ControlHistory(dt, breaks=breaks)
    n = int(round(t_end / dt))
    for k in range(n + 1):
        t = k * dt
        hist.append(t, float(fn(t)))
    return hist


def make_slice(plant, X, num_intervals=200, t=3.0, true_delay=0.6,
               dhat=0.45, dhat_dot=0.07, dhat_ddot=-0.04, fn=smooth_signal):
    """Materialize a full snapshot from a synthetic recorded input."""
    bundle = make_plant(plant)
    hist = make_history(fn=fn)
    snap = materialize_slice(bundle.model, bundle.controller, hist, t,
                             np.atleast_1d(X), true_delay, dhat, dhat_dot,
                             dhat_ddot, num_intervals)
    return bundle, snap


@pytest.fixture
def linear_bundle():
    return make_plant("linear")
