"""Shared helpers: synthetic input signals and materialized time slices."""

import numpy as np
import pytest

from delaycomp import ControlHistory, Controller, PlantModel, make_plant, \
    materialize_slice


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


def trig_plant():
    """f = (sin(x0) x1, exp(x0) u + cos(x1)), kappa = sin(x0) exp(x1) - x0,
    given as f and kappa alone."""
    def f(X, u):
        x0, x1 = X[..., 0], X[..., 1]
        return np.stack([np.sin(x0) * x1, np.exp(x0) * u + np.cos(x1)],
                        axis=-1)

    def kappa(X):
        return np.sin(X[..., 0]) * np.exp(X[..., 1]) - X[..., 0]

    return PlantModel(dim=2, f=f), Controller(dim=2, kappa=kappa)


@pytest.fixture
def linear_bundle():
    return make_plant("linear")
