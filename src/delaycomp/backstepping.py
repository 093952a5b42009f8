"""Forward and inverse backstepping maps between the actuator estimate and
the transformed field, plus the boundary-condition check of the control law.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, UsageError
from .grid import GridProfile
from .predictor import _half_grid_values, _march


def forward_transform(controller, uhat, phat):
    """w(x) = uhat(x) - kappa(p(x)) nodewise."""
    if uhat.values.shape[0] != phat.values.shape[0]:
        raise GridMismatchError("uhat and phat live on different grids")
    kap = np.array([controller.kappa(np.atleast_1d(phat.values[i]))
                    for i in range(phat.values.shape[0])])
    return GridProfile(uhat.values - kap)


def inverse_transform(model, controller, X, what, dhat):
    """Reconstruct (uhat, phat) from the transformed field.

    Marches dp/dx = Dhat f(p, w(x) + kappa(p)) from p(0) = X, then recovers
    the actuator estimate as uhat = w + kappa(p).
    """
    if dhat <= 0.0:
        raise UsageError("delay estimate must be positive")
    X = np.atleast_1d(np.asarray(X, dtype=float))
    w_half = _half_grid_values(what)
    m = what.num_intervals

    def rhs(ih, p):
        return dhat * model.f(p, w_half[ih] + controller.kappa(p))

    pv = _march(rhs, X, m)
    kap = np.array([controller.kappa(pv[i]) for i in range(m + 1)])
    phat = GridProfile(pv if model.dim > 1 else pv[:, 0])
    return GridProfile(what.values + kap), phat


def boundary_check(history, controller, phat, t):
    """|U(t) - kappa(p(1, t))|: zero when the control law set U from this
    predictor profile."""
    u_now = history.sample_many(float(t))
    p_end = np.atleast_1d(phat.values[-1])
    return abs(float(u_now) - controller.kappa(p_end))
