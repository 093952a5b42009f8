"""Forward and inverse backstepping maps between the actuator estimate and
the transformed field.

The inverse map reads the midpoints of w from the four-point rule on the
nearest nodes (`GridProfile.interpolant`).
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, UsageError
from .grid import GridProfile
from .predictor import _half_grid_values, _march, check_escape


def forward_transform(controller, uhat, phat):
    """w(x) = uhat(x) - kappa(p(x)), one array call of kappa over the
    nodes."""
    nodes = phat.values.shape[0]
    if uhat.values.shape[0] != nodes:
        raise GridMismatchError("uhat and phat live on different grids")
    kap = controller.kappa(phat.values.reshape(nodes, -1))
    return GridProfile(uhat.values - kap)


def inverse_transform(model, controller, X, what, dhat):
    """Reconstruct (uhat, phat) from the transformed field.

    Marches dp/dx = Dhat f(p, w(x) + kappa(p)) from p(0) = X, then recovers
    the actuator estimate as uhat = w + kappa(p).  Raises BlowUpError at
    the first node where the march escapes.
    """
    if dhat <= 0.0:
        raise UsageError("delay estimate must be positive")
    X = np.atleast_1d(np.asarray(X, dtype=float))
    w_half = _half_grid_values(what)

    def rhs(ih, p):
        return dhat * model.f(p, w_half[ih] + controller.kappa(p))

    pv = _march(rhs, X, what.num_intervals)
    check_escape(pv, what.num_intervals)
    phat = GridProfile(pv if model.dim > 1 else pv[:, 0])
    return GridProfile(what.values + controller.kappa(pv)), phat
