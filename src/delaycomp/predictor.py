"""Distributed state predictor and the transition matrices of its
linearization.

The predictor solves dp/dx = Dhat f(p, uhat(x)) from p(0) = X by classical
fourth-order steps over the grid.  Its stage inputs are the actuator
estimate at the nodes and the interval midpoints, a `HalfGridProfile`
that callers sample straight from the recorded input, so no interpolant
is built for a march and every stage input is local in time.  A node-only
`GridProfile` is still accepted; its midpoints come from the four-point
rule on the nearest nodes (`GridProfile.interpolant`), local in space.

`_march` runs the RK4 sweep.  Its state may carry a leading member axis,
so several marches advance in lockstep through one sweep (the closed-loop
simulator uses this for the known prefixes of a block of steps, and for
the tails of all the scenarios of an ensemble, see `simulate`), and it can
start and stop at interior nodes.  Blow-up is checked once per march,
after the sweep, by locating the first node that left the finite range
(`check_escape`, or `member_escapes` per member of a lockstep march); the
caller checks, because only it knows which members belong to one
scenario.

The transition field collects Phi(x_i, 0) for the space-varying equation
dr/dx = Dhat (df/dX)(p(x), uhat(x)) r, from which Phi(x, y) is composed as
Phi(x, 0) Phi(y, 0)^{-1}.  It is marched on node profiles of p and uhat,
whose midpoints come from the same four-point rule.  The Jacobian df/dX
here, and df/du and dkappa/dX in the forcing integral, come from one jet
evaluation of f (and kappa) over all the points (`jets.derivatives`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, IllConditionedTransitionError, UsageError
from .grid import (GridProfile, HalfGridProfile, cumulative_trapezoid,
                   grid_nodes)
from .jets import derivatives

BLOWUP_LIMIT = 1e8
COND_LIMIT = 1e12


def _march(rhs, y0, num_intervals, start=0, stops=None):
    """RK4 march of dy/dx = rhs(i_half, y) over the unit grid.

    `rhs` receives the half-grid index (2M+1 points) of the stage, so node
    and midpoint samples are looked up from precomputed arrays.  The march
    starts from `y0` at node `start` and returns the states at nodes
    start..M, unchecked: non-finite values propagate without warnings.

    Lockstep form: with `stops`, `y0` is (K, n), one row per member, and
    member k stops at node stops[k]; `stops` must not increase along the
    rows, so the members still marching are always a leading block of
    rows, and `rhs` gets that block.  The result is (nodes, K, n) with the
    entries past a member's stop left unset.
    """
    h = 1.0 / num_intervals
    if stops is None:
        end, active = num_intervals, None
    else:
        stops = np.asarray(stops, dtype=int)
        end = int(stops[0]) if stops.size else start
        active = np.count_nonzero(
            stops[None, :] > np.arange(start, end)[:, None], axis=1)
    y = np.empty((end - start + 1,) + np.shape(y0))
    y[0] = y0
    with np.errstate(all="ignore"):
        for i in range(start, end):
            r = i - start
            rows = slice(None) if active is None else slice(0, active[r])
            yi = y[r, rows]
            k1 = rhs(2 * i, yi)
            k2 = rhs(2 * i + 1, yi + 0.5 * h * k1)
            k3 = rhs(2 * i + 1, yi + 0.5 * h * k2)
            k4 = rhs(2 * i + 2, yi + h * k3)
            y[r + 1, rows] = yi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def member_escapes(y, num_intervals, start=0):
    """{i: BlowUpError} for the members i of a lockstep march `y` (nodes
    start, start+1, ... along axis 0, members along axis 1) whose state
    left the finite range, each naming the member's first node after
    `start` that is non-finite or beyond BLOWUP_LIMIT."""
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(y[1:]) <= BLOWUP_LIMIT)
    if not bad.any():
        return {}
    bad = bad.reshape(bad.shape[:2] + (-1,)).any(axis=2)
    lost = {}
    for i in np.flatnonzero(bad.any(axis=0)):
        x = (start + int(np.argmax(bad[:, i])) + 1) * (1.0 / num_intervals)
        lost[int(i)] = BlowUpError(f"predictor march escaped near x={x:.4f}",
                                   x=x)
    return lost


def check_escape(y, num_intervals, start=0):
    """Raise BlowUpError at the first node after `start` whose state is
    non-finite or beyond BLOWUP_LIMIT; `y` holds nodes start, start+1, ..."""
    lost = member_escapes(np.asarray(y)[:, None], num_intervals, start)
    if lost:
        raise lost[0]


def _half_grid_values(profile):
    """Profile values on the doubled grid (nodes and midpoints), each
    midpoint from the four nearest nodes."""
    m = profile.num_intervals
    xs = np.linspace(0.0, 1.0, 2 * m + 1)
    return profile.interpolant()(xs)


def compute_predictor(model, X, uhat, dhat):
    """March the predictor profile from the state and the actuator estimate.

    `uhat` is a HalfGridProfile (the estimate at nodes and midpoints); a
    node-only GridProfile gets four-point midpoints.  Returns the node
    profile.
    """
    if dhat <= 0.0:
        raise UsageError("delay estimate must be positive")
    X = np.atleast_1d(np.asarray(X, dtype=float))
    if isinstance(uhat, HalfGridProfile):
        uh = uhat.values
    else:
        uh = _half_grid_values(uhat)
    m = uhat.num_intervals

    def rhs(ih, p):
        return dhat * model.f(p, uh[ih])

    p = _march(rhs, X, m)
    check_escape(p, m)
    return GridProfile(p)


def predictor_spatial_derivative(model, phat, uhat, dhat):
    """p_x(x) = Dhat f(p(x), uhat(x)) at the nodes (the marched equation
    itself), one array call of f over all nodes."""
    p = phat.values.reshape(phat.values.shape[0], -1)
    vals = dhat * model.f(p, uhat.values)
    if phat.values.ndim == 1:
        vals = vals[:, 0]
    return GridProfile(vals)


@dataclass
class TransitionField:
    """Phi(x_i, 0) at every node, plus cached inverses for composition."""

    matrices: np.ndarray  # (M+1, n, n)
    _inverses: np.ndarray = field(default=None, repr=False)

    @property
    def inverses(self):
        if self._inverses is None:
            conds = np.linalg.cond(self.matrices)
            worst = float(np.max(conds))
            if not np.isfinite(worst) or worst > COND_LIMIT:
                raise IllConditionedTransitionError(
                    f"transition matrix condition number {worst:.3e}")
            self._inverses = np.linalg.inv(self.matrices)
        return self._inverses


def compute_transition_field(model, phat, uhat, dhat):
    """March dPhi/dx = Dhat (df/dX)(p, uhat) Phi from the identity, with
    df/dX from one jet evaluation of f over the half grid."""
    n = model.dim
    ph = _half_grid_values(phat)
    A = derivatives(model, None, ph.reshape(ph.shape[0], n),
                    _half_grid_values(uhat)).A

    def rhs(ih, Phi):
        return dhat * (A[ih] @ Phi)

    mats = _march(rhs, np.eye(n), uhat.num_intervals)
    check_escape(mats, uhat.num_intervals)
    return TransitionField(matrices=mats)


def forcing_integral(model, controller, phat, uhat, what_x, fieldobj, dhat):
    """I(x_i) = int_0^{x_i} Phi(x_i, y) G(y) dy by composite trapezoid, where
    G(y) = f(p, uhat) + (df/du)(p, uhat) (y - 1) uhat_x(y) and
    uhat_x = what_x + Dhat (dkappa/dX) f."""
    m = uhat.num_intervals
    x = grid_nodes(m)
    d = derivatives(model, controller, phat.values.reshape(m + 1, -1),
                    uhat.values)
    B = what_x.values + dhat * np.einsum("ij,ij->i", d.k1, d.f)
    G = d.f + d.b * ((x - 1.0) * B)[:, None]
    J = np.einsum("iab,ib->ia", fieldobj.inverses, G)
    ct = cumulative_trapezoid(J, 1.0 / m)
    return np.einsum("iab,ib->ia", fieldobj.matrices, ct)
