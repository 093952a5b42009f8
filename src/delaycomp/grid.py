"""Uniform spatial grid on [0, 1] and profile arithmetic.

All distributed fields (actuator state, its estimate, the predictor, the
transformed state and every spatial derivative) live on the same M+1 node
grid, as `GridProfile` instances wrapping a plain ndarray with node index
along axis 0.  A `HalfGridProfile` adds the interval midpoints, which the
predictor march reads as its stage inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import UsageError

MIN_INTERVALS = 8


def grid_nodes(num_intervals):
    return np.linspace(0.0, 1.0, num_intervals + 1)


@dataclass
class GridProfile:
    """Samples of a scalar or n-vector field at nodes x_i = i/M."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] < MIN_INTERVALS + 1:
            raise UsageError(
                f"grid needs at least {MIN_INTERVALS} intervals, got "
                f"{self.values.shape[0] - 1}")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("profile contains non-finite values")

    @property
    def num_intervals(self):
        return self.values.shape[0] - 1

    @property
    def x(self):
        return grid_nodes(self.num_intervals)

    def interpolant(self):
        """Cubic spline through the node values (vector-valued along axis 0)."""
        return CubicSpline(self.x, self.values, axis=0)


@dataclass
class HalfGridProfile:
    """Samples of a scalar field at the nodes and the midpoints of the
    M-interval grid, x_j = j/(2M) for j = 0..2M.

    This is what an RK4 march over the grid reads: every stage input is a
    sample, so no interpolation between nodes is needed.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        count = self.values.shape[0]
        if count % 2 == 0 or count < 2 * MIN_INTERVALS + 1:
            raise UsageError(
                f"half grid needs 2M+1 samples with M >= {MIN_INTERVALS}, "
                f"got {count}")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("profile contains non-finite values")

    @property
    def num_intervals(self):
        return (self.values.shape[0] - 1) // 2

    @property
    def nodes(self):
        """The node samples as a GridProfile (a copy)."""
        return GridProfile(self.values[::2].copy())


# five-point stencil coefficients: {order: (interior, edge0, edge1)}; the
# right-edge rows are the mirrors (reversed, negated for odd orders)
_WIDE = {
    1: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
        np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
        np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0),
    2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
        np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0,
        np.array([11.0, -20.0, 6.0, 4.0, -1.0]) / 12.0),
    3: (np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0,
        np.array([-5.0, 18.0, -24.0, 14.0, -3.0]) / 2.0,
        np.array([-3.0, 10.0, -12.0, 6.0, -1.0]) / 2.0),
}


def fd_x_wide(values, num_intervals, order):
    """Five-point finite-difference x-derivative of node values, axis 0.

    A single wide stencil per derivative order, rather than an iterated
    first derivative, keeps the boundary rows at the same accuracy class
    as the interior, which the boundary-identity checks of the derivative
    systems need.
    Supports order 1, 2, and 3.
    """
    v = np.asarray(values, dtype=float)
    if order not in _WIDE:
        raise UsageError(f"unsupported derivative order {order}")
    ci, c0, c1 = _WIDE[order]
    m = num_intervals
    scale = float(m) ** order
    d = np.empty_like(v)
    win = np.stack([v[i:v.shape[0] - 4 + i] for i in range(5)])
    d[2:-2] = np.tensordot(ci, win, axes=(0, 0)) * scale
    head = v[:5]
    tail = v[-5:]
    sign = -1.0 if order % 2 else 1.0
    d[0] = np.tensordot(c0, head, axes=(0, 0)) * scale
    d[1] = np.tensordot(c1, head, axes=(0, 0)) * scale
    d[-2] = sign * np.tensordot(c1[::-1], tail, axes=(0, 0)) * scale
    d[-1] = sign * np.tensordot(c0[::-1], tail, axes=(0, 0)) * scale
    return d

