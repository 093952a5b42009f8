"""Uniform spatial grid on [0, 1] and profile arithmetic.

All distributed fields (actuator state, its estimate, the predictor, the
transformed state and every spatial derivative) live on the same M+1 node
grid, as `GridProfile` instances wrapping a plain ndarray with node index
along axis 0.  A `HalfGridProfile` adds the interval midpoints, which the
predictor march reads as its stage inputs.

Between samples there is one interpolation rule, in time and in space:
the four-point Lagrange rule `lagrange4` on the nearest four samples,
exact at the samples and for cubics.  The control history evaluates U(t)
with it, and `GridProfile.interpolant` evaluates a node profile with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

MIN_INTERVALS = 8


def grid_nodes(num_intervals):
    return np.linspace(0.0, 1.0, num_intervals + 1)


def lagrange4(s, y0, y1, y2, y3):
    """Four-point Lagrange interpolation through samples y0..y3 at the unit
    spaced positions 0, 1, 2, 3, evaluated at position s (exact for cubics).

    The weighted samples are summed in order, one term at a time; `s`
    broadcasts against the samples.
    """
    s1, s2, s3 = s - 1.0, s - 2.0, s - 3.0
    acc = -s1 * s2 * s3 / 6.0 * y0
    acc += s * s2 * s3 / 2.0 * y1
    acc += -s * s1 * s3 / 2.0 * y2
    acc += s * s1 * s2 / 6.0 * y3
    return acc


def cumulative_trapezoid(y, h):
    """Running trapezoid integral of `y` along axis 0 on step h, from 0."""
    out = np.zeros(y.shape)
    out[1:] = np.cumsum(h * (y[1:] + y[:-1]) / 2.0, axis=0)
    return out


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

    def interpolant(self):
        """Callable over x in [0, 1] (vector-valued along axis 0): the
        four-point rule on the nearest four nodes, one-sided at the ends."""
        v = self.values
        m = self.num_intervals

        def evaluate(x):
            pos = np.asarray(x, dtype=float) * m
            base = np.clip(np.floor(pos).astype(int) - 1, 0, m - 3)
            s = (pos - base).reshape(pos.shape + (1,) * (v.ndim - 1))
            return lagrange4(s, v[base], v[base + 1], v[base + 2],
                             v[base + 3])

        return evaluate


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

