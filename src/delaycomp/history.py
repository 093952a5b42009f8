"""Recorded control signal and the distributed actuator fields built from it.

The scalar input U is appended at a fixed sampling step.  Evaluation between
samples uses four-point Lagrange interpolation on the uniform time grid
(exact at the nodes, reproduces cubics), which gives the differentiable U
trajectory that the spatial derivative identities of the transport fields
rely on.  Samples sit at t = 0, dt, 2 dt, ... and every one is kept, so
the history is the run's record of U.  Times before t = 0 return exactly
zero: the actuator starts from rest.

A history built with `rows=K` records K signals on the same time grid, one
per scenario of a lockstep ensemble (see `simulate.run_ensemble`): each
append or replacement takes K values, and one `sample_many` call reads any
mix of rows and times.  Each query is interpolated exactly as the same
query on a one-signal history of that row's samples.

The history owns the signal's break times: times where it is continuous but
not smooth (derivative kinks).  Where a break falls on a sample, stencils
stay on one side of it, so the cubic order survives across the kink.  The
on-grid break indices are found once, when the history is built.
"""

from __future__ import annotations

import numpy as np

from .errors import FutureQueryError, UsageError
from .grid import GridProfile, grid_nodes, lagrange4

_REL_TOL = 1e-9
_CHUNK = 4096  # query times interpolated per vectorized pass


class ControlHistory:
    """Scalar input sampled at t = 0, dt, 2 dt, ... with cubic
    interpolation.

    Single writer appends in time order; reads are pure.  `breaks` lists
    the signal's break times; those off the sample grid, or at or before
    t = 0, are ignored.  With `rows=K` the history records K signals that
    share the time grid and the breaks, and `values` is (K, samples).
    """

    def __init__(self, dt, breaks=None, rows=None):
        if dt <= 0.0:
            raise UsageError("history sampling step must be positive")
        self.dt = float(dt)
        self.rows = rows
        self._buf = np.empty((1 if rows is None else int(rows), 256))
        self._n = 0
        self._kinks = None  # sorted sample indices of the on-grid breaks
        if breaks is not None:
            pos = np.atleast_1d(np.asarray(breaks, dtype=float)) / self.dt
            kb = np.rint(pos).astype(int)
            on_grid = np.abs(pos - kb) <= _REL_TOL
            self._kinks = np.unique(kb[on_grid & (kb > 0)])

    @property
    def t_now(self):
        if self._n == 0:
            return None
        return (self._n - 1) * self.dt

    @property
    def values(self):
        vals = self._buf[:, :self._n]
        return vals[0] if self.rows is None else vals

    def _column(self, value):
        """One sample per row: a number, or K numbers for K rows."""
        col = np.asarray(value, dtype=float)
        if col.shape != (() if self.rows is None else (self.rows,)):
            raise UsageError(
                f"a sample of {self.rows or 1} row(s) needs one value per "
                f"row, got shape {col.shape}")
        return col

    def append(self, t, value):
        expected = self._n * self.dt
        if abs(t - expected) > _REL_TOL * max(1.0, abs(expected)):
            raise UsageError(
                f"append at t={t} but next slot is t={expected}")
        col = self._column(value)
        if self._n == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], 2 * self._n))
            grown[:, :self._n] = self._buf
            self._buf = grown
        self._buf[:, self._n] = col
        self._n += 1

    def replace_last(self, value):
        if self._n == 0:
            raise UsageError("no sample to replace")
        self._buf[:, self._n - 1] = self._column(value)

    def replace_at(self, t, value):
        """Overwrite the sample recorded at time t (must be on the grid)."""
        pos = t / self.dt
        k = int(round(pos))
        if abs(pos - k) > _REL_TOL or not 0 <= k < self._n:
            raise UsageError(f"no sample at t={t}")
        self._buf[:, k] = self._column(value)

    def keep_rows(self, keep):
        """Drop the rows where the boolean mask `keep` is False."""
        self._buf = self._buf[keep]
        self.rows = self._buf.shape[0]

    # -- evaluation ---------------------------------------------------------

    def settled(self, thetas):
        """Mask of the times whose interpolated value is final.

        A time is settled when its interpolation stencil, including one
        moved to a side of a break, uses only samples already recorded and
        no break that a later sample could bring into play: appending
        samples cannot change `sample_many` there.  Replacing a recorded
        sample can, and that includes the newest one: where a break sits
        at sample index n - 4, the stencil of a settled time just after it
        is moved onto samples n - 4 .. n - 1.  So a caller that keeps
        settled values must sample them once the newest sample is final.
        Nothing is settled while fewer than four samples exist.
        """
        th = np.asarray(thetas, dtype=float)
        if self._n < 4:
            return np.zeros(th.shape, dtype=bool)
        return np.floor(th / self.dt) <= self._n - 4

    def _lagrange(self, tl, off):
        """Four-point interpolation at times inside the recording (at least
        four samples); `off` is each query's row offset into the flat
        buffer, or None for row 0."""
        vals = self._buf.reshape(-1)
        kinks = self._kinks
        pos = tl / self.dt
        idx = np.minimum(np.maximum(np.floor(pos).astype(int), 0),
                         self._n - 2)
        base = np.minimum(np.maximum(idx - 1, 0), self._n - 4)
        # a break moves a stencil only when it sits at idx, idx+1 or idx+2,
        # so most calls skip the search below
        if kinks is not None and np.any(
                (kinks >= np.min(idx)) & (kinks <= np.max(idx) + 2)):
            j = np.searchsorted(kinks, idx, side="right")
            lo = np.where(j > 0, kinks[np.maximum(j - 1, 0)], 0)
            j = np.searchsorted(kinks, idx + 1, side="left")
            hi = np.where(j < kinks.size,
                          kinks[np.minimum(j, kinks.size - 1)],
                          self._n - 1)
            hi = np.minimum(hi - 3, self._n - 4)
            # only shift stencils where the smooth piece is wide enough to
            # hold one
            ok = lo <= hi
            base = np.where(ok, np.clip(base, lo, np.maximum(hi, 0)), base)
        s = pos - base
        if off is not None:
            base = base + off
        return lagrange4(s, vals[base], vals[base + 1], vals[base + 2],
                         vals[base + 3])

    def sample_many(self, thetas, allow_tail_extrapolation=False, rows=None):
        """Vectorized U(theta); exactly the stored value at sample times.

        Zero before the first sample.  Querying past the newest sample
        raises unless `allow_tail_extrapolation` is set, in which case the
        final interpolation stencil is extended by up to one step (used by
        the simulator while the current control value is still being
        computed).  Stencils stay on one side of the on-grid breaks.

        In a history of several rows, `rows` (an integer array that
        broadcasts against `thetas`) names the row each query reads; by
        default the leading axis of `thetas` runs over the rows.  A history
        of one row reads it for every query.
        """
        thetas = np.asarray(thetas, dtype=float)
        scalar = thetas.ndim == 0
        th = np.atleast_1d(thetas)
        out = np.zeros(th.shape)
        if self._n == 0:
            if not allow_tail_extrapolation and np.any(th > _REL_TOL * self.dt):
                raise FutureQueryError("history is empty")
            return float(out[0]) if scalar else out

        tol = _REL_TOL * self.dt
        limit = self.t_now + (self.dt if allow_tail_extrapolation else 0.0)
        if np.any(th > limit + tol):
            raise FutureQueryError(
                f"requested t={float(np.max(th))} beyond newest sample "
                f"t={self.t_now}")

        live = th >= -tol
        if not np.any(live):
            return float(out[0]) if scalar else out
        live = slice(None) if np.all(live) else live
        tl = th[live]
        k_rows, cap = self._buf.shape
        off = None
        if k_rows > 1:
            if rows is None:
                rows = np.arange(k_rows).reshape((-1,) + (1,) * (th.ndim - 1))
            off = (np.broadcast_to(rows, th.shape) * cap)[live]

        if self._n == 1:
            out[live] = self._buf.reshape(-1)[0 if off is None else off]
        elif self._n < 4:
            # startup: fall back to the highest order the data allows, one
            # fit per row
            res = np.empty(tl.shape)
            for r in range(k_rows):
                pick = slice(None) if off is None else off == r * cap
                coef = np.polyfit(self.dt * np.arange(self._n),
                                  self._buf[r, :self._n], self._n - 1)
                res[pick] = np.polyval(coef, tl[pick])
            out[live] = res
        else:
            flat = tl.reshape(-1)
            offs = None if off is None else off.reshape(-1)
            res = np.empty(flat.size)
            # in chunks, so a large query keeps few temporaries alive
            for lo in range(0, flat.size, _CHUNK):
                res[lo:lo + _CHUNK] = self._lagrange(
                    flat[lo:lo + _CHUNK],
                    None if offs is None else offs[lo:lo + _CHUNK])
            out[live] = res.reshape(tl.shape)
        return float(out[0]) if scalar else out


def distributed_true_input(history, t, delay, num_intervals, rows=None):
    """Actuator field u(x, t) = U(t + D (x - 1)) on the grid.

    With `rows` (integer indices into a history of several rows), the
    profile's columns are the fields of those rows, in that order.
    """
    x = grid_nodes(num_intervals)
    th = t + float(delay) * (x - 1.0)
    if rows is not None:
        th = np.broadcast_to(th[:, None], (th.size, len(rows)))
    return GridProfile(history.sample_many(th, rows=rows))
