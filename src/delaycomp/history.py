"""Recorded control signal and the distributed actuator fields built from it.

The scalar input U is appended at a fixed sampling step.  Evaluation between
samples uses four-point Lagrange interpolation on the uniform time grid
(exact at the nodes, reproduces cubics), which gives the differentiable U
trajectory that the spatial derivative identities of the transport fields
rely on.  Times before the first sample return exactly zero: the actuator
starts from rest.

The history owns the signal's break times: times where it is continuous but
not smooth (derivative kinks).  Where a break falls on a sample, stencils
stay on one side of it, so the cubic order survives across the kink.  The
on-grid break indices are found again only when the buffer's origin or
length changes.
"""

from __future__ import annotations

import numpy as np

from .errors import FutureQueryError, UsageError
from .grid import GridProfile, grid_nodes, lagrange4

_REL_TOL = 1e-9
_CHUNK = 4096  # query times interpolated per vectorized pass


class ControlHistory:
    """Uniformly sampled scalar input with cubic interpolation.

    Single writer appends in time order; reads are pure.  `retention`
    bounds how far back samples are kept once `trim` is called (a margin of
    a few samples is always preserved for the interpolation stencil).
    `breaks` lists the signal's break times; those off the sample grid are
    ignored.
    """

    def __init__(self, dt, t_start=0.0, retention=None, breaks=None):
        if dt <= 0.0:
            raise UsageError("history sampling step must be positive")
        self.dt = float(dt)
        self.retention = None if retention is None else float(retention)
        self._t0 = float(t_start)  # time of buffer slot 0
        self._buf = np.empty(256)
        self._n = 0
        self._breaks = None if breaks is None else \
            np.atleast_1d(np.asarray(breaks, dtype=float))
        self._kinks_at = None  # (origin, length) the kink indices are for
        self._kinks = None

    @property
    def num_samples(self):
        return self._n

    @property
    def t_now(self):
        if self._n == 0:
            return None
        return self._t0 + (self._n - 1) * self.dt

    @property
    def values(self):
        return self._buf[:self._n]

    def append(self, t, value):
        expected = self._t0 + self._n * self.dt
        if abs(t - expected) > _REL_TOL * max(1.0, abs(expected)):
            raise UsageError(
                f"append at t={t} but next slot is t={expected}")
        if self._n == self._buf.shape[0]:
            grown = np.empty(2 * self._n)
            grown[:self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = float(value)
        self._n += 1

    def replace_last(self, value):
        if self._n == 0:
            raise UsageError("no sample to replace")
        self._buf[self._n - 1] = float(value)

    def replace_at(self, t, value):
        """Overwrite the sample recorded at time t (must be on the grid)."""
        pos = (t - self._t0) / self.dt
        k = int(round(pos))
        if abs(pos - k) > _REL_TOL or not 0 <= k < self._n:
            raise UsageError(f"no sample at t={t}")
        self._buf[k] = float(value)

    def trim(self):
        """Lazily drop samples older than the retention window."""
        if self.retention is None or self._n == 0:
            return
        cutoff = self.t_now - self.retention
        drop = int(np.floor((cutoff - self._t0) / self.dt)) - 4
        if drop > 0:
            keep = self._n - drop
            self._buf[:keep] = self._buf[drop:self._n]
            self._n = keep
            self._t0 += drop * self.dt

    # -- evaluation ---------------------------------------------------------

    def _break_indices(self):
        """Sample indices of the break times that land inside the sample
        grid, or None without breaks; kept until an append or a trim."""
        if self._breaks is None:
            return None
        if self._kinks_at != (self._t0, self._n):
            pos = (self._breaks - self._t0) / self.dt
            kb = np.rint(pos).astype(int)
            on_grid = np.abs(pos - kb) <= _REL_TOL
            self._kinks = np.unique(kb[on_grid & (kb > 0)
                                       & (kb < self._n - 1)])
            self._kinks_at = (self._t0, self._n)
        return self._kinks

    def settled(self, thetas):
        """Mask of the times whose interpolated value is final.

        A time is settled when its interpolation stencil, including one
        moved to a side of a break, uses only samples already recorded and
        no break that a later sample could bring into play: appending
        samples cannot change `sample_many` there (replacing a recorded
        sample can), as long as the buffer is not trimmed in between.
        Nothing is settled while fewer than four samples exist.
        """
        th = np.asarray(thetas, dtype=float)
        if self._n < 4:
            return np.zeros(th.shape, dtype=bool)
        return np.floor((th - self._t0) / self.dt) <= self._n - 4

    def _lagrange(self, tl, kinks):
        """Four-point interpolation at times inside the recording (at least
        four samples); `kinks` are the on-grid break indices or None."""
        vals = self._buf[:self._n]
        pos = (tl - self._t0) / self.dt
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
            lo = np.maximum(lo, 0)
            hi = np.minimum(hi - 3, self._n - 4)
            # only shift stencils where the smooth piece is wide enough to
            # hold one
            ok = lo <= hi
            base = np.where(ok, np.clip(base, lo, np.maximum(hi, 0)), base)
        return lagrange4(pos - base, vals[base], vals[base + 1],
                         vals[base + 2], vals[base + 3])

    def sample_many(self, thetas, allow_tail_extrapolation=False):
        """Vectorized U(theta); exactly the stored value at sample times.

        Zero before the first sample.  Querying past the newest sample
        raises unless `allow_tail_extrapolation` is set, in which case the
        final interpolation stencil is extended by up to one step (used by
        the simulator while the current control value is still being
        computed).  Stencils stay on one side of the on-grid breaks.
        """
        thetas = np.asarray(thetas, dtype=float)
        scalar = thetas.ndim == 0
        th = np.atleast_1d(thetas)
        out = np.zeros(th.shape)
        if self._n == 0:
            if not allow_tail_extrapolation and np.any(th > self._t0 + _REL_TOL * self.dt):
                raise FutureQueryError("history is empty")
            return float(out[0]) if scalar else out

        tol = _REL_TOL * self.dt
        limit = self.t_now + (self.dt if allow_tail_extrapolation else 0.0)
        if np.any(th > limit + tol):
            raise FutureQueryError(
                f"requested t={float(np.max(th))} beyond newest sample "
                f"t={self.t_now}")

        live = th >= self._t0 - tol
        if not np.any(live):
            return float(out[0]) if scalar else out
        live = slice(None) if np.all(live) else live
        tl = th[live]
        vals = self._buf[:self._n]

        if self._n == 1:
            out[live] = vals[0]
        elif self._n < 4:
            # startup: fall back to the highest order the data allows
            coef = np.polyfit(self._t0 + self.dt * np.arange(self._n),
                              vals, self._n - 1)
            out[live] = np.polyval(coef, tl)
        else:
            kinks = self._break_indices()
            flat = tl.reshape(-1)
            res = np.empty(flat.size)
            # in chunks, so a large query keeps few temporaries alive
            for lo in range(0, flat.size, _CHUNK):
                res[lo:lo + _CHUNK] = self._lagrange(flat[lo:lo + _CHUNK],
                                                     kinks)
            out[live] = res.reshape(tl.shape)
        return float(out[0]) if scalar else out


def distributed_true_input(history, t, delay, num_intervals):
    """Actuator field u(x, t) = U(t + D (x - 1)) on the grid."""
    x = grid_nodes(num_intervals)
    th = t + float(delay) * (x - 1.0)
    return GridProfile(history.sample_many(th))
