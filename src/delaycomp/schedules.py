"""Prescribed delay-estimate trajectories with two analytic derivatives.

The estimate is exogenous: any time-differentiable function inside the known
delay interval works, so the built-in kinds (constant, ramp, sinusoid) exist
to exercise the rate-dependent kernel terms.  Excursions of a ramp or
sinusoid outside the interval are folded back by a C^2 soft saturation so
that the second derivative stays defined everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plants import DelayBounds


def _soft_clip(s, lo, hi, w):
    """C^2 saturation into [lo, hi]: identity on [lo+w, hi-w].

    Returns (value, dvalue/ds, d2value/ds2).  The blend is exponential with
    matched value, slope 1, and zero curvature at the joins.
    """
    if w <= 0.0:
        return s, 1.0, 0.0
    if s >= hi - w:
        xi = (s - (hi - w)) / w
        e = np.exp(-xi - 0.5 * xi * xi)
        return hi - w * e, (1.0 + xi) * e, -(xi * xi + 2.0 * xi) * e / w
    if s <= lo + w:
        ze = ((lo + w) - s) / w
        e = np.exp(-ze - 0.5 * ze * ze)
        return lo + w * e, (1.0 + ze) * e, (ze * ze + 2.0 * ze) * e / w
    return s, 1.0, 0.0


@dataclass
class DelaySchedule:
    """Delay estimate Dhat(t) together with its first two time derivatives."""

    bounds: DelayBounds
    kind: str
    params: dict
    soft_width: float

    def _raw(self, t):
        p = self.params
        if self.kind == "constant":
            return p["value"], 0.0, 0.0
        if self.kind == "ramp":
            return p["base"] + p["rate"] * t, p["rate"], 0.0
        if self.kind == "sinusoid":
            a, om, ph = p["amplitude"], p["omega"], p.get("phase", 0.0)
            arg = om * t + ph
            return (p["base"] + a * np.sin(arg),
                    a * om * np.cos(arg),
                    -a * om * om * np.sin(arg))
        raise ConfigError(f"unknown schedule kind {self.kind!r}")

    def evaluate(self, t):
        """(Dhat, Dhat_dot, Dhat_ddot) at time t, saturated into bounds."""
        s, sd, sdd = self._raw(float(t))
        v, d1, d2 = _soft_clip(s, self.bounds.d_lower, self.bounds.d_upper,
                               self.soft_width)
        return float(v), float(d1 * sd), float(d2 * sd * sd + d1 * sdd)

    def max_value(self, horizon, samples=2048):
        ts = np.linspace(0.0, float(horizon), samples)
        return max(self.evaluate(t)[0] for t in ts)


# the parameters each kind reads; any other key is rejected by name
_PARAMS = {
    "constant": ("value",),
    "ramp": ("base", "rate"),
    "sinusoid": ("base", "amplitude", "omega", "phase"),
}


def make_schedule(kind, bounds, soft_width=None, **params):
    """Build a delay-estimate schedule, validating against the bounds.

    A constant value must lie inside [d_lower, d_upper] outright; varying
    kinds must have their base inside and are saturated when they wander.
    A parameter the kind does not read raises ConfigError naming it.
    """
    if kind not in _PARAMS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    unknown = sorted(set(params) - set(_PARAMS[kind]))
    if unknown:
        raise ConfigError(
            f"unknown parameter schedule.{unknown[0]} for schedule "
            f"{kind!r}; known: {list(_PARAMS[kind])}")
    lo, hi = bounds.d_lower, bounds.d_upper
    if soft_width is None:
        soft_width = 0.1 * (hi - lo)
    if kind == "constant":
        value = params.get("value", bounds.true_delay)
        if not (lo <= value <= hi):
            raise ConfigError(
                f"schedule.value={value} outside delay bounds [{lo}, {hi}]")
        params = {"value": float(value)}
    elif kind == "ramp":
        base = params.get("base", bounds.true_delay)
        rate = params.get("rate", 0.0)
        if not (lo <= base <= hi):
            raise ConfigError(
                f"schedule.base={base} outside delay bounds [{lo}, {hi}]")
        params = {"base": float(base), "rate": float(rate)}
    elif kind == "sinusoid":
        base = params.get("base", bounds.true_delay)
        if not (lo <= base <= hi):
            raise ConfigError(
                f"schedule.base={base} outside delay bounds [{lo}, {hi}]")
        params = {"base": float(base),
                  "amplitude": float(params.get("amplitude", 0.0)),
                  "omega": float(params.get("omega", 1.0)),
                  "phase": float(params.get("phase", 0.0))}
    return DelaySchedule(bounds=bounds, kind=kind, params=params,
                         soft_width=float(soft_width))


def relative_mismatch(true_delay, dhat):
    """Delay estimation error normalized by the true delay, (D - Dhat)/D.

    This is the mismatch weight under which the error-transport kernels
    (p1..p4) carry their D/Dhat prefactor consistently; the absolute
    mismatch D - Dhat is recovered by multiplying with D.
    """
    return (float(true_delay) - float(dhat)) / float(true_delay)
