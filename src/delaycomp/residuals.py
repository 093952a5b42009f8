"""Finite-difference residual certification of the transformed systems.

Each transformed equation is evaluated as left-minus-right on simulation
data: time derivatives come from central differences of snapshot triplets
(never from the analytic time-derivative formulas, which are checked
elsewhere against these same differences), spatial derivatives from the
stored profile stencils.  A convergence study repeats the scenario over a
geometric (M, dt) ladder and fits log-log slopes; a derivation error shows
up as a residual that refuses to converge.

Interior residuals skip the boundary nodes (and the two nearest nodes for
the third-derivative equation, whose stencil is one-sided there); the
boundary conditions are separate algebraic checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BlowUpError, ConfigError, UsageError
from .grid import fd_x_wide, grid_nodes
from .predictor import forcing_integral
from .grid import GridProfile
from .schedules import relative_mismatch
from .simulate import ScenarioConfig, run_scenario, snapshot_field, \
    snapshot_kernels

INTERIOR_EQUATIONS = ("state", "what", "utilde", "uhat", "phat", "u",
                      "utildex", "whatx", "whatxx")
BOUNDARY_EQUATIONS = ("bc_what", "bc_utilde", "bc_utildex", "bc_whatx",
                      "bc_whatxx")
ALL_EQUATIONS = INTERIOR_EQUATIONS + BOUNDARY_EQUATIONS

DEFAULT_CAPS = dict(
    state=1e-3, what=1e-3, utilde=1e-3, uhat=1e-3, phat=1e-3, u=1e-3,
    utildex=1e-3, whatx=1e-3, whatxx=1e-3,
    bc_what=1e-12, bc_utilde=1e-12,
    bc_utildex=1e-6, bc_whatx=1e-6, bc_whatxx=1e-6,
)
EXACT_FLOOR = 1e-14


def _triplet(result, center):
    try:
        return result.snapshot_triplet(center)
    except KeyError:
        raise UsageError(
            f"snapshot triplet around step {center} is missing") from None


def _time_diff(prev, nxt, delta):
    return (nxt - prev) / (2.0 * delta)


def residual_state_equation(result, center):
    """|dX/dt - f(X, what(0) + utilde(0) + kappa(X))| componentwise."""
    snap = result.snapshots[center]
    delta = result.config.dt
    xdot = _time_diff(result.states[center - 1], result.states[center + 1],
                      delta)
    v = snap.what[0] + snap.utilde[0] + result.controller.kappa(snap.X)
    return np.abs(xdot - result.model.f(snap.X, v))


def residual_w_system(result, center):
    """Interior residual of the transformed-state transport equation and
    the algebraic boundary value.

        Dhat w_t = w_x + Dhat_dot q1 - q2 . f_mismatch,   w(1) = 0
    """
    prev, snap, nxt = _triplet(result, center)
    ks = snapshot_kernels(result.model, result.controller,
                          result.config.true_delay, snap)
    wt = _time_diff(prev.what, nxt.what, result.config.dt)
    prof = snap.dhat * wt - snap.what_x - snap.dhat_dot * ks.q1 \
        + ks.q2 @ ks.f_mismatch
    return prof[1:-1], abs(snap.what[-1])


def residual_utilde_system(result, center):
    """Interior residual of the estimation-error transport equation and
    the boundary value.

        D ut_t = ut_x - dtil p1 - Dhat_dot p2,   ut(1) = 0

    with dtil the delay mismatch relative to the true delay.
    """
    prev, snap, nxt = _triplet(result, center)
    D = result.config.true_delay
    ks = snapshot_kernels(result.model, result.controller, D, snap)
    dtil = relative_mismatch(D, snap.dhat)
    ut_t = _time_diff(prev.utilde, nxt.utilde, result.config.dt)
    prof = D * ut_t - snap.utilde_x + dtil * ks.p1 + snap.dhat_dot * ks.p2
    return prof[1:-1], abs(snap.utilde[-1])


def residual_transport_systems(result, center):
    """Residuals of the plain transport equations: the true actuator field,
    the estimated field, and the predictor profile with its forcing."""
    prev, snap, nxt = _triplet(result, center)
    cfg = result.config
    m = snap.num_intervals
    delta = cfg.dt
    x = grid_nodes(m)

    u_t = _time_diff(prev.u, nxt.u, delta)
    r_u = cfg.true_delay * u_t - snap.u_x

    uhat_t = _time_diff(prev.uhat, nxt.uhat, delta)
    uhat_x = fd_x_wide(snap.uhat, m, 1)
    r_uhat = snap.dhat * uhat_t \
        - (1.0 + snap.dhat_dot * (x - 1.0)) * uhat_x

    phat_t = _time_diff(prev.phat, nxt.phat, delta)
    fld = snapshot_field(result.model, snap)
    f_mis = result.model.f(snap.phat[0], snap.u[0]) \
        - result.model.f(snap.phat[0], snap.uhat[0])
    I = forcing_integral(result.model, result.controller,
                         GridProfile(snap.phat), GridProfile(snap.uhat),
                         GridProfile(snap.what_x), fld, snap.dhat)
    r_phat = snap.dhat * phat_t - snap.phat_x \
        - snap.dhat * np.einsum("iab,b->ia", fld.matrices, f_mis) \
        - snap.dhat_dot * snap.dhat * I
    return {"u": r_u[1:-1], "uhat": r_uhat[1:-1],
            "phat": np.abs(r_phat[1:-1]).max(axis=1)}


def residual_derivative_systems(result, center):
    """Residuals of the differentiated transport systems (interior) and the
    three boundary identities that close them."""
    prev, snap, nxt = _triplet(result, center)
    cfg = result.config
    D = cfg.true_delay
    m = snap.num_intervals
    delta = cfg.dt
    ks = snapshot_kernels(result.model, result.controller, D, snap)
    dtil = relative_mismatch(D, snap.dhat)
    dd = snap.dhat_dot

    ut_xt = _time_diff(prev.utilde_x, nxt.utilde_x, delta)
    utilde_xx = fd_x_wide(snap.utilde, m, 2)
    r_utx = D * ut_xt - utilde_xx + dtil * ks.p3 + dd * ks.p4

    w_xt = _time_diff(prev.what_x, nxt.what_x, delta)
    r_wx = snap.dhat * w_xt - snap.what_xx - dd * ks.q3 \
        + ks.q4 @ ks.f_mismatch

    w_xxt = _time_diff(prev.what_xx, nxt.what_xx, delta)
    r_wxx = snap.dhat * w_xxt - snap.what_xxx - dd * ks.q5 \
        + ks.q6 @ ks.f_mismatch

    bc_utx = abs(snap.utilde_x[-1] - dtil * ks.p1[-1])
    bc_wx = abs(snap.what_x[-1] + dd * ks.q1[-1]
                - float(ks.q2[-1] @ ks.f_mismatch))
    bc_wxx = abs(snap.what_xx[-1] + dd * ks.q3[-1]
                 - float(ks.q4[-1] @ ks.f_mismatch) - snap.dhat * ks.q7)
    return {"utildex": r_utx[1:-1], "whatx": r_wx[1:-1],
            "whatxx": r_wxx[2:-2],
            "bc_utildex": bc_utx, "bc_whatx": bc_wx, "bc_whatxx": bc_wxx}


def evaluate_snapshot_residuals(result, center):
    """All equation residuals at one emission center: interior arrays and
    boundary scalars, keyed by equation name."""
    out = {}
    out["state"] = residual_state_equation(result, center)
    prof, bc = residual_w_system(result, center)
    out["what"], out["bc_what"] = prof, bc
    prof, bc = residual_utilde_system(result, center)
    out["utilde"], out["bc_utilde"] = prof, bc
    out.update(residual_transport_systems(result, center))
    out.update(residual_derivative_systems(result, center))
    return out


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class RungResult:
    num_intervals: int
    dt: float
    max_norms: dict
    l2_norms: dict
    window: tuple
    sample_times: list


@dataclass
class ResidualReport:
    """Ladder-wide residual norms, fitted convergence orders, and verdicts.

    `slopes` maps equation name to a float order or the string "exact"
    (all norms at the residual floor).  Raw norms are always retained, so
    tightening or loosening `caps` never hides data.
    """

    ladder: list
    rungs: list
    slopes: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)
    slope_min: float = 1.7
    passes: dict = field(default_factory=dict)
    aborted: bool = False
    failure: Optional[str] = None
    window_start: float = 0.0

    @property
    def passed(self):
        return (not self.aborted) and all(self.passes.values())

    def finest(self, name):
        return self.rungs[-1].max_norms[name]

    def to_dict(self):
        return {
            "ladder": [[int(m), float(dt)] for m, dt in self.ladder],
            "window_start": self.window_start,
            "rungs": [{
                "M": r.num_intervals, "dt": r.dt,
                "max_norms": {k: float(v) for k, v in sorted(r.max_norms.items())},
                "l2_norms": {k: float(v) for k, v in sorted(r.l2_norms.items())},
                "sample_times": [float(t) for t in r.sample_times],
            } for r in self.rungs],
            "slopes": {k: (v if isinstance(v, str) else float(v))
                       for k, v in sorted(self.slopes.items())},
            "caps": {k: float(v) for k, v in sorted(self.caps.items())},
            "slope_min": self.slope_min,
            "passes": dict(sorted(self.passes.items())),
            "passed": self.passed,
            "aborted": self.aborted,
            "failure": self.failure,
        }

    def table(self):
        lines = []
        width = max(len(n) for n in ALL_EQUATIONS)
        header = "equation".ljust(width) + "".join(
            f"  M={r.num_intervals:<12d}" for r in self.rungs) \
            + "  order      verdict"
        lines.append(header)
        for name in ALL_EQUATIONS:
            if not self.rungs or name not in self.rungs[0].max_norms:
                continue
            cells = "".join(f"  {r.max_norms[name]:<14.4e}"
                            for r in self.rungs)
            slope = self.slopes.get(name, "")
            slope_s = slope if isinstance(slope, str) else f"{slope:.2f}"
            verdict = "pass" if self.passes.get(name, False) else "FAIL"
            lines.append(name.ljust(width) + cells
                         + f"  {slope_s:<9s}  {verdict}")
        if self.aborted:
            lines.append(f"study aborted: {self.failure}")
        return "\n".join(lines)

    def csv_rows(self):
        """(rung_index, M, dt, equation, max_norm, l2_norm) rows."""
        rows = []
        for i, r in enumerate(self.rungs):
            for name in sorted(r.max_norms):
                rows.append((i, r.num_intervals, r.dt, name,
                             r.max_norms[name], r.l2_norms[name]))
        return rows


def analysis_window_start(config, schedule):
    """Residual sampling starts after the estimate's maximum plus a margin,
    past the input-activation kink of the zero pre-history."""
    return schedule.max_value(config.horizon) + config.margin


def window_centers(config, result):
    """(start, centers): the analysis window's start and the run's snapshot
    centers inside [start, T - dt]."""
    start = analysis_window_start(config, result.schedule)
    return start, [c for c in result.centers
                   if start <= result.times[c] <= config.horizon - config.dt]


def _rung_norms(config):
    """Run one ladder rung and aggregate residual norms over the window."""
    result = run_scenario(config)
    start, centers = window_centers(config, result)
    if not centers:
        raise ConfigError(
            "no snapshot centers inside the analysis window; extend T or "
            "reduce margin")
    h = 1.0 / config.num_intervals
    max_norms = {}
    l2_norms = {}
    for c in centers:
        res = evaluate_snapshot_residuals(result, c)
        for name, val in res.items():
            arr = np.atleast_1d(np.abs(np.asarray(val, dtype=float)))
            mx = float(arr.max())
            l2 = float(math.sqrt(h * float((arr ** 2).sum()))) \
                if arr.size > 1 else mx
            max_norms[name] = max(max_norms.get(name, 0.0), mx)
            l2_norms[name] = max(l2_norms.get(name, 0.0), l2)
    return RungResult(num_intervals=config.num_intervals, dt=config.dt,
                      max_norms=max_norms, l2_norms=l2_norms,
                      window=(start, config.horizon),
                      sample_times=[float(result.times[c]) for c in centers])


def fit_order(ms, norms):
    """Least-squares slope of log(norm) against log(1/M); "exact" when every
    norm sits at the residual floor."""
    norms = np.asarray(norms, dtype=float)
    if np.all(norms <= EXACT_FLOOR):
        return "exact"
    safe = np.maximum(norms, 1e-300)
    slope = np.polyfit(np.log(np.asarray(ms, dtype=float)), np.log(safe), 1)[0]
    return float(-slope)


def convergence_study(config, ladder, caps=None, slope_min=1.7, workers=None):
    """Run the scenario over a refinement ladder and certify every equation.

    `ladder` is a list of (M, dt) pairs, at least three, refining
    geometrically.  Interior equations must show fitted order >= slope_min
    and a finest-rung max norm below their cap; boundary identities are
    algebraic and only capped.  A rung that blows up aborts the study with
    a partial report.
    """
    if len(ladder) < 3:
        raise ConfigError("refinement ladder needs at least 3 rungs")
    ms = [int(m) for m, _ in ladder]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ConfigError("ladder must refine monotonically in M")
    caps = dict(DEFAULT_CAPS, **(caps or {}))

    rung_configs = [config.with_resolution(m, dt) for m, dt in ladder]
    report = ResidualReport(ladder=[(int(m), float(dt)) for m, dt in ladder],
                            rungs=[], caps=caps, slope_min=slope_min)
    report.window_start = analysis_window_start(config, config.build()[1])

    try:
        if workers and workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                report.rungs = list(pool.map(_rung_norms, rung_configs))
        else:
            for rc in rung_configs:
                report.rungs.append(_rung_norms(rc))
    except BlowUpError as exc:
        report.aborted = True
        report.failure = f"rung blow-up: {exc}"
        return report

    names = sorted(report.rungs[0].max_norms)
    for name in names:
        norms = [r.max_norms[name] for r in report.rungs]
        if name in BOUNDARY_EQUATIONS:
            report.slopes[name] = fit_order(ms, norms) \
                if not np.all(np.asarray(norms) <= EXACT_FLOOR) else "exact"
            report.passes[name] = norms[-1] <= caps[name]
        else:
            order = fit_order(ms, norms)
            report.slopes[name] = order
            ok_cap = norms[-1] <= caps[name]
            ok_order = order == "exact" or order >= slope_min
            report.passes[name] = bool(ok_cap and ok_order)
    return report
