"""Finite-difference residual certification of the transformed systems.

Each transformed equation is evaluated as left-minus-right on simulation
data: time derivatives come from central differences of snapshot triplets
(never from the analytic time-derivative formulas, which are checked
elsewhere against these same differences), spatial derivatives from the
stored profile stencils.  `evaluate_snapshot_residuals` lists the
equations and evaluates all of them in one pass over a triplet and its
kernel set.  Interior residuals skip the boundary nodes; the boundary
conditions are separate algebraic checks.

A convergence study repeats the scenario over a geometric (M, dt) ladder
and fits log-log slopes; a derivation error shows up as a residual that
refuses to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BlowUpError, ConfigError, UsageError
from .grid import GridProfile, fd_x_wide, grid_nodes
from .predictor import forcing_integral
from .schedules import relative_mismatch
from .simulate import run_scenario, snapshot_field, snapshot_kernels

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


def _time_diff(prev, nxt, delta):
    return (nxt - prev) / (2.0 * delta)


def evaluate_snapshot_residuals(result, center):
    """All equation residuals at one emission center: interior arrays and
    boundary scalars, keyed by equation name.

    Time derivatives (subscript t) are central differences over the
    snapshot triplet.  With D the true delay, dtil = (D - Dhat)/D the
    relative mismatch and f_mis = f(p(0), u(0)) - f(p(0), uhat(0)):

        state     dX/dt = f(X, w(0) + ut(0) + kappa(X))
        what      Dhat w_t = w_x + Dhat_dot q1 - q2 . f_mis,     w(1) = 0
        utilde    D ut_t = ut_x - dtil p1 - Dhat_dot p2,         ut(1) = 0
        u         D u_t = u_x
        uhat      Dhat uhat_t = (1 + Dhat_dot (x - 1)) uhat_x
        phat      Dhat p_t = p_x + Dhat Phi(x, 0) f_mis + Dhat_dot Dhat I
        utildex   D ut_xt = ut_xx - dtil p3 - Dhat_dot p4,
                  ut_x(1) = dtil p1(1)
        whatx     Dhat w_xt = w_xx + Dhat_dot q3 - q4 . f_mis,
                  w_x(1) = -Dhat_dot q1(1) + q2(1) . f_mis
        whatxx    Dhat w_xxt = w_xxx + Dhat_dot q5 - q6 . f_mis,
                  w_xx(1) = -Dhat_dot q3(1) + q4(1) . f_mis + Dhat q7

    where I is the forcing integral of the predictor.  The phat residual is
    the worst component per node; the whatxx residual also skips the two
    nodes next to each end, where its stencil is one-sided.
    """
    try:
        prev, snap, nxt = result.snapshot_triplet(center)
    except KeyError:
        raise UsageError(
            f"snapshot triplet around step {center} is missing") from None
    model, controller, cfg = result.model, result.controller, result.config
    D, dt, m = cfg.true_delay, cfg.dt, snap.num_intervals
    dh, dd = snap.dhat, snap.dhat_dot
    ks = snapshot_kernels(model, controller, D, snap)
    fld = snapshot_field(model, snap)
    dtil = relative_mismatch(D, dh)
    f_mis = ks.f_mismatch
    out = {}

    xdot = _time_diff(result.states[center - 1], result.states[center + 1],
                      dt)
    v = snap.what[0] + snap.utilde[0] + controller.kappa(snap.X)
    out["state"] = np.abs(xdot - model.f(snap.X, v))

    wt = _time_diff(prev.what, nxt.what, dt)
    prof = dh * wt - snap.what_x - dd * ks.q1 + ks.q2 @ f_mis
    out["what"], out["bc_what"] = prof[1:-1], abs(snap.what[-1])

    ut_t = _time_diff(prev.utilde, nxt.utilde, dt)
    prof = D * ut_t - snap.utilde_x + dtil * ks.p1 + dd * ks.p2
    out["utilde"], out["bc_utilde"] = prof[1:-1], abs(snap.utilde[-1])

    u_t = _time_diff(prev.u, nxt.u, dt)
    out["u"] = (D * u_t - snap.u_x)[1:-1]

    x = grid_nodes(m)
    uhat_t = _time_diff(prev.uhat, nxt.uhat, dt)
    uhat_x = fd_x_wide(snap.uhat, m, 1)
    out["uhat"] = (dh * uhat_t - (1.0 + dd * (x - 1.0)) * uhat_x)[1:-1]

    phat_t = _time_diff(prev.phat, nxt.phat, dt)
    I = forcing_integral(model, controller, GridProfile(snap.phat),
                         GridProfile(snap.uhat), GridProfile(snap.what_x),
                         fld, dh)
    r_phat = dh * phat_t - snap.phat_x \
        - dh * np.einsum("iab,b->ia", fld.matrices, f_mis) - dd * dh * I
    out["phat"] = np.abs(r_phat[1:-1]).max(axis=1)

    ut_xt = _time_diff(prev.utilde_x, nxt.utilde_x, dt)
    utilde_xx = fd_x_wide(snap.utilde, m, 2)
    out["utildex"] = (D * ut_xt - utilde_xx + dtil * ks.p3
                      + dd * ks.p4)[1:-1]

    w_xt = _time_diff(prev.what_x, nxt.what_x, dt)
    out["whatx"] = (dh * w_xt - snap.what_xx - dd * ks.q3
                    + ks.q4 @ f_mis)[1:-1]

    w_xxt = _time_diff(prev.what_xx, nxt.what_xx, dt)
    out["whatxx"] = (dh * w_xxt - snap.what_xxx - dd * ks.q5
                     + ks.q6 @ f_mis)[2:-2]

    out["bc_utildex"] = abs(snap.utilde_x[-1] - dtil * ks.p1[-1])
    out["bc_whatx"] = abs(snap.what_x[-1] + dd * ks.q1[-1]
                          - float(ks.q2[-1] @ f_mis))
    out["bc_whatxx"] = abs(snap.what_xx[-1] + dd * ks.q3[-1]
                           - float(ks.q4[-1] @ f_mis) - dh * ks.q7)
    return out


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class RungResult:
    num_intervals: int
    dt: float
    max_norms: dict
    l2_norms: dict
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
    """The run's snapshot centers inside the analysis window [start, T - dt]."""
    start = analysis_window_start(config, result.schedule)
    return [c for c in result.centers
            if start <= result.times[c] <= config.horizon - config.dt]


def _rung_norms(config):
    """Run one ladder rung and aggregate residual norms over the window."""
    result = run_scenario(config)
    centers = window_centers(config, result)
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

    if not all(0.0 < float(dt) < math.inf for _, dt in ladder):
        raise ConfigError("every ladder rung needs a positive, finite dt")
    if not 0.0 < float(slope_min) < math.inf:
        raise ConfigError(f"slope_min must be positive and finite, got "
                          f"{slope_min!r}")
    rung_configs = [config.with_resolution(m, dt) for m, dt in ladder]
    for rc in rung_configs:
        rc.validate()  # every rung is checked before the first one runs
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

    for name in sorted(report.rungs[0].max_norms):
        norms = [r.max_norms[name] for r in report.rungs]
        order = fit_order(ms, norms)
        report.slopes[name] = order
        ok = norms[-1] <= caps[name]
        if name not in BOUNDARY_EQUATIONS:
            ok = ok and (order == "exact" or order >= slope_min)
        report.passes[name] = bool(ok)
    return report
