"""Closed-loop simulation of the delayed plant under predictor feedback.

The plant Xdot = f(X, U(t - D)) is stepped with classical fourth-order
stages; the delayed input between samples comes from the cubic history
interpolant, which keeps its stencils off the kink times D, 2D, ... that
the actuator's start from rest echoes through the loop.  At each step the
control is set to kappa(p(1, t)) where p is the predictor marched through
the current actuator-estimate profile, whose node and midpoint samples are
read straight from the history.  The loop is causal: U(t) is first computed
from a one-step tail extrapolation of the history, and refined by
re-marching at snapshot steps so that the recorded boundary identity
w(1, t) = 0 holds to roundoff.

There is one step loop, `run_ensemble`, and it runs K scenarios (rows) at
once.  The rows share the plant, M, dt, T, the snapshot steps and D, so
they share the blocks, the break times and the start-up re-solve; each
has its own X0 and delay-estimate schedule, so its own Dhat.  The history
records U with a leading row axis, the states are (K, steps, n), and
every march, sample and plant step below takes all rows in one call.
`run_scenario` is the one-row case.  A row whose state or predictor
escapes leaves the ensemble with the error it raises alone; the other
rows run on.

Steps are processed in blocks of up to `_BLOCK` consecutive steps:

* block start: the plant states are advanced through the block, as far as
  their delayed inputs are already settled (the input delay D caps the
  block), and one `sample_many` call takes the settled prefix of every
  member's estimate profile (a member is one row at one step), the part
  no later sample can change;
* prefix: `_march` runs all K*size prefixes in lockstep as one (members,
  n) state, each member stopping at the end of its own prefix;
* tails: in step order, the rows sample and march their few unknown tail
  intervals from the stored prefix states, as one lockstep march, set U
  and record it; refines at snapshot steps re-march only the tails of the
  rows that have not converged yet;
* block end: the states take the block's last step, through the same
  routine (`_advance`) as the steps taken at block start.

The first steps are blocks of one.  Once four samples exist, steps 0-3 are
re-solved against full-order interpolation, each as a one-step block, so
every predictor march of the loop runs through `_BlockMarches`.

Each member's march is the same sequence of RK4 intervals, on the same
samples, as a single full march at its own step, so neither the block
size nor the other rows change anything but the cost.  A single row runs
on the plant's single-state shapes, (n,) states and scalar inputs.  The
history keeps every sample from t = 0 on and is the run's only record of
U; the result's `controls` are a copy of its row.

Snapshots are emitted as triplets of consecutive steps around each stride
multiple, giving the residual verifier central time differences at the
integration step without any interpolation in time.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .backstepping import forward_transform
from .errors import BlowUpError, ConfigError, UsageError
from .grid import GridProfile, HalfGridProfile, fd_x_wide, grid_nodes
from .history import ControlHistory, distributed_true_input
from .kernels import eval_all
from .plants import DelayBounds, make_plant
from .predictor import (_march, compute_predictor, compute_transition_field,
                        member_escapes, predictor_spatial_derivative)
from .schedules import make_schedule

STATE_LIMIT = 1e8
MAX_STEPS = 10_000_000  # steps T/dt of one run; its arrays have this length
MAX_INTERVALS = 10_000  # grid intervals M
_BLOCK = 64  # steps whose predictor marches share one lockstep prefix sweep


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop run."""

    plant: str = "linear"
    plant_params: dict = field(default_factory=dict)
    X0: tuple = (1.0,)
    true_delay: float = 0.5
    d_lower: Optional[float] = None
    d_upper: Optional[float] = None
    schedule_kind: str = "constant"
    schedule_params: dict = field(default_factory=dict)
    soft_width: Optional[float] = None
    num_intervals: int = 100
    dt: float = 1e-3
    horizon: float = 5.0
    stride: int = 100
    margin: float = 1.0

    def bounds(self):
        d = float(self.true_delay)
        lo = 0.5 * d if self.d_lower is None else float(self.d_lower)
        hi = 2.0 * d if self.d_upper is None else float(self.d_upper)
        return DelayBounds(d_lower=lo, d_upper=hi, true_delay=d)

    def _numeric_fields(self):
        """(file-schema key, value) of every float setting that is set."""
        yield "dt", self.dt
        yield "T", self.horizon
        yield "D", self.true_delay
        yield "margin", self.margin
        for key, value in (("d_lower", self.d_lower),
                           ("d_upper", self.d_upper),
                           ("schedule.soft_width", self.soft_width)):
            if value is not None:
                yield key, value
        for value in np.atleast_1d(self.X0):
            yield "X0", value
        for k, value in sorted(self.plant_params.items()):
            yield f"plant.{k}", value
        for k, value in sorted(self.schedule_params.items()):
            yield f"schedule.{k}", value

    def validate(self):
        for key, value in self._numeric_fields():
            try:
                finite = bool(np.isfinite(float(value)))
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number, got {value!r}") \
                    from None
            if not finite:
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if not self.dt > 0.0:
            raise ConfigError("dt must be positive")
        if not self.horizon >= self.dt:
            raise ConfigError("T must be at least one step dt")
        if not self.horizon / self.dt <= MAX_STEPS:
            raise ConfigError(
                f"T/dt = {self.horizon / self.dt:.3g} steps is more than "
                f"{MAX_STEPS}")
        if self.num_intervals < 8:
            raise ConfigError("M must be at least 8")
        if self.num_intervals > MAX_INTERVALS:
            raise ConfigError(f"M must be at most {MAX_INTERVALS}")
        if self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if not self.true_delay >= self.dt:
            raise ConfigError("D must be no smaller than the step dt")
        try:
            self.bounds()
        except Exception as exc:
            raise ConfigError(f"delay bounds: {exc}") from None

    def build(self):
        """Instantiate the plant bundle and the delay-estimate schedule."""
        self.validate()
        try:
            bundle = make_plant(self.plant, **self.plant_params)
        except TypeError as exc:
            raise ConfigError(f"plant parameters: {exc}") from None
        except Exception as exc:
            raise ConfigError(str(exc)) from None
        X0 = np.atleast_1d(np.asarray(self.X0, dtype=float))
        if X0.shape != (bundle.model.dim,):
            raise ConfigError(
                f"X0 has shape {X0.shape}, plant {self.plant!r} needs "
                f"({bundle.model.dim},)")
        schedule = make_schedule(self.schedule_kind, self.bounds(),
                                 soft_width=self.soft_width,
                                 **self.schedule_params)
        return bundle, schedule

    def ensemble_key(self):
        """What the rows of one step loop share (see `run_ensemble`): the
        plant, the grid, the horizon, the snapshot stride and the true
        delay.  X0 and the delay-estimate schedule (kind, parameters,
        bounds, soft width) are each row's own."""
        return (self.plant, tuple(sorted(self.plant_params.items())),
                int(self.num_intervals), float(self.dt),
                float(self.horizon), int(self.stride),
                float(self.true_delay))

    def with_resolution(self, num_intervals, dt):
        """Copy of this scenario at another (M, dt) rung, stride rescaled so
        snapshot centers fall at the same physical times."""
        factor = self.dt / dt
        return replace(self, num_intervals=int(num_intervals), dt=float(dt),
                       stride=max(1, int(round(self.stride * factor))))


@dataclass
class SystemSnapshot:
    """One fully materialized time slice of the closed loop.

    Distributed fields are plain arrays over the grid nodes; `phat` and
    `phat_x` are (M+1, n).  The transition field and the kernel set are
    attached lazily (see `snapshot_field` / `snapshot_kernels`).
    """

    t: float
    step: int
    X: np.ndarray
    U: float
    dhat: float
    dhat_dot: float
    dhat_ddot: float
    u: np.ndarray
    uhat: np.ndarray
    utilde: np.ndarray
    phat: np.ndarray
    what: np.ndarray
    what_x: np.ndarray
    what_xx: np.ndarray
    what_xxx: np.ndarray
    utilde_x: np.ndarray
    u_x: np.ndarray
    phat_x: np.ndarray
    field: object = None
    kernels: object = None

    @property
    def num_intervals(self):
        return self.u.shape[0] - 1


@dataclass
class SimulationResult:
    config: ScenarioConfig
    model: object
    controller: object
    certificate: object
    schedule: object
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    snapshots: dict
    centers: list
    wall_time: float = 0.0

    def snapshot_triplet(self, center):
        """(previous, center, next) snapshots around an emission step."""
        return (self.snapshots[center - 1], self.snapshots[center],
                self.snapshots[center + 1])


def materialize_slice(model, controller, hist, t, X, true_delay,
                      dhat, dhat_dot, dhat_ddot, num_intervals, step=0):
    """Build a full SystemSnapshot from a recorded input signal and a state.

    Useful outside the simulator too: any sufficiently smooth history (for
    example a synthetic signal appended sample by sample) can be sliced
    into the distributed fields, their derivatives, and later kernels.
    """
    X = np.atleast_1d(np.asarray(X, dtype=float))
    # the estimate on the half grid: its even samples are the nodes
    half_x = grid_nodes(2 * num_intervals) - 1.0
    uhat_h = HalfGridProfile(hist.sample_many(t + float(dhat) * half_x))
    phat = compute_predictor(model, X, uhat_h, dhat)
    u = distributed_true_input(hist, t, true_delay, num_intervals)
    return _assemble_slice(model, controller, t, X, u.values,
                           uhat_h.nodes.values, phat.values, dhat, dhat_dot,
                           dhat_ddot, step)


def _assemble_slice(model, controller, t, X, u, uhat, phat, dhat, dhat_dot,
                    dhat_ddot, step):
    """The snapshot around given node values of the true input (whose last
    entry is U(t)), the estimate and the predictor."""
    u_p, uhat_p, phat_p = GridProfile(u), GridProfile(uhat), GridProfile(phat)
    m = uhat_p.num_intervals
    what = forward_transform(controller, uhat_p, phat_p).values
    utilde = u_p.values - uhat_p.values
    return SystemSnapshot(
        t=t, step=step, X=X.copy(), U=float(u_p.values[-1]),
        dhat=dhat, dhat_dot=dhat_dot, dhat_ddot=dhat_ddot,
        u=u_p.values, uhat=uhat_p.values, utilde=utilde,
        phat=phat_p.values, what=what,
        what_x=fd_x_wide(what, m, 1),
        what_xx=fd_x_wide(what, m, 2),
        what_xxx=fd_x_wide(what, m, 3),
        utilde_x=fd_x_wide(utilde, m, 1),
        u_x=fd_x_wide(u_p.values, m, 1),
        phat_x=predictor_spatial_derivative(model, phat_p, uhat_p, dhat).values,
    )


def snapshot_field(model, snap):
    """Transition matrices for a snapshot, computed once and cached."""
    if snap.field is None:
        snap.field = compute_transition_field(
            model, GridProfile(snap.phat), GridProfile(snap.uhat), snap.dhat)
    return snap.field


def snapshot_kernels(model, controller, true_delay, snap):
    """Full kernel set for a snapshot, cached and reused while the true
    delay stays the same."""
    if snap.kernels is None or snap.kernels.true_delay != float(true_delay):
        snapshot_field(model, snap)
        snap.kernels = eval_all(model, controller, true_delay, snap)
    return snap.kernels


def _stage_inputs_zero(t, dt, D):
    """True while the whole step from t lies left of the input activation
    at t = D: every stage then uses the zero pre-history branch, including
    a stage landing exactly on the jump."""
    return t + dt <= D + 1e-12 * max(1.0, D)


def _stage_times(t, dt, D):
    """Delayed times of the three RK4 stage inputs of the steps from t."""
    return t[:, None] + np.array([0.0, 0.5 * dt, dt]) - D


def _advance(model, hist, states, k0, count, dt, D):
    """Take the plant steps k0 .. k0+count-1 of every row on its recorded
    input, storing states[:, k0+1 ..].  Stops at the first step where a
    row's state escapes; returns the number of steps taken before it and
    the mask of the rows that escaped there (none when all were taken)."""
    t = np.arange(k0, k0 + count) * dt
    stage = _stage_times(t, dt, D)
    v = hist.sample_many(np.broadcast_to(stage, (hist.rows,) + stage.shape))
    v[:, _stage_inputs_zero(t, dt, D)] = 0.0
    v = v.transpose(1, 2, 0)  # (step, stage, row)
    X = states[:, k0]
    if hist.rows == 1:
        # one row steps on the plant's single-state shapes
        X, v = X[0], v[..., 0]
    for j, (v0, v1, v2) in enumerate(v):
        k1 = model.f(X, v0)
        k2 = model.f(X + 0.5 * dt * k1, v1)
        k3 = model.f(X + 0.5 * dt * k2, v1)
        k4 = model.f(X + dt * k3, v2)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[:, k0 + j + 1] = X
        bad = ~(np.max(np.abs(X), axis=-1) <= STATE_LIMIT)
        if np.any(bad):
            return j, np.atleast_1d(bad)
    return count, np.zeros(hist.rows, dtype=bool)


def _advance_ahead(model, hist, states, k0, size, dt, D):
    """Fill states[:, k0+1 .. k0+size-1] from inputs already settled.

    Returns the block size to keep: it ends before the first step whose
    delayed input is not settled yet, and at the first state that escapes
    in any row, which the step loop then meets, in order, at the block's
    last step.
    """
    t = np.arange(k0, k0 + size - 1) * dt
    ok = _stage_inputs_zero(t, dt, D) \
        | hist.settled(_stage_times(t, dt, D)).all(axis=1)
    ahead = int(np.argmin(ok)) if not ok.all() else ok.size
    return 1 + _advance(model, hist, states, k0, ahead, dt, D)[0]


class _BlockMarches:
    """Predictor marches of the steps k0 .. k0+size-1, for every row.

    At construction the settled prefix of each member's half-grid
    estimate (a member is one row at one step) is sampled in one call, and
    the K*size prefixes are marched in lockstep.  `control` then finishes
    one step's tails for a set of rows, as one lockstep march on the
    history as it stands.
    """

    def __init__(self, model, controller, hist, schedules, states, k0, size,
                 dt, half_x):
        self.model, self.controller, self.hist = model, controller, hist
        self.schedules, self.states = schedules, states
        self.k0, self.dt = k0, dt
        self.m = (half_x.size - 1) // 2
        self.dhat = np.array([[s.evaluate(k * dt)[0]
                               for k in range(k0, k0 + size)]
                              for s in schedules])
        t = np.arange(k0, k0 + size) * dt
        self.theta = t[:, None] + self.dhat[..., None] * half_x
        # theta rises along a member and its last entry, t, is never settled
        self.count = np.argmin(hist.settled(self.theta), axis=-1)
        self.stop = np.maximum(self.count - 1, 0) // 2
        self.uhat = np.empty_like(self.theta)
        known = np.arange(half_x.size) < self.count[..., None]
        rows = np.broadcast_to(np.arange(len(schedules))[:, None, None],
                               known.shape)
        self.uhat[known] = hist.sample_many(self.theta[known],
                                            rows=rows[known])

        stop = self.stop.reshape(-1)
        order = np.argsort(-stop, kind="stable")
        dh = self.dhat.reshape(-1)[order][:, None]
        uh = self.uhat.reshape(-1, half_x.size)[order]

        def rhs(ih, p):
            rows = p.shape[0]
            return dh[:rows] * model.f(p, uh[:rows, ih])

        n = states.shape[-1]
        marched = _march(rhs, states[:, k0:k0 + size].reshape(-1, n)[order],
                         self.m, stops=stop[order])
        prefix = np.empty_like(marched)
        prefix[:, order] = marched
        self.prefix = prefix.reshape((-1,) + self.stop.shape + (n,))

    def _profiles(self, k, rows, extrapolate):
        """The (M+1, len(rows), n) predictor node profiles of step k: the
        stored prefixes, then one lockstep march of the tails on freshly
        sampled estimate values.  The march starts at the earliest stop
        among the rows; a row whose prefix reaches further marches those
        nodes again, with the same arithmetic as its prefix sweep."""
        j = k - self.k0
        head, start = self.count[rows, j].min(), self.stop[rows, j].min()
        self.uhat[rows, j, head:] = self.hist.sample_many(
            self.theta[rows, j, head:], allow_tail_extrapolation=extrapolate,
            rows=rows[:, None])
        if rows.size == 1:
            # one row marches on the plant's single-state shapes
            r = rows[0]
            dhat, uh = self.dhat[r, j], self.uhat[r, j]
            y0 = self.prefix[start, r, j]
        else:
            dhat, uh = self.dhat[rows, j][:, None], self.uhat[rows, j].T
            y0 = self.prefix[start, rows, j]
        f = self.model.f

        def rhs(ih, p):
            return dhat * f(p, uh[ih])

        tail = _march(rhs, y0, self.m, start=start)
        return np.concatenate([self.prefix[:start, rows, j],
                               tail.reshape(tail.shape[0], rows.size, -1)])

    def control(self, k, rows, extrapolate):
        """U at step k for each of `rows` from its stored prefix and a
        freshly sampled tail.  Returns the values and {i: BlowUpError} for
        the rows rows[i] whose predictor or control escaped (value 0)."""
        p = self._profiles(k, rows, extrapolate)
        lost = member_escapes(p, self.m)
        ends = p[-1]
        if lost:  # kappa(0) = 0 stands in for an escaped predictor
            ends = ends.copy()
            ends[list(lost)] = 0.0
        values = np.atleast_1d(
            self.controller.kappa(ends[0] if rows.size == 1 else ends))
        for i in np.flatnonzero(~(np.abs(values) <= STATE_LIMIT)):
            lost[int(i)] = BlowUpError(
                f"control value escaped ({float(values[i])!r})")
            values[i] = 0.0
        return values, lost

    def snapshots(self, k, rows, true_delay):
        """The SystemSnapshot at step k of each of `rows` on the recorded
        history: the same fields as `materialize_slice`, with each
        predictor finished from its stored prefix.  Returns {i: snapshot}
        and, as `control` does, the escapes."""
        j = k - self.k0
        t = k * self.dt
        p = self._profiles(k, rows, extrapolate=False)
        lost = member_escapes(p, self.m)
        u = np.ascontiguousarray(distributed_true_input(
            self.hist, t, true_delay, self.m, rows=rows).values.T)
        snaps = {}
        for i, r in enumerate(rows):
            if i not in lost:
                dhat, dd, ddd = self.schedules[r].evaluate(t)
                snaps[i] = _assemble_slice(
                    self.model, self.controller, t, self.states[r, k], u[i],
                    self.uhat[r, j, ::2].copy(), p[:, i].copy(), dhat, dd,
                    ddd, k)
        return snaps, lost


def run_scenario(config: ScenarioConfig, snapshot_steps=None):
    """March the closed loop over [0, T] and collect snapshot triplets.

    The one-row case of `run_ensemble`.  `snapshot_steps` overrides the
    stride-derived emission centers (a sequence of step indices, each
    needing both neighbors inside [0, N]).  Raises BlowUpError with the
    failure time when the state or the predictor march escapes.
    """
    (result,) = run_ensemble([config], snapshot_steps)
    if isinstance(result, BlowUpError):
        raise result
    return result


def run_ensemble(configs, snapshot_steps=None):
    """March the closed loops of several scenarios through one step loop.

    The scenarios must have equal `ScenarioConfig.ensemble_key`s; they
    may differ in X0 and in the delay-estimate schedule.  Every row takes
    the same steps, on the same arithmetic, as its scenario run alone; the
    rows only share the calls.  Returns one entry per config: its
    SimulationResult, or the BlowUpError that `run_scenario` raises for
    it.  A row that escapes leaves the ensemble and the others run on.
    Each result's `wall_time` is an equal share of the loop's time.
    """
    started = _time.perf_counter()
    configs = list(configs)
    if not configs:
        raise UsageError("an ensemble needs at least one scenario")
    if len({cfg.ensemble_key() for cfg in configs}) > 1:
        raise UsageError("the scenarios of an ensemble must share the "
                         "plant, M, dt, T, stride and D")
    built = [cfg.build() for cfg in configs]
    bundle = built[0][0]
    model, controller = bundle.model, bundle.controller
    cfg = configs[0]
    m, dt, D = cfg.num_intervals, cfg.dt, cfg.true_delay
    n_steps = int(round(cfg.horizon / dt))  # at least 1: T >= dt

    if snapshot_steps is None:
        centers = list(range(cfg.stride, n_steps, cfg.stride))
    else:
        centers = sorted(int(s) for s in snapshot_steps)
    for c in centers:
        if c < 1 or c + 1 > n_steps:
            raise ConfigError(
                f"snapshot step {c} needs neighbors within [0, {n_steps}]")
    emit = set()
    for c in centers:
        emit.update((c - 1, c, c + 1))

    # the recorded input is continuous but loses smoothness where the
    # start-of-history jump echoes through the loop, at multiples of the
    # true delay; keeping interpolation stencils off those points
    # preserves the cubic order of the stage inputs
    hist = ControlHistory(dt, breaks=D * np.arange(1.0, 7.0),
                          rows=len(configs))
    half_x = grid_nodes(2 * m) - 1.0
    states = np.empty((len(configs), n_steps + 1, model.dim))
    states[:, 0] = [np.atleast_1d(np.asarray(c.X0, dtype=float))
                    for c in configs]
    schedules = [schedule for _, schedule in built]
    ids = np.arange(len(configs))  # the config of each row still running
    outcome = [None] * len(configs)
    snapshots = [{} for _ in configs]

    def leave(errors):
        """Record the errors of the rows {row: error} and drop the rows."""
        nonlocal states, schedules, ids
        keep = np.ones(ids.size, dtype=bool)
        for r, exc in errors.items():
            outcome[ids[r]] = exc
            keep[r] = False
        hist.keep_rows(keep)
        states = states[keep]
        schedules = [s for s, kept in zip(schedules, keep) if kept]
        ids = ids[keep]

    k0 = 0
    while k0 <= n_steps and ids.size:
        # a block does not span the start-up re-solve
        size = 1 if k0 < 4 else min(_BLOCK, n_steps + 1 - k0)
        size = _advance_ahead(model, hist, states, k0, size, dt, D)
        marches = _BlockMarches(model, controller, hist, schedules, states,
                                k0, size, dt, half_x)
        # rows that escape stop taking part at once and leave at block end
        lost, gone = {}, np.zeros(ids.size, dtype=bool)

        def lose(rows, errors, t):
            for i, exc in errors.items():
                gone[rows[i]] = True
                lost[rows[i]] = exc if t is None else \
                    BlowUpError(str(exc), time=t, x=exc.x)

        for k in range(k0, k0 + size):
            t = k * dt
            live = np.flatnonzero(~gone)
            if not live.size:
                break
            U = np.zeros(ids.size)
            U[live], errors = marches.control(k, live, extrapolate=True)
            lose(live, errors, t)
            hist.append(t, U)
            if k in emit:
                # refine: with U(t) recorded the extrapolation is gone, so
                # re-marching the predictor closes the loop U = kappa(p(1));
                # the iteration contracts fast (gain ~ dt) and is only
                # needed where snapshots assert the boundary identity.  A
                # row that has converged is not replaced again
                todo = np.flatnonzero(~gone)
                for _ in range(6):
                    if not todo.size:
                        break
                    U_new, errors = marches.control(k, todo, extrapolate=False)
                    lose(todo, errors, t)
                    done = np.abs(U_new - U[todo]) \
                        <= 1e-14 * np.maximum(1.0, np.abs(U_new))
                    kept = ~gone[todo]
                    U[todo[kept]] = U_new[kept]
                    hist.replace_last(U)
                    todo = todo[kept & ~done]
                live = np.flatnonzero(~gone)
                if live.size:
                    snaps, errors = marches.snapshots(k, live, D)
                    lose(live, errors, t)
                    for i, snap in snaps.items():
                        snapshots[ids[live[i]]][k] = snap

            if k == 3 and 3.0 * dt <= D * (1.0 + 1e-12):
                # the first three samples were interpolated from fewer
                # than four points; with four recorded the early values
                # can be re-solved against full-order interpolation (the
                # state is drift-only until t = D, so no earlier step
                # consumed them).  Each step is re-marched as a one-step
                # block built after the previous replacement (Gauss-Seidel
                # order); its queries end at the newest sample, so tail
                # extrapolation only adds the block's prefix escape check.
                # Each row stops once its own sweep has converged
                todo = np.flatnonzero(~gone)
                for _ in range(6):
                    delta = np.zeros(ids.size)
                    for j in range(4):
                        if not todo.size:
                            break
                        Uj, errors = _BlockMarches(
                            model, controller, hist, schedules, states, j,
                            1, dt, half_x).control(j, todo, extrapolate=True)
                        lose(todo, errors, None)
                        column = hist.values[:, j].copy()
                        delta[todo] = np.maximum(
                            delta[todo], np.abs(Uj - column[todo]))
                        ok = ~gone[todo]
                        column[todo[ok]] = Uj[ok]
                        hist.replace_at(j * dt, column)
                        todo = todo[ok]
                    scale = np.maximum(
                        1.0, np.max(np.abs(hist.values[todo]), axis=1))
                    todo = todo[~(delta[todo] <= 1e-13 * scale)]
                    if not todo.size:
                        break

        if lost:
            leave(lost)
        k = k0 + size - 1
        if ids.size and k < n_steps:
            escaped = _advance(model, hist, states, k, 1, dt, D)[1]
            if escaped.any():
                t = k * dt + dt
                leave({int(r): BlowUpError(f"state escaped at t={t:.6g}",
                                           time=t)
                       for r in np.flatnonzero(escaped)})
        k0 = k + 1

    share = (_time.perf_counter() - started) / len(configs)
    for r, i in enumerate(ids):
        outcome[i] = SimulationResult(
            config=configs[i], model=model, controller=controller,
            certificate=bundle.certificate, schedule=schedules[r],
            times=dt * np.arange(n_steps + 1), states=states[r].copy(),
            controls=hist.values[r].copy(), snapshots=snapshots[i],
            centers=list(centers), wall_time=share)
    return outcome
