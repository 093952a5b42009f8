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

Steps are processed in blocks of up to `_BLOCK` consecutive steps:

* block start: the plant state is advanced through the block, as far as
  its delayed inputs are already settled (the input delay D caps the
  block), and one `sample_many` call takes the settled prefix of every
  member's estimate profile, the part no later sample can change;
* prefix: `_march` runs all prefixes in lockstep as one (K, n) state, each
  member stopping at the end of its own prefix;
* tails: in step order, each member samples and marches its few unknown
  tail intervals from its stored prefix state, sets U and records it;
  refines at snapshot steps re-march only the tail;
* block end: the state takes the block's last step, through the same
  routine (`_advance`) as the steps taken at block start.

The first steps are blocks of one.  Once four samples exist, steps 0-3 are
re-solved against full-order interpolation, each as a one-member block, so
every predictor march of the loop runs through `_BlockMarches`.

Each member's march is the same sequence of RK4 intervals, on the same
samples, as a single full march at its own step, so the block size changes
nothing but the cost.  The history keeps every sample from t = 0 on and is
the run's only record of U; the result's `controls` are a copy of it.

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
from .errors import BlowUpError, ConfigError
from .grid import GridProfile, HalfGridProfile, fd_x_wide, grid_nodes
from .history import ControlHistory, distributed_true_input
from .kernels import eval_all
from .plants import DelayBounds, make_plant
from .predictor import (_march, check_escape, compute_predictor,
                        compute_transition_field,
                        predictor_spatial_derivative)
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
    return _assemble_slice(model, controller, hist, t, X, true_delay,
                           dhat, dhat_dot, dhat_ddot, uhat_h.nodes, phat,
                           step)


def _assemble_slice(model, controller, hist, t, X, true_delay, dhat,
                    dhat_dot, dhat_ddot, uhat_p, phat_p, step):
    """The snapshot around given estimate and predictor node profiles."""
    m = uhat_p.num_intervals
    u_p = distributed_true_input(hist, t, true_delay, m)
    what = forward_transform(controller, uhat_p, phat_p).values
    utilde = u_p.values - uhat_p.values
    return SystemSnapshot(
        t=t, step=step, X=X.copy(), U=float(hist.sample_many(t)),
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


def _control_from(controller, p_end):
    """U = kappa(p(1)), rejecting an escaped value."""
    value = float(controller.kappa(np.atleast_1d(p_end)))
    if not np.isfinite(value) or abs(value) > STATE_LIMIT:
        raise BlowUpError(f"control value escaped ({value!r})")
    return value


def _stage_inputs_zero(t, dt, D):
    """True while the whole step from t lies left of the input activation
    at t = D: every stage then uses the zero pre-history branch, including
    a stage landing exactly on the jump."""
    return t + dt <= D + 1e-12 * max(1.0, D)


def _stage_times(t, dt, D):
    """Delayed times of the three RK4 stage inputs of the steps from t."""
    return t[:, None] + np.array([0.0, 0.5 * dt, dt]) - D


def _advance(model, hist, states, k0, count, dt, D):
    """Take the plant steps k0 .. k0+count-1 on the recorded input, storing
    states[k0+1 ..]; returns how many states were stored, stopping before
    the first one that escapes."""
    t = np.arange(k0, k0 + count) * dt
    v = hist.sample_many(_stage_times(t, dt, D))
    v[_stage_inputs_zero(t, dt, D)] = 0.0
    X = states[k0]
    for j, (v0, v1, v2) in enumerate(v):
        k1 = model.f(X, v0)
        k2 = model.f(X + 0.5 * dt * k1, v1)
        k3 = model.f(X + 0.5 * dt * k2, v1)
        k4 = model.f(X + dt * k3, v2)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > STATE_LIMIT:
            return j
        states[k0 + j + 1] = X
    return count


def _advance_ahead(model, hist, states, k0, size, dt, D):
    """Fill states[k0+1 .. k0+size-1] from inputs already settled.

    Returns the block size to keep: it ends before the first step whose
    delayed input is not settled yet, and at a state that escapes, which
    the step loop then meets, in order, at the block's last step.
    """
    t = np.arange(k0, k0 + size - 1) * dt
    ok = _stage_inputs_zero(t, dt, D) \
        | hist.settled(_stage_times(t, dt, D)).all(axis=1)
    ahead = int(np.argmin(ok)) if not ok.all() else ok.size
    return 1 + _advance(model, hist, states, k0, ahead, dt, D)


class _BlockMarches:
    """Predictor marches of the steps k0 .. k0+size-1.

    At construction the settled prefix of every member's half-grid
    estimate is sampled in one call and marched in lockstep; `control`
    then finishes one member's tail on the history as it stands.
    """

    def __init__(self, model, controller, hist, schedule, states, k0, size,
                 dt, half_x):
        self.model, self.controller, self.hist = model, controller, hist
        self.states = states
        self.k0, self.dt = k0, dt
        self.m = (half_x.size - 1) // 2
        self.dhat = np.array([schedule.evaluate(k * dt)[0]
                              for k in range(k0, k0 + size)])
        t = np.arange(k0, k0 + size) * dt
        self.theta = t[:, None] + self.dhat[:, None] * half_x
        # theta rises along a row and its last entry, t, is never settled
        self.count = np.argmin(hist.settled(self.theta), axis=1)
        self.stop = np.maximum(self.count - 1, 0) // 2
        self.uhat = np.empty_like(self.theta)
        known = np.arange(half_x.size) < self.count[:, None]
        self.uhat[known] = hist.sample_many(self.theta[known])

        order = np.argsort(-self.stop, kind="stable")
        dh = self.dhat[order][:, None]
        uh = self.uhat[order]

        def rhs(ih, p):
            rows = p.shape[0]
            return dh[:rows] * model.f(p, uh[:rows, ih])

        marched = _march(rhs, states[k0:k0 + size][order], self.m,
                         stops=self.stop[order])
        self.prefix = np.empty_like(marched)
        self.prefix[:, order] = marched

    def _profile(self, j, extrapolate):
        """Member j's predictor node profile: its stored prefix, then the
        tail marched on freshly sampled estimate values."""
        head, stop = self.count[j], self.stop[j]
        row = self.uhat[j]
        row[head:] = self.hist.sample_many(
            self.theta[j, head:], allow_tail_extrapolation=extrapolate)
        dhat, f = self.dhat[j], self.model.f

        def rhs(ih, p):
            return dhat * f(p, row[ih])

        tail = _march(rhs, self.prefix[stop, j], self.m, start=stop)
        return np.concatenate([self.prefix[:stop, j], tail])

    def control(self, k, extrapolate):
        """U at step k from its stored prefix and a freshly sampled tail;
        the first call of a step (with tail extrapolation) also checks the
        prefix, which later calls share."""
        j = k - self.k0
        if extrapolate:
            check_escape(self.prefix[:self.stop[j] + 1, j], self.m)
        tail_end = self._profile(j, extrapolate)[-1]
        return _control_from(self.controller, tail_end)

    def snapshot(self, k, schedule, true_delay):
        """The SystemSnapshot at step k on the recorded history: the same
        fields as `materialize_slice`, with the predictor finished from
        the stored prefix."""
        j = k - self.k0
        t = k * self.dt
        dhat, dd, ddd = schedule.evaluate(t)
        phat = GridProfile(self._profile(j, extrapolate=False))
        uhat = GridProfile(self.uhat[j, ::2].copy())
        return _assemble_slice(
            self.model, self.controller, self.hist, t, self.states[k],
            true_delay, dhat, dd, ddd, uhat, phat, k)


def run_scenario(config: ScenarioConfig, snapshot_steps=None):
    """March the closed loop over [0, T] and collect snapshot triplets.

    `snapshot_steps` overrides the stride-derived emission centers (a
    sequence of step indices, each needing both neighbors inside [0, N]).
    Raises BlowUpError with the failure time when the state or the
    predictor march escapes.
    """
    started = _time.perf_counter()
    bundle, schedule = config.build()
    model, controller = bundle.model, bundle.controller
    m, dt, D = config.num_intervals, config.dt, config.true_delay
    n_steps = int(round(config.horizon / dt))  # at least 1: T >= dt

    if snapshot_steps is None:
        centers = list(range(config.stride, n_steps, config.stride))
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
    hist = ControlHistory(dt, breaks=D * np.arange(1.0, 7.0))
    half_x = grid_nodes(2 * m) - 1.0
    states = np.empty((n_steps + 1, model.dim))
    times = dt * np.arange(n_steps + 1)
    snapshots = {}
    states[0] = np.atleast_1d(np.asarray(config.X0, dtype=float))

    k0 = 0
    while k0 <= n_steps:
        # a block does not span the start-up re-solve
        size = 1 if k0 < 4 else min(_BLOCK, n_steps + 1 - k0)
        size = _advance_ahead(model, hist, states, k0, size, dt, D)
        marches = _BlockMarches(model, controller, hist, schedule, states,
                                k0, size, dt, half_x)
        for k in range(k0, k0 + size):
            t = k * dt
            try:
                U = marches.control(k, extrapolate=True)
                hist.append(t, U)
                if k in emit:
                    # refine: with U(t) recorded the extrapolation is
                    # gone, so re-marching the predictor closes the loop
                    # U = kappa(p(1)); the iteration contracts fast (gain
                    # ~ dt) and is only needed where snapshots assert the
                    # boundary identity
                    for _ in range(6):
                        U_new = marches.control(k, extrapolate=False)
                        hist.replace_last(U_new)
                        done = abs(U_new - U) <= 1e-14 * max(1.0, abs(U_new))
                        U = U_new
                        if done:
                            break
                    snapshots[k] = marches.snapshot(k, schedule, D)
            except BlowUpError as exc:
                raise BlowUpError(str(exc), time=t, x=exc.x) from None

            if k == 3 and 3.0 * dt <= D * (1.0 + 1e-12):
                # the first three samples were interpolated from fewer
                # than four points; with four recorded the early values
                # can be re-solved against full-order interpolation (the
                # state is drift-only until t = D, so no earlier step
                # consumed them).  Each step is re-marched as a one-member
                # block built after the previous replacement (Gauss-Seidel
                # order); its queries end at the newest sample, so tail
                # extrapolation only adds the block's prefix escape check
                for _ in range(6):
                    delta = 0.0
                    for j in range(4):
                        Uj = _BlockMarches(
                            model, controller, hist, schedule, states, j, 1,
                            dt, half_x).control(j, extrapolate=True)
                        delta = max(delta, abs(Uj - hist.values[j]))
                        hist.replace_at(j * dt, Uj)
                    if delta <= 1e-13 * max(1.0,
                                            np.max(np.abs(hist.values))):
                        break

        k = k0 + size - 1
        if k < n_steps:
            if not _advance(model, hist, states, k, 1, dt, D):
                t = k * dt + dt
                raise BlowUpError(f"state escaped at t={t:.6g}", time=t)
        k0 = k + 1

    return SimulationResult(
        config=config, model=model, controller=controller,
        certificate=bundle.certificate, schedule=schedule,
        times=times, states=states, controls=hist.values.copy(),
        snapshots=snapshots, centers=centers,
        wall_time=_time.perf_counter() - started)
