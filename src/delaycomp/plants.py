"""Plant models, nominal feedback laws, and checks on them.

A plant is ``Xdot = f(X, v)`` with scalar input ``v`` and state ``X`` in
R^n, stabilized without delay by the feedback ``kappa``.  The model is f
and the controller is kappa, nothing else: every derivative of either
that the kernels, the transition field and the forcing integral read is
formed from them by forward-mode jets (`jets.derivatives`).

Every callback, of the plant, the controller and the Lyapunov certificate,
is array-native: it maps states of shape (..., n), and inputs of shape
(...), to one result per leading index, so a single call evaluates all the
grid nodes of a profile, or a batch of (K, n) states marched in lockstep,
as well as a single (n,) state with a scalar input.  The jets pass through
f and kappa written this way in plain numpy.  The two checks below rest on
that contract: each evaluates every callback once, on all of its samples
stacked into one (S, n) batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import UsageError
from .jets import derivatives


def _stack_states(states, dim):
    """The sampled states as one (S, n) batch; each must have shape (n,)."""
    rows = [np.atleast_1d(np.asarray(X, dtype=float)) for X in states]
    for X in rows:
        if X.shape != (dim,):
            raise UsageError(f"state has shape {X.shape}, expected ({dim},)")
    return np.stack(rows)


@dataclass
class PlantModel:
    """Dynamics f(X, u): states of shape (..., n) and inputs of shape (...)
    (or a scalar) to rates of shape (..., n), each row computed as a
    single-state call would compute it."""

    dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class Controller:
    """Nominal delay-free feedback kappa with kappa(0) = 0, from states of
    shape (..., n) to inputs of shape (...)."""

    dim: int
    kappa: Callable[[np.ndarray], np.ndarray]


def _central_differences(g, X, h):
    """dg/dX by central differences of step h: for g(X) of shape
    (...) + s at states X of shape (..., n), the (...) + s + (n,) tensor
    with the differentiation index last."""
    n = X.shape[-1]
    parts = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        gp = np.asarray(g(X + e), dtype=float)
        gm = np.asarray(g(X - e), dtype=float)
        parts.append((gp - gm) / (2.0 * h))
    return np.stack(parts, axis=-1)


@dataclass
class LyapunovCertificate:
    """Exponential-stability certificate for the nominal closed loop.

    Claims |X|^2 <= V(X) <= c1 |X|^2, |dV/dX| <= c2 |X| and
    dV/dX . f(X, kappa(X)) <= -decay_rate V(X).  Both callbacks are
    array-native: for states of shape (..., n), `V` gives (...) and
    `dV_dX` (..., n).
    """

    V: Callable[[np.ndarray], np.ndarray]
    dV_dX: Callable[[np.ndarray], np.ndarray]
    decay_rate: float
    c1: float
    c2: float


@dataclass
class DelayBounds:
    d_lower: float
    d_upper: float
    true_delay: float

    def __post_init__(self):
        if not (0.0 < self.d_lower <= self.true_delay <= self.d_upper):
            raise UsageError(
                f"delay bounds violated: need 0 < {self.d_lower} <= "
                f"{self.true_delay} <= {self.d_upper}")


@dataclass
class PlantBundle:
    model: PlantModel
    controller: Controller
    certificate: Optional[LyapunovCertificate] = None


# ---------------------------------------------------------------------------
# derivative / certificate checks


@dataclass
class CheckEntry:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error <= self.tolerance


@dataclass
class CheckReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)


def _worst(errors):
    """The largest error of a batch, at least 0; a NaN anywhere is kept,
    so a non-finite evaluation fails its entry."""
    return float(np.max(errors, initial=0.0))


def check_derivative_consistency(model, controller, samples, h=1e-4, scale=10.0):
    """Compare the jet derivatives of f and kappa against central finite
    differences.

    `samples` is a list of (X, u) pairs.  They are stacked into one (S, n)
    batch of states and one (S,) batch of inputs, and every derivative and
    its finite-difference estimate is evaluated once on the batch.  Each
    derivative passes when its worst scaled error, |jet - fd| /
    (1 + |jet|), is at most ``scale * h**2``.  Report-only: never raises on
    failure.
    """
    X = _stack_states([x for x, _ in samples], model.dim)
    u = np.array([float(v) for _, v in samples])
    f, kappa = model.f, controller.kappa
    jet = derivatives(model, controller, X, u, order=2)

    def f_du(Y):
        return (f(Y, u + h) - f(Y, u - h)) / (2.0 * h)

    def grad(Y):
        return _central_differences(kappa, Y, h)

    pairs = {
        "df_dX": (jet.A, _central_differences(lambda Y: f(Y, u), X, h)),
        "df_du": (jet.b, f_du(X)),
        "d2f_dudX": (jet.fpu, _central_differences(f_du, X, h)),
        "d2f_du2": (jet.fuu,
                    (f(X, u + h) - 2.0 * f(X, u) + f(X, u - h)) / (h * h)),
        "dkappa_dX": (jet.k1, grad(X)),
        "d2kappa_dX2": (jet.k2, _central_differences(grad, X, h)),
    }
    return CheckReport([
        CheckEntry(name, _worst(np.abs(a - fd) / (1.0 + np.abs(a))),
                   scale * h * h) for name, (a, fd) in pairs.items()])


def check_lyapunov(cert, model, controller, samples, tol=1e-12):
    """Verify the three certificate inequalities on the batch of sampled
    states, stacked into one (S, n) array."""
    X = _stack_states(samples, model.dim)
    n2 = np.sum(X * X, axis=-1)
    v = np.asarray(cert.V(X), dtype=float)
    dv = np.asarray(cert.dV_dX(X), dtype=float)
    vdot = np.sum(dv * model.f(X, controller.kappa(X)), axis=-1)
    errors = {
        "squeeze_bounds": np.maximum(n2 - v, v - cert.c1 * n2),
        "gradient_bound": np.linalg.norm(dv, axis=-1) - cert.c2 * np.sqrt(n2),
        "decay_inequality": vdot + cert.decay_rate * v,
    }
    return CheckReport([CheckEntry(name, _worst(err), tol)
                        for name, err in errors.items()])


# ---------------------------------------------------------------------------
# built-in plants


def _coord(X, i):
    """State component i over the leading axes: a numpy scalar for one
    (n,) state, because arithmetic on the 0-d array that X[..., i] gives
    there costs several times as much, and marches call this per stage."""
    return X[..., i][()]


def _square_certificate(decay_rate):
    """V = X^2 for a scalar plant."""
    return LyapunovCertificate(V=lambda X: X[..., 0] * X[..., 0],
                               dV_dX=lambda X: 2.0 * X,
                               decay_rate=decay_rate, c1=1.0, c2=2.0)


def make_linear(a=1.0, b=1.0, k=2.0):
    """Scalar linear plant Xdot = a X + b v with kappa = -k X."""
    a, b, k = float(a), float(b), float(k)
    model = PlantModel(
        dim=1, f=lambda X, u: (a * _coord(X, 0) + b * u)[..., None])
    ctrl = Controller(dim=1, kappa=lambda X: -k * _coord(X, 0))
    closed = a - b * k
    cert = _square_certificate(-2.0 * closed * 0.999) if closed < 0.0 \
        else None
    return PlantBundle(model, ctrl, cert)


def make_cubic():
    """Scalar Xdot = -X^3 + v, stabilized by kappa = X^3 - X.

    The -X^3 drift dominates any bounded input, so the open loop cannot
    escape in finite time; the closed loop is Xdot = -X.  Powers are
    written as products, so a batch row equals a single call bit for bit.
    """
    def f(X, u):
        x = _coord(X, 0)
        return (-(x * x * x) + u)[..., None]

    def kappa(X):
        x = _coord(X, 0)
        return x * x * x - x

    return PlantBundle(PlantModel(dim=1, f=f), Controller(dim=1, kappa=kappa),
                       _square_certificate(2.0 * 0.999))


def make_double_integrator():
    """Planar double integrator with kappa = -x1 - 2 x2 (poles at -1, -1).

    The quadratic certificate is P = [[1.5, 0.5], [0.5, 0.5]], the exact
    solution of the closed-loop Lyapunov equation Acl' P + P Acl = -I with
    Acl = A - B K, scaled so that V >= |X|^2.
    """
    K = np.array([1.0, 2.0])
    model = PlantModel(
        dim=2,
        # A X + B u written out, so a batch row equals a single call exactly
        f=lambda X, u: np.stack(
            [X[..., 1], np.broadcast_to(u, np.shape(X)[:-1])], axis=-1))
    ctrl = Controller(dim=2, kappa=lambda X: -(X @ K))
    P = np.array([[1.5, 0.5], [0.5, 0.5]])
    lam_min = float(np.min(np.linalg.eigvalsh(P)))
    Pn = P / lam_min  # V = X' Pn X >= |X|^2
    lam_max = float(np.max(np.linalg.eigvalsh(Pn)))
    decay = (1.0 / lam_min) / lam_max  # Vdot = -|X|^2 / lam_min <= -decay V
    cert = LyapunovCertificate(
        V=lambda X: np.einsum("...i,ij,...j->...", X, Pn, X),
        dV_dX=lambda X: 2.0 * (X @ Pn),
        decay_rate=decay * 0.999, c1=lam_max, c2=2.0 * lam_max)
    return PlantBundle(model, ctrl, cert)


PLANT_REGISTRY = {
    # Xdot = v with kappa = -X and V = X^2
    "integrator": lambda: make_linear(a=0.0, b=1.0, k=1.0),
    "linear": make_linear,
    "cubic": make_cubic,
    "double_integrator": make_double_integrator,
}


def make_plant(name, **params):
    """Instantiate a built-in plant bundle by name."""
    try:
        factory = PLANT_REGISTRY[name]
    except KeyError:
        raise UsageError(
            f"unknown plant {name!r}; known: {sorted(PLANT_REGISTRY)}") from None
    return factory(**params)
