"""Plant models, nominal feedback laws, and their analytic derivatives.

A plant is ``Xdot = f(X, v)`` with scalar input ``v`` and state ``X`` in R^n.
Besides ``f`` itself the model carries the Jacobians and the mixed second
derivatives that the kernel expansions consume.  Third-order data
(``d2f_dX2``, ``d3kappa_dX3``) is optional; when absent it is reconstructed
by central differencing of the analytic first/second derivatives, which keeps
the kernel chain-rule expansions at FD accuracy for user-supplied plants.

Every callback, of the plant, the controller and the Lyapunov certificate,
is array-native: it maps states of shape (..., n), and inputs of shape
(...), to one result per leading index, so a single call evaluates all the
grid nodes of a profile, or a batch of (K, n) states marched in lockstep,
as well as a single (n,) state with a scalar input.  The two checks below
rest on that contract: each evaluates every callback once, on all of its
samples stacked into one (S, n) batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import UsageError

_FD_STEP = 1e-5


def _stack_states(states, dim):
    """The sampled states as one (S, n) batch; each must have shape (n,)."""
    rows = [np.atleast_1d(np.asarray(X, dtype=float)) for X in states]
    for X in rows:
        if X.shape != (dim,):
            raise UsageError(f"state has shape {X.shape}, expected ({dim},)")
    return np.stack(rows)


@dataclass
class PlantModel:
    """Dynamics f and its derivatives up to the order the kernels need.

    Every callback takes a state X of shape (..., n) and an input u of
    shape (...) (or a scalar) and broadcasts over the leading axes, each
    row computed as a single-state call would compute it: `f` and `df_du`
    and `d2f_du2` give (..., n), `df_dX` and `d2f_dudX` (..., n, n), and
    `d2f_dX2` (..., n, n, n).  There is no per-row fallback for a
    callback that only takes one state.
    """

    dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_dX: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_du: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2f_dudX: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2f_du2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2f_dX2: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def hess_X(self, X, u):
        """d2f/dX2 as (..., n, n, n), [..., i, j, k] = d^2 f_i / dX_j dX_k.

        Falls back to central differences of df_dX when no analytic tensor
        was supplied.
        """
        X = np.asarray(X, dtype=float)
        if self.d2f_dX2 is not None:
            return np.asarray(self.d2f_dX2(X, u), dtype=float)
        return _central_differences(lambda Y: self.df_dX(Y, u), X, _FD_STEP)


@dataclass
class Controller:
    """Nominal delay-free feedback kappa with kappa(0) = 0.

    Like the plant callbacks, every callback broadcasts over leading axes:
    for states of shape (..., n), `kappa` gives (...), `dkappa_dX`
    (..., n), `d2kappa_dX2` (..., n, n) and `d3kappa_dX3` (..., n, n, n).
    """

    dim: int
    kappa: Callable[[np.ndarray], np.ndarray]
    dkappa_dX: Callable[[np.ndarray], np.ndarray]
    d2kappa_dX2: Callable[[np.ndarray], np.ndarray]
    d3kappa_dX3: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def third(self, X):
        """d3 kappa / dX3 as (..., n, n, n), FD fallback on the Hessian."""
        X = np.asarray(X, dtype=float)
        if self.d3kappa_dX3 is not None:
            return np.asarray(self.d3kappa_dX3(X), dtype=float)
        return _central_differences(self.d2kappa_dX2, X, _FD_STEP)


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
    """Compare every analytic derivative against central finite differences.

    `samples` is a list of (X, u) pairs.  They are stacked into one (S, n)
    batch of states and one (S,) batch of inputs, and every derivative and
    its finite-difference estimate is evaluated once on the batch.  Each
    derivative passes when its worst scaled error, |analytic - fd| /
    (1 + |analytic|), is at most ``scale * h**2``.  Report-only: never
    raises on failure.
    """
    X = _stack_states([x for x, _ in samples], model.dim)
    u = np.array([float(v) for _, v in samples])
    f, kappa = model.f, controller.kappa

    def f_du(Y):
        return (f(Y, u + h) - f(Y, u - h)) / (2.0 * h)

    def grad(Y):
        return _central_differences(kappa, Y, h)

    pairs = {
        "df_dX": (model.df_dX(X, u),
                  _central_differences(lambda Y: f(Y, u), X, h)),
        "df_du": (model.df_du(X, u), f_du(X)),
        "d2f_dudX": (model.d2f_dudX(X, u), _central_differences(f_du, X, h)),
        "d2f_du2": (model.d2f_du2(X, u),
                    (f(X, u + h) - 2.0 * f(X, u) + f(X, u - h)) / (h * h)),
        "dkappa_dX": (controller.dkappa_dX(X), grad(X)),
        "d2kappa_dX2": (controller.d2kappa_dX2(X),
                        _central_differences(grad, X, h)),
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


def _constant(value):
    """A callback whose value is the same at every state: for states of
    shape (..., n) it returns `value` repeated to (...) + value.shape."""
    value = np.asarray(value, dtype=float)

    def call(X, u=None):
        return np.broadcast_to(value, np.shape(X)[:-1] + value.shape).copy()

    return call


def _zeros(*shape):
    return _constant(np.zeros(shape))


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
        dim=1,
        f=lambda X, u: (a * _coord(X, 0) + b * u)[..., None],
        df_dX=_constant([[a]]),
        df_du=_constant([b]),
        d2f_dudX=_zeros(1, 1),
        d2f_du2=_zeros(1),
        d2f_dX2=_zeros(1, 1, 1),
    )
    ctrl = Controller(
        dim=1,
        kappa=lambda X: -k * _coord(X, 0),
        dkappa_dX=_constant([-k]),
        d2kappa_dX2=_zeros(1, 1),
        d3kappa_dX3=_zeros(1, 1, 1),
    )
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

    model = PlantModel(
        dim=1,
        f=f,
        df_dX=lambda X, u: (-3.0 * (X[..., 0] * X[..., 0]))[..., None, None],
        df_du=_constant([1.0]),
        d2f_dudX=_zeros(1, 1),
        d2f_du2=_zeros(1),
        d2f_dX2=lambda X, u: (-6.0 * X[..., 0])[..., None, None, None],
    )
    ctrl = Controller(
        dim=1,
        kappa=kappa,
        dkappa_dX=lambda X: (3.0 * (X[..., 0] * X[..., 0]) - 1.0)[..., None],
        d2kappa_dX2=lambda X: (6.0 * X[..., 0])[..., None, None],
        d3kappa_dX3=_constant([[[6.0]]]),
    )
    return PlantBundle(model, ctrl, _square_certificate(2.0 * 0.999))


def make_double_integrator():
    """Planar double integrator with kappa = -x1 - 2 x2 (poles at -1, -1).

    The quadratic certificate is P = [[1.5, 0.5], [0.5, 0.5]], the exact
    solution of the closed-loop Lyapunov equation Acl' P + P Acl = -I with
    Acl = A - B K, scaled so that V >= |X|^2.
    """
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([0.0, 1.0])
    K = np.array([1.0, 2.0])
    model = PlantModel(
        dim=2,
        # A X + B u written out, so a batch row equals a single call exactly
        f=lambda X, u: np.stack(
            [X[..., 1], np.broadcast_to(u, np.shape(X)[:-1])], axis=-1),
        df_dX=_constant(A),
        df_du=_constant(B),
        d2f_dudX=_zeros(2, 2),
        d2f_du2=_zeros(2),
        d2f_dX2=_zeros(2, 2, 2),
    )
    ctrl = Controller(
        dim=2,
        kappa=lambda X: -(X @ K),
        dkappa_dX=_constant(-K),
        d2kappa_dX2=_zeros(2, 2),
        d3kappa_dX3=_zeros(2, 2, 2),
    )
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
