"""Plant models, nominal feedback laws, and their analytic derivatives.

A plant is ``Xdot = f(X, v)`` with scalar input ``v`` and state ``X`` in R^n.
``f`` is array-native: it maps states of shape (..., n) and inputs of shape
(...) to rates of shape (..., n), so one call evaluates a batch of (K, n)
states with (K,) inputs (the lockstep predictor march and the nodewise
predictor derivative rely on this) or a single (n,) state with a scalar.
Besides ``f`` itself the model carries the Jacobians and the mixed second
derivatives that the kernel expansions consume.  Third-order data
(``d2f_dX2``, ``d3kappa_dX3``) is optional; when absent it is reconstructed
by central differencing of the analytic first/second derivatives, which keeps
the kernel chain-rule expansions at FD accuracy for user-supplied plants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import BlowUpError, UsageError

_FD_STEP = 1e-5


def _as_state(X, dim):
    X = np.atleast_1d(np.asarray(X, dtype=float))
    if X.shape != (dim,):
        raise UsageError(f"state has shape {X.shape}, expected ({dim},)")
    return X


@dataclass
class PlantModel:
    """Dynamics f and its derivatives up to the order the kernels need.

    `f(X, u)` must broadcast over leading axes: X of shape (..., n) and u
    of shape (...) give (..., n), each row computed as a single-state call
    would compute it.  There is no per-row fallback for a scalar-only f.
    The derivative callbacks take one (n,) state and a scalar input.
    """

    dim: int
    f: Callable[[np.ndarray, float], np.ndarray]
    df_dX: Callable[[np.ndarray, float], np.ndarray]
    df_du: Callable[[np.ndarray, float], np.ndarray]
    d2f_dudX: Callable[[np.ndarray, float], np.ndarray]
    d2f_du2: Callable[[np.ndarray, float], np.ndarray]
    d2f_dX2: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    forward_complete_declared: bool = False
    name: str = "plant"

    def eval_f(self, X, u):
        """Evaluate f(X, u) with dimension and finiteness checks."""
        X = _as_state(X, self.dim)
        out = np.atleast_1d(np.asarray(self.f(X, float(u)), dtype=float))
        if out.shape != (self.dim,):
            raise UsageError(
                f"f returned shape {out.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(out)):
            raise BlowUpError(f"non-finite f(X,u) at X={X}, u={u}")
        return out

    def hess_X(self, X, u):
        """d2f/dX2 as an (n, n, n) tensor, [i, j, k] = d^2 f_i / dX_j dX_k.

        Falls back to central differences of df_dX when no analytic tensor
        was supplied.
        """
        if self.d2f_dX2 is not None:
            return np.asarray(self.d2f_dX2(np.asarray(X, float), float(u)), dtype=float)
        n, h = self.dim, _FD_STEP
        X = np.asarray(X, dtype=float)
        out = np.empty((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            jp = np.asarray(self.df_dX(X + e, u), dtype=float)
            jm = np.asarray(self.df_dX(X - e, u), dtype=float)
            out[:, :, k] = (jp - jm) / (2.0 * h)
        return out


@dataclass
class Controller:
    """Nominal delay-free feedback kappa with kappa(0) = 0."""

    dim: int
    kappa: Callable[[np.ndarray], float]
    dkappa_dX: Callable[[np.ndarray], np.ndarray]
    d2kappa_dX2: Callable[[np.ndarray], np.ndarray]
    d3kappa_dX3: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def third(self, X):
        """d3 kappa / dX3 as an (n, n, n) tensor, FD fallback on the Hessian."""
        if self.d3kappa_dX3 is not None:
            return np.asarray(self.d3kappa_dX3(np.asarray(X, float)), dtype=float)
        n, h = self.dim, _FD_STEP
        X = np.asarray(X, dtype=float)
        out = np.empty((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            hp = np.asarray(self.d2kappa_dX2(X + e), dtype=float)
            hm = np.asarray(self.d2kappa_dX2(X - e), dtype=float)
            out[:, :, k] = (hp - hm) / (2.0 * h)
        return out


@dataclass
class LyapunovCertificate:
    """Exponential-stability certificate for the nominal closed loop."""

    V: Callable[[np.ndarray], float]
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

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _scaled_err(analytic, fd):
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


def check_derivative_consistency(model, controller, samples, h=1e-4, scale=10.0):
    """Compare every analytic derivative against central finite differences.

    `samples` is a list of (X, u) pairs.  Each derivative passes when its
    worst scaled error over the samples is at most ``scale * h**2``.
    Report-only: never raises on failure.
    """
    n = model.dim
    tol = scale * h * h
    errs = {k: 0.0 for k in ("df_dX", "df_du", "d2f_dudX", "d2f_du2",
                             "dkappa_dX", "d2kappa_dX2")}
    for X, u in samples:
        X = _as_state(X, n)
        u = float(u)
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (model.f(X + e, u) - model.f(X - e, u)) / (2 * h)
        errs["df_dX"] = max(errs["df_dX"], _scaled_err(model.df_dX(X, u), jac))

        fd_du = (model.f(X, u + h) - model.f(X, u - h)) / (2 * h)
        errs["df_du"] = max(errs["df_du"], _scaled_err(model.df_du(X, u), fd_du))

        mixed = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            mixed[:, j] = (model.f(X + e, u + h) - model.f(X + e, u - h)
                           - model.f(X - e, u + h) + model.f(X - e, u - h)) / (4 * h * h)
        errs["d2f_dudX"] = max(errs["d2f_dudX"],
                               _scaled_err(model.d2f_dudX(X, u), mixed))

        fd_du2 = (model.f(X, u + h) - 2.0 * model.f(X, u) + model.f(X, u - h)) / (h * h)
        errs["d2f_du2"] = max(errs["d2f_du2"],
                              _scaled_err(model.d2f_du2(X, u), fd_du2))

        grad = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            grad[j] = (controller.kappa(X + e) - controller.kappa(X - e)) / (2 * h)
        errs["dkappa_dX"] = max(errs["dkappa_dX"],
                                _scaled_err(controller.dkappa_dX(X), grad))

        hess = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                hess[i, j] = (controller.kappa(X + ei + ej)
                              - controller.kappa(X + ei - ej)
                              - controller.kappa(X - ei + ej)
                              + controller.kappa(X - ei - ej)) / (4 * h * h)
        errs["d2kappa_dX2"] = max(errs["d2kappa_dX2"],
                                  _scaled_err(controller.d2kappa_dX2(X), hess))

    report = CheckReport()
    for name, err in errs.items():
        report.entries.append(CheckEntry(name, err, tol))
    return report


def check_lyapunov(cert, model, controller, samples, tol=1e-12):
    """Verify the three certificate inequalities at each sampled state."""
    report = CheckReport()
    e_bounds = 0.0
    e_grad = 0.0
    e_decay = 0.0
    for X in samples:
        X = _as_state(X, model.dim)
        n2 = float(X @ X)
        v = float(cert.V(X))
        dv = np.atleast_1d(np.asarray(cert.dV_dX(X), dtype=float))
        e_bounds = max(e_bounds, n2 - v, v - cert.c1 * n2)
        e_grad = max(e_grad, float(np.linalg.norm(dv)) - cert.c2 * np.sqrt(n2))
        vdot = float(dv @ model.eval_f(X, controller.kappa(X)))
        e_decay = max(e_decay, vdot + cert.decay_rate * v)
    report.entries.append(CheckEntry("squeeze_bounds", e_bounds, tol))
    report.entries.append(CheckEntry("gradient_bound", e_grad, tol))
    report.entries.append(CheckEntry("decay_inequality", e_decay, tol))
    return report


# ---------------------------------------------------------------------------
# built-in plants


def _zeros_tensor(n):
    return np.zeros((n, n, n))


def make_integrator():
    """Scalar integrator Xdot = v with kappa = -X, V = X^2."""
    model = PlantModel(
        dim=1,
        f=lambda X, u: np.asarray(u, dtype=float)[..., None],
        df_dX=lambda X, u: np.zeros((1, 1)),
        df_du=lambda X, u: np.ones(1),
        d2f_dudX=lambda X, u: np.zeros((1, 1)),
        d2f_du2=lambda X, u: np.zeros(1),
        d2f_dX2=lambda X, u: _zeros_tensor(1),
        forward_complete_declared=True,
        name="integrator",
    )
    ctrl = Controller(
        dim=1,
        kappa=lambda X: -float(X[0]),
        dkappa_dX=lambda X: np.array([-1.0]),
        d2kappa_dX2=lambda X: np.zeros((1, 1)),
        d3kappa_dX3=lambda X: _zeros_tensor(1),
    )
    cert = LyapunovCertificate(
        V=lambda X: float(X[0] ** 2),
        dV_dX=lambda X: np.array([2.0 * X[0]]),
        decay_rate=2.0 * 0.999,
        c1=1.0,
        c2=2.0,
    )
    return PlantBundle(model, ctrl, cert)


def make_linear(a=1.0, b=1.0, k=2.0):
    """Scalar linear plant Xdot = a X + b v with kappa = -k X."""
    a, b, k = float(a), float(b), float(k)
    model = PlantModel(
        dim=1,
        f=lambda X, u: (a * X[..., 0] + b * u)[..., None],
        df_dX=lambda X, u: np.array([[a]]),
        df_du=lambda X, u: np.array([b]),
        d2f_dudX=lambda X, u: np.zeros((1, 1)),
        d2f_du2=lambda X, u: np.zeros(1),
        d2f_dX2=lambda X, u: _zeros_tensor(1),
        forward_complete_declared=True,
        name="linear",
    )
    ctrl = Controller(
        dim=1,
        kappa=lambda X: -k * float(X[0]),
        dkappa_dX=lambda X: np.array([-k]),
        d2kappa_dX2=lambda X: np.zeros((1, 1)),
        d3kappa_dX3=lambda X: _zeros_tensor(1),
    )
    cert = None
    closed = a - b * k
    if closed < 0.0:
        cert = LyapunovCertificate(
            V=lambda X: float(X[0] ** 2),
            dV_dX=lambda X: np.array([2.0 * X[0]]),
            decay_rate=-2.0 * closed * 0.999,
            c1=1.0,
            c2=2.0,
        )
    return PlantBundle(model, ctrl, cert)


def make_cubic():
    """Scalar Xdot = -X^3 + v, stabilized by kappa = X^3 - X.

    The -X^3 drift dominates any bounded input, so the open loop cannot
    escape in finite time; the closed loop is Xdot = -X.
    """
    model = PlantModel(
        dim=1,
        f=lambda X, u: (-(X[..., 0] * X[..., 0] * X[..., 0]) + u)[..., None],
        df_dX=lambda X, u: np.array([[-3.0 * X[0] ** 2]]),
        df_du=lambda X, u: np.ones(1),
        d2f_dudX=lambda X, u: np.zeros((1, 1)),
        d2f_du2=lambda X, u: np.zeros(1),
        d2f_dX2=lambda X, u: np.array([[[-6.0 * X[0]]]]),
        forward_complete_declared=True,
        name="cubic",
    )
    ctrl = Controller(
        dim=1,
        kappa=lambda X: float(X[0] ** 3 - X[0]),
        dkappa_dX=lambda X: np.array([3.0 * X[0] ** 2 - 1.0]),
        d2kappa_dX2=lambda X: np.array([[6.0 * X[0]]]),
        d3kappa_dX3=lambda X: np.array([[[6.0]]]),
    )
    cert = LyapunovCertificate(
        V=lambda X: float(X[0] ** 2),
        dV_dX=lambda X: np.array([2.0 * X[0]]),
        decay_rate=2.0 * 0.999,
        c1=1.0,
        c2=2.0,
    )
    return PlantBundle(model, ctrl, cert)


def make_double_integrator():
    """Planar double integrator with kappa = -x1 - 2 x2 (poles at -1, -1).

    The quadratic certificate is built numerically from the closed-loop
    Lyapunov equation and scaled so that V >= |X|^2.
    """
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([0.0, 1.0])
    K = np.array([1.0, 2.0])
    model = PlantModel(
        dim=2,
        # A X + B u written out, so a batch row equals a single call exactly
        f=lambda X, u: np.stack(
            [X[..., 1], np.broadcast_to(u, np.shape(X)[:-1])], axis=-1),
        df_dX=lambda X, u: A.copy(),
        df_du=lambda X, u: B.copy(),
        d2f_dudX=lambda X, u: np.zeros((2, 2)),
        d2f_du2=lambda X, u: np.zeros(2),
        d2f_dX2=lambda X, u: _zeros_tensor(2),
        forward_complete_declared=True,
        name="double_integrator",
    )
    ctrl = Controller(
        dim=2,
        kappa=lambda X: -float(K @ X),
        dkappa_dX=lambda X: -K.copy(),
        d2kappa_dX2=lambda X: np.zeros((2, 2)),
        d3kappa_dX3=lambda X: _zeros_tensor(2),
    )
    Acl = A - np.outer(B, K)
    P = scipy.linalg.solve_continuous_lyapunov(Acl.T, -np.eye(2))
    lam_min = float(np.min(np.linalg.eigvalsh(P)))
    Pn = P / lam_min  # V = X' Pn X >= |X|^2
    lam_max = float(np.max(np.linalg.eigvalsh(Pn)))
    decay = (1.0 / lam_min) / lam_max  # Vdot = -|X|^2 / lam_min <= -decay V
    cert = LyapunovCertificate(
        V=lambda X: float(X @ Pn @ X),
        dV_dX=lambda X: 2.0 * (Pn @ X),
        decay_rate=decay * 0.999,
        c1=lam_max,
        c2=2.0 * lam_max,
    )
    return PlantBundle(model, ctrl, cert)


PLANT_REGISTRY = {
    "integrator": make_integrator,
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
