"""Forward-mode derivatives of plant and controller callbacks.

A `Dual` holds a value and its tangent along a batch of seed directions:
the tangent has the value's shape plus one trailing axis, one entry per
seed.  Either part may itself be a dual, and a dual nested r deep carries
every derivative up to order r: these are hyper-dual numbers (Fike &
Alonso, AIAA paper 2011-886), a form of the Taylor propagation of
Griewank & Walther, *Evaluating Derivatives* (SIAM, 2008).  A part that
does not depend on the inner seeds stays a plain array, so constants cost
nothing at the inner levels.

Duals pass through callbacks written as plain numpy on arrays of states:
+, -, *, /, ** with a constant exponent, @, indexing, np.stack,
np.broadcast_to, np.shape, np.ndim, np.moveaxis and the ufuncs of
`_UNARY`.  Every rule acts on each batch row alone, so a row of a
derivative equals the derivative at that single state bit for bit, as
long as the callback's own rows do.  Any other numpy operation raises
UsageError naming it.

`derivatives` seeds a batch of states and inputs with the unit directions
and returns every derivative of f and kappa that the package reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError


class Dual:
    """A value `v` and its tangent `t`, of shape v.shape + (seeds,)."""

    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    @property
    def shape(self):
        return self.v.shape

    @property
    def ndim(self):
        return self.v.ndim

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return Dual(self.v[key], self.t[key + (slice(None),)])

    def __neg__(self):
        return Dual(-self.v, -self.t)

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, -other)

    def __rsub__(self, other):
        return _add(-self, other)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __pow__(self, exponent):
        return _pow(self, exponent)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __array__(self, *args, **kwargs):
        raise UsageError("derivative jets do not support conversion to a "
                         "plain array (numpy.asarray)")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and not kwargs:
            if ufunc in _UNARY and len(inputs) == 1:
                return _unary(ufunc, inputs[0])
            if ufunc in _BINARY and len(inputs) == 2:
                return _BINARY[ufunc](*inputs)
        name = ufunc.__name__ + ("" if method == "__call__" else "." + method)
        raise UsageError(f"derivative jets do not support numpy.{name}")

    def __array_function__(self, func, types, args, kwargs):
        if func not in _FUNCTIONS:
            raise UsageError(
                f"derivative jets do not support numpy.{func.__name__}")
        return _FUNCTIONS[func](*args, **kwargs)


def _col(x):
    """x with a unit axis appended, so it scales a tangent row by row."""
    return x[..., None] if getattr(x, "ndim", 0) else x


def _add(a, b):
    if not isinstance(a, Dual):
        a, b = b, a
    if isinstance(b, Dual):
        return Dual(a.v + b.v, a.t + b.t)
    v = a.v + b
    shape = v.shape + a.t.shape[-1:]
    t = a.t if a.t.shape == shape else np.broadcast_to(a.t, shape)
    return Dual(v, t)


def _mul(a, b):
    if not isinstance(a, Dual):
        a, b = b, a
    if isinstance(b, Dual):
        return Dual(a.v * b.v, a.t * _col(b.v) + _col(a.v) * b.t)
    return Dual(a.v * b, a.t * _col(b))


def _div(a, b):
    if not isinstance(b, Dual):
        return Dual(a.v / b, a.t / _col(b))
    if not isinstance(a, Dual):
        q = a / b.v
        return Dual(q, -_col(q) * b.t / _col(b.v))
    q = a.v / b.v
    return Dual(q, (a.t - _col(q) * b.t) / _col(b.v))


def _sub(a, b):
    return _add(a, -b)


def _pow(a, exponent):
    if isinstance(exponent, Dual):
        raise UsageError("derivative jets support ** only with a constant "
                         "exponent")
    return Dual(a.v ** exponent,
                a.t * _col(exponent * a.v ** (exponent - 1)))


def _seeds_first(t):
    return np.moveaxis(t, -1, 0)


def _seeds_last(t):
    return np.moveaxis(t, 0, -1)


def _matmul(a, b):
    av = a.v if isinstance(a, Dual) else a
    bv = b.v if isinstance(b, Dual) else b
    terms = []
    if isinstance(a, Dual):
        terms.append(_seeds_last(_seeds_first(a.t) @ bv))
    if isinstance(b, Dual):
        terms.append(av @ b.t if np.ndim(bv) == 1
                     else _seeds_last(av @ _seeds_first(b.t)))
    t = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return Dual(av @ bv, t)


def _unary(g, a):
    return Dual(g(a.v), a.t * _col(_UNARY[g](a.v)))


def _stack(arrays, axis=0):
    arrays = list(arrays)
    seeds = next(np.shape(a.t)[-1:] for a in arrays if isinstance(a, Dual))
    axis = axis % (np.ndim(arrays[0]) + 1)
    values = [a.v if isinstance(a, Dual) else a for a in arrays]
    tangents = [a.t if isinstance(a, Dual) else np.zeros(np.shape(a) + seeds)
                for a in arrays]
    return Dual(np.stack(values, axis), np.stack(tangents, axis))


def _broadcast_to(a, shape):
    shape = tuple(np.atleast_1d(shape))
    return Dual(np.broadcast_to(a.v, shape),
                np.broadcast_to(a.t, shape + np.shape(a.t)[-1:]))


def _moveaxis(a, source, destination):
    nd = a.ndim
    source, destination = source % nd, destination % nd
    return Dual(np.moveaxis(a.v, source, destination),
                np.moveaxis(a.t, source, destination))


# each supported function of one argument, with its derivative
_UNARY = {
    np.negative: lambda v: -1.0,
    np.sin: np.cos,
    np.cos: lambda v: -np.sin(v),
    np.exp: np.exp,
}
_BINARY = {np.add: _add, np.subtract: _sub, np.multiply: _mul,
           np.true_divide: _div, np.power: _pow, np.matmul: _matmul}
_FUNCTIONS = {np.stack: _stack, np.broadcast_to: _broadcast_to,
              np.shape: lambda a: a.shape, np.ndim: lambda a: a.ndim,
              np.moveaxis: _moveaxis}


def _seeded(z, depth):
    """z of shape (..., m) as a dual nested `depth` deep, seeded with the m
    unit directions at every level."""
    eye = np.broadcast_to(np.eye(z.shape[-1]), z.shape + z.shape[-1:])
    for _ in range(depth):
        z = Dual(z, eye)
    return z


def _derivative(r, depth, order, seeds):
    """The order-th derivative tensor carried by `r`, a result of inputs
    seeded `depth` deep: one seed axis per order, innermost level last."""
    for _ in range(depth - order):
        r = r.v if isinstance(r, Dual) else r
    for _ in range(order):
        r = r.t if isinstance(r, Dual) else np.zeros(np.shape(r) + (seeds,))
    return np.array(r, dtype=float)


@dataclass
class Derivatives:
    """Derivatives of f and kappa at a batch of states X of shape (..., n)
    and inputs u of shape (...).

    `A` = df/dX is (..., n, n) and `b` = df/du (..., n); `fpu` = d2f/dudX is
    (..., n, n) with [..., i, j] = d2 f_i / du dX_j, `fuu` = d2f/du2
    (..., n) and `fpp` = d2f/dX2 (..., n, n, n).  `k1`, `k2` and `k3` are
    the gradient, Hessian and third derivative of kappa, (..., n) to
    (..., n, n, n).  Entries above the order asked for are None.
    """

    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    fpu: Optional[np.ndarray] = None
    fuu: Optional[np.ndarray] = None
    fpp: Optional[np.ndarray] = None
    k1: Optional[np.ndarray] = None
    k2: Optional[np.ndarray] = None
    k3: Optional[np.ndarray] = None


def derivatives(model, controller, X, u, order=1):
    """Derivatives of `model.f` at (X, u) and of `controller.kappa` at X, by
    nested duals: f up to order min(order, 2), kappa up to `order` (1 to
    3).  With `controller` None, kappa is not evaluated."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    u = np.broadcast_to(np.asarray(u, dtype=float), X.shape[:-1])
    z = np.concatenate([X, u[..., None]], axis=-1)
    depth = min(order, 2)
    zs = _seeded(z, depth)
    r = model.f(zs[..., :n], zs[..., n])
    J = _derivative(r, depth, 1, n + 1)
    out = Derivatives(f=_derivative(r, depth, 0, n + 1), A=J[..., :n],
                      b=J[..., n])
    if depth > 1:
        H = _derivative(r, depth, 2, n + 1)
        out.fpp, out.fpu, out.fuu = H[..., :n, :n], H[..., :n, n], H[..., n, n]
    if controller is not None:
        r = controller.kappa(_seeded(X, order))
        out.k1, out.k2, out.k3 = (_derivative(r, order, k, n)
                                  if k <= order else None
                                  for k in range(1, 4))
    return out
