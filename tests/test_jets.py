"""Forward-mode jets against hand derivatives and closed forms."""

import numpy as np
import pytest

from delaycomp import Controller, PlantModel, make_plant
from delaycomp.errors import UsageError
from delaycomp.jets import derivatives
from conftest import trig_plant

FIELDS = ("f", "A", "b", "fpu", "fuu", "fpp", "k1", "k2", "k3")


def constant(value, lead):
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, lead + value.shape).copy()


def hand_tables(name, X, u):
    """The derivative tables the built-in plants once carried by hand."""
    lead, n = X.shape[:-1], X.shape[-1]
    x = X[..., 0]
    zeros = {"fpu": constant(np.zeros((n, n)), lead),
             "fuu": constant(np.zeros(n), lead),
             "fpp": constant(np.zeros((n, n, n)), lead),
             "k2": constant(np.zeros((n, n)), lead),
             "k3": constant(np.zeros((n, n, n)), lead)}
    if name in ("linear", "integrator"):
        a, b, k = (1.0, 1.0, 2.0) if name == "linear" else (0.0, 1.0, 1.0)
        return dict(zeros, f=(a * x + b * u)[..., None],
                    A=constant([[a]], lead), b=constant([b], lead),
                    k1=constant([-k], lead))
    if name == "double_integrator":
        return dict(zeros, f=np.stack([X[..., 1], np.broadcast_to(u, lead)],
                                       axis=-1),
                    A=constant([[0.0, 1.0], [0.0, 0.0]], lead),
                    b=constant([0.0, 1.0], lead),
                    k1=constant([-1.0, -2.0], lead))
    return dict(zeros, f=(-(x * x * x) + u)[..., None],
                A=(-3.0 * (x * x))[..., None, None], b=constant([1.0], lead),
                fpp=(-6.0 * x)[..., None, None, None],
                k1=(3.0 * (x * x) - 1.0)[..., None],
                k2=(6.0 * x)[..., None, None],
                k3=constant([[[6.0]]], lead))


def jet_tables(bundle, X, u):
    d = derivatives(bundle.model, bundle.controller, X, u, order=3)
    return {name: getattr(d, name) for name in FIELDS}


@pytest.mark.parametrize("name", ["integrator", "linear", "cubic",
                                  "double_integrator"])
@pytest.mark.parametrize("lead", [(3, 4), ()], ids=["batch", "single"])
def test_jets_reproduce_the_hand_tables(name, lead):
    bundle = make_plant(name)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=lead + (bundle.model.dim,))
    u = rng.uniform(-1.0, 1.0, size=lead)
    hand, jet = hand_tables(name, X, u), jet_tables(bundle, X, u)
    for field in FIELDS:
        assert jet[field].shape == hand[field].shape, field
        if name == "cubic":
            np.testing.assert_allclose(jet[field], hand[field], rtol=1e-14,
                                       atol=0.0, err_msg=field)
        else:
            assert np.array_equal(jet[field], hand[field]), field


@pytest.mark.parametrize("name", ["integrator", "linear", "cubic",
                                  "double_integrator"])
def test_batch_rows_equal_single_states(name):
    bundle = make_plant(name)
    n = bundle.model.dim
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(3, 4, n))
    u = rng.uniform(-1.0, 1.0, size=(3, 4))
    batch = jet_tables(bundle, X, u)
    for i in range(3):
        for j in range(4):
            one = jet_tables(bundle, X[i, j], u[i, j])
            for field in FIELDS:
                assert batch[field].shape == (3, 4) + one[field].shape
                assert np.array_equal(batch[field][i, j], one[field]), field


def trig_tables(x0, x1, u):
    s, c, e = np.sin(x0), np.cos(x0), np.exp(x1)
    dsin = [s, c, -s, -c]  # derivatives of sin, by order
    k3 = np.empty((2, 2, 2))
    for idx in np.ndindex(2, 2, 2):
        k3[idx] = dsin[idx.count(0)] * e
    return dict(
        f=[s * x1, np.exp(x0) * u + np.cos(x1)],
        A=[[c * x1, s], [np.exp(x0) * u, -np.sin(x1)]],
        b=[0.0, np.exp(x0)],
        fpu=[[0.0, 0.0], [np.exp(x0), 0.0]],
        fuu=[0.0, 0.0],
        fpp=[[[-s * x1, c], [c, 0.0]], [[np.exp(x0) * u, 0.0],
                                         [0.0, -np.cos(x1)]]],
        k1=[c * e - 1.0, s * e],
        k2=[[-s * e, c * e], [c * e, s * e]],
        k3=k3)


def test_plant_given_as_f_and_kappa_matches_closed_forms():
    model, ctrl = trig_plant()
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.5, 1.5, size=(6, 2))
    u = rng.uniform(-1.0, 1.0, size=6)
    d = derivatives(model, ctrl, X, u, order=3)
    for i in range(6):
        exact = trig_tables(X[i, 0], X[i, 1], u[i])
        for field in FIELDS:
            np.testing.assert_allclose(getattr(d, field)[i], exact[field],
                                       rtol=1e-13, atol=1e-13, err_msg=field)


@pytest.mark.parametrize("kappa,exact", [
    # kappa and its first three derivatives at a scalar state x
    (lambda x: x ** 3, lambda x: (x ** 3, 3 * x * x, 6 * x, 6.0)),
    (lambda x: 1.0 / (1.0 + x * x) - 1.0,
     lambda x: (1.0 / (1.0 + x * x) - 1.0, -2 * x / (1 + x * x) ** 2,
                (6 * x * x - 2) / (1 + x * x) ** 3,
                24 * x * (1 - x * x) / (1 + x * x) ** 4)),
    (lambda x: x / (2.0 + x),
     lambda x: (x / (2.0 + x), 2 / (2 + x) ** 2, -4 / (2 + x) ** 3,
                12 / (2 + x) ** 4)),
], ids=["power", "reciprocal", "quotient"])
def test_scalar_rules_match_closed_forms(kappa, exact):
    x = np.linspace(-1.2, 1.2, 7)
    ctrl = Controller(dim=1, kappa=lambda X: kappa(X[..., 0]))
    model = PlantModel(dim=1, f=lambda X, u: X)
    d = derivatives(model, ctrl, x[:, None], np.zeros(7), order=3)
    _, k1, k2, k3 = exact(x)
    for got, want in ((d.k1[:, 0], k1), (d.k2[:, 0, 0], k2),
                      (d.k3[:, 0, 0, 0], k3)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("f,name", [
    (lambda X, u: np.arctan(X) + u, "arctan"),
    (lambda X, u: np.sum(X, axis=-1, keepdims=True) + u, "sum"),
    (lambda X, u: np.asarray(X) + u, "asarray"),
])
def test_unsupported_operation_is_named(f, name):
    model = PlantModel(dim=1, f=f)
    with pytest.raises(UsageError, match=name):
        derivatives(model, None, np.array([[0.3]]), np.array([0.1]))
