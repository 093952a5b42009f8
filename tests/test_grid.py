import numpy as np
import pytest

from delaycomp import ControlHistory, GridProfile, fd_x_wide, grid_nodes
from delaycomp.errors import UsageError


def test_grid_nodes_span_unit_interval():
    x = grid_nodes(50)
    assert x.shape == (51,)
    assert x[0] == 0.0
    assert x[-1] == 1.0
    assert np.allclose(np.diff(x), 1.0 / 50)


def test_spatial_derivative_is_linear():
    x = grid_nodes(64)
    f = np.sin(2.0 * x)
    g = np.cos(3.0 * x)
    for order in (1, 2, 3):
        lhs = fd_x_wide(2.0 * f - 0.5 * g, 64, order)
        rhs = 2.0 * fd_x_wide(f, 64, order) - 0.5 * fd_x_wide(g, 64, order)
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * 64.0 ** order)


def test_profile_rejects_tiny_grid():
    with pytest.raises(UsageError):
        GridProfile(np.zeros(5))


def test_profile_rejects_non_finite():
    vals = np.zeros(33)
    vals[7] = np.nan
    with pytest.raises(UsageError):
        GridProfile(vals)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fd_x_wide_exact_on_quartic(order):
    m = 64
    x = grid_nodes(m)
    c = [0.3, -1.2, 0.7, 0.4, -0.9]
    v = sum(ci * x ** i for i, ci in enumerate(c))
    exact = [
        None,
        c[1] + 2 * c[2] * x + 3 * c[3] * x ** 2 + 4 * c[4] * x ** 3,
        2 * c[2] + 6 * c[3] * x + 12 * c[4] * x ** 2,
        6 * c[3] + 24 * c[4] * x,
    ][order]
    d = fd_x_wide(v, m, order)
    assert np.max(np.abs(d - exact)) <= 1e-6 * float(m) ** order * 1e-10 + 1e-7


@pytest.mark.parametrize("order,expected", [(1, 4.0), (2, 3.0), (3, 2.0)])
def test_fd_x_wide_convergence_order(order, expected):
    errs = []
    ms = [32, 64, 128]
    for m in ms:
        x = grid_nodes(m)
        v = np.sin(3.0 * x + 0.4)
        exact = (3.0 ** order) * np.sin(3.0 * x + 0.4 + order * np.pi / 2.0)
        errs.append(np.max(np.abs(fd_x_wide(v, m, order) - exact)))
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert abs(-slope - expected) < 0.25


def test_fd_x_wide_rejects_unknown_order():
    with pytest.raises(UsageError):
        fd_x_wide(np.zeros(33), 32, 4)


def test_fd_x_wide_vector_valued():
    m = 32
    x = grid_nodes(m)
    v = np.stack([x ** 2, np.ones_like(x)], axis=1)
    d = fd_x_wide(v, m, 1)
    assert np.allclose(d[:, 0], 2.0 * x, atol=1e-9)
    assert np.allclose(d[:, 1], 0.0, atol=1e-9)


# -- the four-point interpolation rule in space --------------------------------

def _cubic(x):
    return 0.3 - 1.2 * x + 2.5 * x ** 2 - 1.7 * x ** 3


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_interpolant_reproduces_cubics(vector):
    m = 16
    x = grid_nodes(m)
    values = _cubic(x)
    if vector:
        values = np.stack([values, 2.0 - 0.5 * x ** 3], axis=1)
    # dense points, the two end intervals included
    xq = np.concatenate([np.linspace(0.0, 1.0, 401),
                         np.linspace(0.0, 1.0 / m, 17),
                         np.linspace(1.0 - 1.0 / m, 1.0, 17)])
    got = GridProfile(values).interpolant()(xq)
    expect = _cubic(xq)
    if vector:
        expect = np.stack([expect, 2.0 - 0.5 * xq ** 3], axis=1)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) < 1e-13


def test_interpolant_midpoint_error_fourth_order():
    def fn(x):
        return np.sin(3.0 * x) + 0.5 * np.cos(7.0 * x)

    errs = []
    for m in (16, 32, 64, 128):
        mid = grid_nodes(m)[:-1] + 0.5 / m
        got = GridProfile(fn(grid_nodes(m))).interpolant()(mid)
        errs.append(float(np.max(np.abs(got - fn(mid)))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(12.0 < r < 20.0 for r in ratios), ratios


def test_interpolant_is_the_history_rule():
    # node values recorded as a signal at step 1/M are interpolated alike
    m = 24
    values = np.sin(3.0 * grid_nodes(m)) + 0.2
    hist = ControlHistory(1.0 / m)
    for i, v in enumerate(values):
        hist.append(i / m, v)
    xq = np.linspace(0.0, 1.0, 97)
    got = GridProfile(values).interpolant()(xq)
    assert np.max(np.abs(got - hist.sample_many(xq))) < 1e-14
