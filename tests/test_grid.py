import numpy as np
import pytest

from delaycomp import GridProfile, fd_x_wide, grid_nodes
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
