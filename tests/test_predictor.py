import warnings

import numpy as np
import pytest

from delaycomp import GridProfile, compute_predictor, \
    compute_transition_field, forcing_integral, grid_nodes, make_plant, \
    predictor_spatial_derivative, snapshot_kernels
from delaycomp.errors import BlowUpError, IllConditionedTransitionError, \
    UsageError
from delaycomp.grid import HalfGridProfile
from delaycomp.predictor import TransitionField, _half_grid_values, _march
from conftest import make_slice


def constant_profile(value, m=100):
    return HalfGridProfile(np.full(2 * m + 1, float(value)))


def half_grid_samples(fn, m):
    """Samples of fn at the nodes and midpoints of the M-interval grid."""
    return HalfGridProfile(fn(np.linspace(0.0, 1.0, 2 * m + 1)))


def test_linear_predictor_closed_form():
    a, b, k = 1.0, 1.0, 2.0
    bundle = make_plant("linear", a=a, b=b, k=k)
    dhat, X0, u0, m = 0.45, 0.8, 0.3, 200
    phat = compute_predictor(bundle.model, [X0], constant_profile(u0, m), dhat)
    x = grid_nodes(m)
    exact = np.exp(a * dhat * x) * X0 \
        + (b * u0 / a) * (np.exp(a * dhat * x) - 1.0)
    assert np.max(np.abs(phat.values[:, 0] - exact)) < 1e-10


def test_integrator_predictor_accumulates_input():
    bundle = make_plant("integrator")
    m, dhat = 100, 0.6
    x = grid_nodes(m)
    uhat = half_grid_samples(lambda s: s ** 2, m)
    phat = compute_predictor(bundle.model, [0.5], uhat, dhat)
    exact = 0.5 + dhat * x ** 3 / 3.0
    assert np.max(np.abs(phat.values[:, 0] - exact)) < 1e-12


def test_predictor_spatial_derivative_is_marched_equation():
    bundle = make_plant("cubic")
    uhat = half_grid_samples(lambda s: 0.3 * np.sin(2.0 * s), 64)
    phat = compute_predictor(bundle.model, [0.7], uhat, 0.5)
    px = predictor_spatial_derivative(bundle.model, phat, uhat.nodes, 0.5)
    expect = 0.5 * (-phat.values[:, 0] ** 3 + uhat.nodes.values)
    assert np.allclose(px.values[:, 0], expect, atol=1e-14)


def test_predictor_rejects_nonpositive_delay():
    bundle = make_plant("linear")
    with pytest.raises(UsageError):
        compute_predictor(bundle.model, [1.0], constant_profile(0.0), 0.0)


def test_predictor_blowup_detected():
    bundle = make_plant("linear", a=50.0, b=1.0, k=2.0)
    with pytest.raises(BlowUpError) as exc:
        compute_predictor(bundle.model, [1e7], constant_profile(0.0), 1.0)
    # p = 1e7 exp(50 x) first exceeds the limit 1e8 at the node x = 0.05
    assert exc.value.x == pytest.approx(0.05)
    assert "x=0.0500" in str(exc.value)


def test_diverging_march_raises_without_runtime_warnings():
    bundle = make_plant("cubic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as exc:
            compute_predictor(bundle.model, [1e7], constant_profile(0.0),
                              1.0)
    assert exc.value.x == pytest.approx(0.01)


def test_node_profile_gets_four_point_midpoints():
    bundle = make_plant("cubic")
    nodes = GridProfile(0.3 * np.sin(2.0 * grid_nodes(40)))
    from_nodes = compute_predictor(bundle.model, [0.7], nodes, 0.5)
    from_half = compute_predictor(
        bundle.model, [0.7], HalfGridProfile(_half_grid_values(nodes)), 0.5)
    assert np.array_equal(from_nodes.values, from_half.values)


def test_half_grid_profile_shape_checks():
    with pytest.raises(UsageError):
        HalfGridProfile(np.zeros(40))
    with pytest.raises(UsageError):
        HalfGridProfile(np.zeros(15))
    prof = HalfGridProfile(np.arange(33.0))
    assert prof.num_intervals == 16
    assert np.array_equal(prof.nodes.values, np.arange(0.0, 33.0, 2.0))


def test_lockstep_march_matches_single_marches():
    # members stop at their own node, then a restart from that node
    # finishes the march: both pieces repeat a single full march exactly
    bundle = make_plant("cubic")
    m = 32
    rng = np.random.default_rng(3)
    uh = rng.uniform(-0.5, 0.5, size=(4, 2 * m + 1))
    dh = rng.uniform(0.3, 0.7, size=(4, 1))
    X = rng.uniform(-1.0, 1.0, size=(4, 1))
    stops = np.array([30, 17, 17, 0])

    def lockstep(ih, p):
        rows = p.shape[0]
        return dh[:rows] * bundle.model.f(p, uh[:rows, ih])

    head = _march(lockstep, X, m, stops=stops)
    for k in range(4):
        full = compute_predictor(bundle.model, X[k],
                                 HalfGridProfile(uh[k]), dh[k, 0]).values
        assert np.array_equal(head[:stops[k] + 1, k], full[:stops[k] + 1])

        def single(ih, p):
            return dh[k, 0] * bundle.model.f(p, uh[k, ih])

        tail = _march(single, head[stops[k], k], m, start=stops[k])
        assert np.array_equal(tail, full[stops[k]:])


def test_transition_field_linear_exponential():
    a = 1.3
    bundle = make_plant("linear", a=a, b=1.0, k=2.0)
    m, dhat = 100, 0.45
    uhat = constant_profile(0.2, m)
    phat = compute_predictor(bundle.model, [0.5], uhat, dhat)
    fld = compute_transition_field(bundle.model, phat, uhat.nodes, dhat)
    x = grid_nodes(m)
    assert np.max(np.abs(fld.matrices[:, 0, 0] - np.exp(a * dhat * x))) < 1e-10


def test_transition_semigroup_composition():
    bundle = make_plant("double_integrator")
    m = 64
    uhat = half_grid_samples(lambda s: 0.4 * np.cos(1.5 * s), m)
    phat = compute_predictor(bundle.model, [0.3, -0.2], uhat, 0.5)
    fld = compute_transition_field(bundle.model, phat, uhat.nodes, 0.5)

    def between(i, j):
        # Phi(x_i, x_j) = Phi(x_i, 0) Phi(x_j, 0)^{-1}
        return fld.matrices[i] @ np.linalg.inv(fld.matrices[j])

    lhs = between(50, 20)
    rhs = between(50, 35) @ between(35, 20)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(between(17, 17) - np.eye(2))) < 1e-12
    assert np.allclose(fld.inverses, np.linalg.inv(fld.matrices),
                       rtol=0.0, atol=1e-14)


def test_ill_conditioned_transition_rejected():
    mats = np.tile(np.eye(2), (33, 1, 1))
    mats[5] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    fld = TransitionField(matrices=mats)
    with pytest.raises(IllConditionedTransitionError):
        fld.inverses


def test_forcing_integral_matches_direct_quadrature():
    bundle = make_plant("integrator")
    m, dhat = 100, 0.6
    x = grid_nodes(m)
    uhat_h = half_grid_samples(lambda s: 0.3 * np.sin(2.0 * s) + 0.1, m)
    uhat = uhat_h.nodes
    phat = compute_predictor(bundle.model, [0.5], uhat_h, dhat)
    what_x = GridProfile(0.2 * np.cos(x))
    fld = compute_transition_field(bundle.model, phat, uhat, dhat)
    I = forcing_integral(bundle.model, bundle.controller, phat, uhat,
                         what_x, fld, dhat)
    # integrator: f = uhat, df/du = 1, dkappa/dX = -1, Phi = identity, so
    # G(y) = uhat + (y - 1)(what_x - dhat uhat) and I is its running
    # trapezoid integral
    G = uhat.values + (x - 1.0) * (what_x.values - dhat * uhat.values)
    h = 1.0 / m
    direct = np.concatenate(
        [[0.0], np.cumsum(0.5 * h * (G[1:] + G[:-1]))])
    assert np.max(np.abs(I[:, 0] - direct)) < 1e-12


def test_time_derivative_reduces_to_transport_without_forcing():
    # with D = Dhat the drift mismatch vanishes, and with Dhat_dot = 0 the
    # forcing integral drops out: phat_t = phat_x / Dhat
    bundle, snap = make_slice("cubic", [0.6], true_delay=0.45, dhat=0.45,
                              dhat_dot=0.0)
    ks = snapshot_kernels(bundle.model, bundle.controller, 0.45, snap)
    assert np.max(np.abs(ks.f_mismatch)) == 0.0
    assert np.max(np.abs(ks.phat_t - snap.phat_x / snap.dhat)) < 1e-13
