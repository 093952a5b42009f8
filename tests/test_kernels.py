import numpy as np
import pytest

from delaycomp import ControlHistory, eval_all, grid_nodes, make_plant, \
    materialize_slice, snapshot_field, snapshot_kernels
from delaycomp.grid import fd_x_wide
from delaycomp.jets import derivatives
from delaycomp.plants import Controller, PlantModel
from conftest import make_slice

PLANT_STATES = [("linear", [0.4]), ("cubic", [0.5]),
                ("double_integrator", [0.3, -0.2])]

PAIRS = [("p1", "p3"), ("p2", "p4"), ("q1", "q3"), ("q2", "q4"),
         ("q3", "q5"), ("q4", "q6")]


@pytest.fixture(scope="module")
def slices():
    out = {}
    for plant, X in PLANT_STATES:
        bundle, snap = make_slice(plant, X)
        ks = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
        out[plant] = (bundle, snap, ks)
    return out


@pytest.mark.parametrize("plant", [p for p, _ in PLANT_STATES])
@pytest.mark.parametrize("parent,child", PAIRS)
def test_derivative_pair_identities(slices, plant, parent, child):
    _, snap, ks = slices[plant]
    m = snap.num_intervals
    got = getattr(ks, child)
    expect = fd_x_wide(getattr(ks, parent), m, 1)
    tol = 50.0 / m ** 2
    assert np.max(np.abs(got - expect)) <= tol


def test_linear_q2_closed_form(slices):
    bundle, snap, ks = slices["linear"]
    a, dhat, k = 1.0, snap.dhat, 2.0
    x = grid_nodes(snap.num_intervals)
    exact = -k * dhat * np.exp(a * dhat * x)
    assert np.max(np.abs(ks.q2[:, 0] - exact)) < 1e-8


def test_linear_q4_closed_form(slices):
    bundle, snap, ks = slices["linear"]
    a, dhat, k = 1.0, snap.dhat, 2.0
    x = grid_nodes(snap.num_intervals)
    exact = -k * dhat ** 2 * a * np.exp(a * dhat * x)
    assert np.max(np.abs(ks.q4[:, 0] - exact)) < 1e-8


def test_mixed_partial_consistency(slices):
    for plant in slices:
        _, snap, ks = slices[plant]
        m = snap.num_intervals
        expect = fd_x_wide(ks.uhat_t, m, 1)
        assert np.max(np.abs(ks.uhat_xt - expect)) <= 100.0 / m ** 2


def test_equilibrium_kernels_vanish():
    bundle = make_plant("cubic")
    hist = ControlHistory(1e-3)
    for k in range(3001):
        hist.append(k * 1e-3, 0.0)
    snap = materialize_slice(bundle.model, bundle.controller, hist, 3.0,
                            [0.0], 0.6, 0.45, 0.07, -0.04, 100)
    ks = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
    for name in ("p1", "p2", "p3", "p4", "q1", "q3", "q5",
                 "uhat_t", "uhat_xt"):
        assert np.max(np.abs(getattr(ks, name))) == 0.0, name
    assert np.max(np.abs(ks.f_mismatch)) == 0.0
    assert ks.q1_t == 0.0
    assert ks.q7 == 0.0


def test_exact_delay_degeneracy():
    bundle, snap = make_slice("cubic", [0.5], true_delay=0.45, dhat=0.45)
    ks = snapshot_kernels(bundle.model, bundle.controller, 0.45, snap)
    # identical sampling delays make the two fields bitwise equal
    assert np.max(np.abs(snap.utilde)) == 0.0
    assert np.max(np.abs(ks.f_mismatch)) == 0.0
    assert np.max(np.abs(ks.f_dp)) == 0.0
    assert np.max(np.abs(ks.f_du)) == 0.0
    # with D = Dhat the mismatch prefactor of p1 is one
    fv = np.array([bundle.model.f(snap.phat[i], snap.uhat[i])[0]
                   for i in range(snap.num_intervals + 1)])
    k1 = np.array([derivatives(bundle.model, bundle.controller, snap.phat[i],
                               snap.uhat[i]).k1[0]
                   for i in range(snap.num_intervals + 1)])
    expect = snap.what_x + snap.dhat * k1 * fv
    assert np.max(np.abs(ks.p1 - expect)) < 1e-12


def test_uhat_t_pure_transport_when_estimate_frozen():
    bundle, snap = make_slice("linear", [0.4], dhat_dot=0.0)
    ks = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
    uhat_x = fd_x_wide(snap.uhat, snap.num_intervals, 1)
    assert np.max(np.abs(ks.uhat_t - uhat_x / snap.dhat)) < 1e-10


def test_kernel_cache_reused():
    bundle, snap = make_slice("linear", [0.4])
    ks1 = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
    ks2 = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
    assert ks1 is ks2
    assert snapshot_field(bundle.model, snap) is snap.field
    # another true delay rebuilds the set (p1 carries D / Dhat), and the
    # rebuilt set is cached in turn
    ks3 = snapshot_kernels(bundle.model, bundle.controller, 0.45, snap)
    assert ks3 is not ks1 and ks3.true_delay == 0.45
    np.testing.assert_allclose(ks3.p1, 0.75 * ks1.p1, rtol=1e-14, atol=0.0)
    assert snapshot_kernels(bundle.model, bundle.controller, 0.45,
                            snap) is ks3


def test_plant_given_as_f_and_kappa_has_the_builtin_kernels():
    # the cubic plant written with powers and a quotient: its kernels come
    # from the same jets, so they equal the built-in's to roundoff
    bundle, snap = make_slice("cubic", [0.5])
    ks = snapshot_kernels(bundle.model, bundle.controller, 0.6, snap)
    model = PlantModel(dim=1, f=lambda X, u: u[..., None] - X ** 3)
    ctrl = Controller(dim=1, kappa=lambda X: (2.0 * X[..., 0] ** 3
                                              - 2.0 * X[..., 0]) / 2.0)
    snap.field = snap.kernels = None
    other = snapshot_kernels(model, ctrl, 0.6, snap)
    for name in ("p1", "p2", "q1", "q2", "p3", "p4", "q3", "q4", "q5", "q6",
                 "uhat_t", "uhat_xt", "phat_t", "q1_t", "q7"):
        a, b = np.asarray(getattr(ks, name)), np.asarray(getattr(other, name))
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale, name
