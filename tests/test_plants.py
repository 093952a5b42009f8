import dataclasses

import numpy as np
import pytest

from delaycomp import DelayBounds, check_derivative_consistency, \
    check_lyapunov, make_plant
from delaycomp.errors import UsageError
from delaycomp.plants import Controller

PLANTS = ["integrator", "linear", "cubic", "double_integrator"]


def sample_states(dim, rng):
    return [rng.uniform(-1.5, 1.5, size=dim) for _ in range(8)]


@pytest.mark.parametrize("name", PLANTS)
def test_analytic_derivatives_match_finite_differences(name):
    bundle = make_plant(name)
    rng = np.random.default_rng(7)
    samples = [(X, float(rng.uniform(-1.0, 1.0)))
               for X in sample_states(bundle.model.dim, rng)]
    report = check_derivative_consistency(bundle.model, bundle.controller,
                                          samples)
    for entry in report.entries:
        assert entry.passed, f"{name}.{entry.name}: {entry.max_error}"


@pytest.mark.parametrize("name", PLANTS)
def test_controller_vanishes_at_origin(name):
    bundle = make_plant(name)
    zero = np.zeros(bundle.model.dim)
    assert bundle.controller.kappa(zero) == 0.0
    assert np.allclose(bundle.model.f(zero, 0.0), 0.0)


@pytest.mark.parametrize("name", PLANTS)
def test_lyapunov_certificate(name):
    bundle = make_plant(name)
    if bundle.certificate is None:
        pytest.skip("no certificate attached")
    rng = np.random.default_rng(3)
    report = check_lyapunov(bundle.certificate, bundle.model,
                            bundle.controller,
                            sample_states(bundle.model.dim, rng), tol=1e-9)
    for entry in report.entries:
        assert entry.passed, f"{name}.{entry.name}: {entry.max_error}"


def test_linear_without_stabilizing_gain_has_no_certificate():
    assert make_plant("linear", a=1.0, b=1.0, k=0.5).certificate is None
    assert make_plant("linear", a=1.0, b=1.0, k=2.0).certificate is not None


@pytest.mark.parametrize("name", PLANTS)
def test_batch_checks_report_the_worst_single_sample(name):
    # each check on the stacked batch reports what the worst of its
    # one-sample checks reports
    bundle = make_plant(name)
    model, ctrl, cert = bundle.model, bundle.controller, bundle.certificate
    rng = np.random.default_rng(11)
    states = sample_states(model.dim, rng)
    pairs = [(X, float(rng.uniform(-1.0, 1.0))) for X in states]
    for check, samples in (
            (lambda s: check_derivative_consistency(model, ctrl, s), pairs),
            (lambda s: check_lyapunov(cert, model, ctrl, s), states)):
        batch = check(samples).entries
        singles = [check([s]).entries for s in samples]
        for k, entry in enumerate(batch):
            worst = max(one[k].max_error for one in singles)
            assert np.isclose(entry.max_error, worst, rtol=1e-12, atol=0)


DERIVATIVES = ("df_dX", "df_du", "d2f_dudX", "d2f_du2", "dkappa_dX",
               "d2kappa_dX2")


def off_by(fn, delta):
    return lambda *args: np.asarray(fn(*args), dtype=float) + delta


@pytest.mark.parametrize("name", PLANTS)
@pytest.mark.parametrize("wrong", DERIVATIVES)
def test_derivative_check_fails_only_the_wrong_entry(name, wrong):
    bundle = make_plant(name)
    model, ctrl = bundle.model, bundle.controller
    if hasattr(model, wrong):
        model = dataclasses.replace(
            model, **{wrong: off_by(getattr(model, wrong), 1e-3)})
    else:
        ctrl = dataclasses.replace(
            ctrl, **{wrong: off_by(getattr(ctrl, wrong), 1e-3)})
    rng = np.random.default_rng(7)
    samples = [(X, float(rng.uniform(-1.0, 1.0)))
               for X in sample_states(model.dim, rng)]
    report = check_derivative_consistency(model, ctrl, samples)
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == [wrong]
    assert [e.name for e in report.entries] == list(DERIVATIVES)


CERTIFICATE_FAULTS = [("decay_rate", 4.0, "decay_inequality"),
                      ("c1", 0.25, "squeeze_bounds"),
                      ("c2", 0.25, "gradient_bound")]


@pytest.mark.parametrize("name", PLANTS)
@pytest.mark.parametrize("constant,factor,inequality", CERTIFICATE_FAULTS,
                         ids=[c for c, _, _ in CERTIFICATE_FAULTS])
def test_lyapunov_check_fails_a_wrong_constant(name, constant, factor,
                                               inequality):
    bundle = make_plant(name)
    cert = bundle.certificate
    cert = dataclasses.replace(
        cert, **{constant: factor * getattr(cert, constant)})
    rng = np.random.default_rng(3)
    report = check_lyapunov(cert, bundle.model, bundle.controller,
                            sample_states(bundle.model.dim, rng), tol=1e-9)
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == [inequality]


def test_checks_reject_a_state_of_the_wrong_shape():
    bundle = make_plant("double_integrator")
    good = np.zeros(2)
    with pytest.raises(UsageError):
        check_derivative_consistency(bundle.model, bundle.controller,
                                     [(good, 0.0), (np.zeros(3), 0.0)])
    with pytest.raises(UsageError):
        check_lyapunov(bundle.certificate, bundle.model, bundle.controller,
                       [good, np.zeros(3)])


def test_hess_fallback_matches_analytic():
    bundle = make_plant("cubic")
    X = np.array([0.7])
    analytic = bundle.model.hess_X(X, 0.2)
    stripped = bundle.model
    stripped.d2f_dX2 = None
    fd = stripped.hess_X(X, 0.2)
    assert np.max(np.abs(analytic - fd)) < 1e-6


def test_controller_third_fallback():
    bundle = make_plant("cubic")
    ctrl = bundle.controller
    stripped = Controller(dim=1, kappa=ctrl.kappa,
                          dkappa_dX=ctrl.dkappa_dX,
                          d2kappa_dX2=ctrl.d2kappa_dX2)
    fd = stripped.third(np.array([0.4]))
    assert np.max(np.abs(fd - 6.0)) < 1e-4


MODEL_CALLBACKS = ("f", "df_dX", "df_du", "d2f_dudX", "d2f_du2", "hess_X")
CONTROLLER_CALLBACKS = ("kappa", "dkappa_dX", "d2kappa_dX2", "third")


@pytest.mark.parametrize("name", PLANTS)
def test_callbacks_broadcast_over_leading_axes(name):
    # a (3, 4, n) batch of states with (3, 4) inputs: every row equals a
    # single-state call bit for bit, with the documented trailing shape
    bundle = make_plant(name)
    n = bundle.model.dim
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(3, 4, n))
    u = rng.uniform(-1.0, 1.0, size=(3, 4))
    calls = [(getattr(bundle.model, c), True) for c in MODEL_CALLBACKS] \
        + [(getattr(bundle.controller, c), False)
           for c in CONTROLLER_CALLBACKS]
    for fn, takes_u in calls:
        batch = np.asarray(fn(X, u) if takes_u else fn(X))
        for i in range(3):
            for j in range(4):
                one = np.asarray(fn(X[i, j], u[i, j]) if takes_u
                                 else fn(X[i, j]))
                assert batch.shape == (3, 4) + one.shape
                assert np.array_equal(batch[i, j], one), fn


@pytest.mark.parametrize("name", PLANTS)
def test_certificate_broadcasts_over_leading_axes(name):
    # V gives (...) and dV_dX (..., n); a row may differ from a single call
    # by the summation order of the quadratic form
    bundle = make_plant(name)
    cert, n = bundle.certificate, bundle.model.dim
    X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 4, n))
    v, dv = cert.V(X), cert.dV_dX(X)
    assert v.shape == (3, 4) and dv.shape == (3, 4, n)
    for i in range(3):
        for j in range(4):
            assert np.isclose(v[i, j], cert.V(X[i, j]), rtol=1e-14, atol=0)
            assert np.allclose(dv[i, j], cert.dV_dX(X[i, j]), rtol=1e-14,
                               atol=0)


def test_fd_fallbacks_broadcast():
    bundle = make_plant("cubic")
    model, ctrl = bundle.model, bundle.controller
    X = np.array([[0.7], [-0.3], [0.1]])
    u = np.array([0.2, 0.0, -0.5])
    model.d2f_dX2 = None
    stripped = Controller(dim=1, kappa=ctrl.kappa, dkappa_dX=ctrl.dkappa_dX,
                          d2kappa_dX2=ctrl.d2kappa_dX2)
    hess = model.hess_X(X, u)
    third = stripped.third(X)
    assert hess.shape == third.shape == (3, 1, 1, 1)
    assert np.max(np.abs(hess[:, 0, 0, 0] + 6.0 * X[:, 0])) < 1e-6
    assert np.max(np.abs(third - 6.0)) < 1e-4


def test_unknown_plant_name():
    with pytest.raises(UsageError):
        make_plant("pendulum")


def test_delay_bounds_validation():
    DelayBounds(d_lower=0.2, d_upper=1.0, true_delay=0.5)
    with pytest.raises(UsageError):
        DelayBounds(d_lower=0.6, d_upper=1.0, true_delay=0.5)
    with pytest.raises(UsageError):
        DelayBounds(d_lower=0.2, d_upper=0.4, true_delay=0.5)
