import dataclasses

import numpy as np
import pytest

from delaycomp import DelayBounds, check_derivative_consistency, \
    check_lyapunov, make_plant
from delaycomp import jets, plants
from delaycomp.errors import UsageError
from conftest import trig_plant

PLANTS = ["integrator", "linear", "cubic", "double_integrator"]


def sample_states(dim, rng):
    return [rng.uniform(-1.5, 1.5, size=dim) for _ in range(8)]


@pytest.mark.parametrize("name", PLANTS + ["trig"])
def test_analytic_derivatives_match_finite_differences(name):
    # the jets of the built-in plants, and of a plant given as f and kappa
    # alone, agree with central differences of f and kappa
    if name == "trig":
        model, ctrl = trig_plant()
    else:
        bundle = make_plant(name)
        model, ctrl = bundle.model, bundle.controller
    rng = np.random.default_rng(7)
    samples = [(X, float(rng.uniform(-1.0, 1.0)))
               for X in sample_states(model.dim, rng)]
    report = check_derivative_consistency(model, ctrl, samples)
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


# each entry of the derivative check and the jet tensor it reads
DERIVATIVES = {"df_dX": "A", "df_du": "b", "d2f_dudX": "fpu",
               "d2f_du2": "fuu", "dkappa_dX": "k1", "d2kappa_dX2": "k2"}


@pytest.mark.parametrize("name", PLANTS)
@pytest.mark.parametrize("wrong", list(DERIVATIVES))
def test_derivative_check_fails_only_the_wrong_entry(name, wrong,
                                                     monkeypatch):
    # a fault of 1e-3 in one jet tensor fails that entry and no other
    def faulty(*args, **kwargs):
        d = jets.derivatives(*args, **kwargs)
        attr = DERIVATIVES[wrong]
        setattr(d, attr, getattr(d, attr) + 1e-3)
        return d

    monkeypatch.setattr(plants, "derivatives", faulty)
    bundle = make_plant(name)
    rng = np.random.default_rng(7)
    samples = [(X, float(rng.uniform(-1.0, 1.0)))
               for X in sample_states(bundle.model.dim, rng)]
    report = check_derivative_consistency(bundle.model, bundle.controller,
                                          samples)
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


@pytest.mark.parametrize("name", PLANTS)
def test_callbacks_broadcast_over_leading_axes(name):
    # a (3, 4, n) batch of states with (3, 4) inputs: every row equals a
    # single-state call bit for bit, with the documented trailing shape
    bundle = make_plant(name)
    n = bundle.model.dim
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(3, 4, n))
    u = rng.uniform(-1.0, 1.0, size=(3, 4))
    for fn, takes_u in ((bundle.model.f, True),
                        (bundle.controller.kappa, False)):
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


def test_unknown_plant_name():
    with pytest.raises(UsageError):
        make_plant("pendulum")


def test_delay_bounds_validation():
    DelayBounds(d_lower=0.2, d_upper=1.0, true_delay=0.5)
    with pytest.raises(UsageError):
        DelayBounds(d_lower=0.6, d_upper=1.0, true_delay=0.5)
    with pytest.raises(UsageError):
        DelayBounds(d_lower=0.2, d_upper=0.4, true_delay=0.5)
