import numpy as np
import pytest

from delaycomp import ControlHistory, GridProfile, compute_predictor, \
    forward_transform, grid_nodes, inverse_transform, make_plant
from delaycomp.errors import BlowUpError, GridMismatchError, UsageError

PLANTS = ["integrator", "linear", "cubic", "double_integrator"]


def random_profile(rng, m):
    x = grid_nodes(m)
    w = np.zeros(m + 1)
    for j in range(4):
        w += rng.uniform(-1.0, 1.0) * np.sin((j + 1) * np.pi * x / 2.0
                                             + rng.uniform(0.0, np.pi))
    peak = np.max(np.abs(w))
    return GridProfile(w / peak if peak > 1.0 else w)


def test_forward_transform_definition(linear_bundle):
    m = 50
    uhat = GridProfile(0.3 * np.ones(m + 1))
    phat = GridProfile(np.linspace(0.0, 1.0, m + 1))
    w = forward_transform(linear_bundle.controller, uhat, phat)
    # linear controller kappa = -2 X, so w = uhat + 2 phat
    assert np.allclose(w.values, uhat.values + 2.0 * phat.values, atol=1e-14)


@pytest.mark.parametrize("plant", PLANTS)
def test_round_trip_identity(plant):
    bundle = make_plant(plant)
    rng = np.random.default_rng(11)
    m = 200
    for _ in range(10):
        w = random_profile(rng, m)
        X = rng.uniform(-1.0, 1.0, size=bundle.model.dim)
        dhat = rng.uniform(0.3, 0.8)
        uhat, phat = inverse_transform(bundle.model, bundle.controller,
                                       X, w, dhat)
        w_back = forward_transform(bundle.controller, uhat, phat)
        assert np.max(np.abs(w_back.values - w.values)) < 1e-8


def test_inverse_consistent_with_predictor():
    bundle = make_plant("cubic")
    m, dhat = 100, 0.5
    w = GridProfile(0.2 * np.sin(np.pi * grid_nodes(m)))
    uhat, phat = inverse_transform(bundle.model, bundle.controller,
                                   [0.4], w, dhat)
    phat2 = compute_predictor(bundle.model, [0.4], uhat, dhat)
    assert np.max(np.abs(np.squeeze(phat.values)
                     - np.squeeze(phat2.values))) < 1e-9


def test_grid_mismatch_rejected(linear_bundle):
    uhat = GridProfile(np.zeros(33))
    phat = GridProfile(np.zeros(65))
    with pytest.raises(GridMismatchError):
        forward_transform(linear_bundle.controller, uhat, phat)


def test_inverse_rejects_nonpositive_delay(linear_bundle):
    w = GridProfile(np.zeros(33))
    with pytest.raises(UsageError):
        inverse_transform(linear_bundle.model, linear_bundle.controller,
                          [1.0], w, -0.1)


def test_inverse_march_escape_raises():
    bundle = make_plant("linear", a=50.0, b=1.0, k=2.0)
    with pytest.raises(BlowUpError) as exc:
        inverse_transform(bundle.model, bundle.controller, [1e7],
                          GridProfile(np.zeros(101)), 1.0)
    # w = 0 gives p = 1e7 exp(48 x), beyond the limit 1e8 from x = 0.05
    assert exc.value.x == pytest.approx(0.05)
    assert "x=0.0500" in str(exc.value)


def test_boundary_check_zero_when_control_matches(linear_bundle):
    # the boundary identity U(t) = kappa(p(1, t)) of the control law
    m = 64
    phat = GridProfile(np.linspace(0.2, 0.9, m + 1))
    kappa = linear_bundle.controller.kappa
    target = kappa(np.array([phat.values[-1]]))
    hist = ControlHistory(0.1)
    for k in range(6):
        hist.append(0.1 * k, target)

    def gap():
        return abs(hist.sample_many(0.5) - kappa(phat.values[-1:]))

    assert gap() < 1e-14
    hist.replace_last(target + 0.25)
    assert abs(gap() - 0.25) < 1e-12
