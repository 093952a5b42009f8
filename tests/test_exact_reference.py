"""The closed loop against its exact solution when the estimate is exact.

With Dhat = D, predictor feedback is exact: p(1, t) = X(t + D), so
U(t) = kappa(X(t + D)) and every built-in plant has a closed-form closed
loop.  Each plant runs on a ladder M = 20 ... 160 with dt proportional to
1/M, and the errors of U, of U(0) and of X must fall at least 1.8x per
doubling of M.  The loop is first order in M today: the actuator's switch
on at t = 0 is a jump inside the predictor's window.  Run with `-s` to
see the table.
"""

import numpy as np
import pytest

from delaycomp import ScenarioConfig, run_scenario

LADDER = (20, 40, 80, 160)
HORIZON = 1.2


def _linear(t, D, X0, a=1.0, b=1.0, k=2.0):
    x0 = X0[0]
    X = np.where(t <= D, np.exp(a * t) * x0,
                 np.exp((a - b * k) * (t - D)) * np.exp(a * D) * x0)
    U = -k * np.exp((a - b * k) * t) * np.exp(a * D) * x0
    return X[:, None], U


def _cubic(t, D, X0):
    # -X^3 drift alone until t = D; after that kappa makes Xdot = -X
    x0 = X0[0]

    def state(s):
        xd = x0 / np.sqrt(1.0 + 2.0 * x0 * x0 * D)
        return np.where(s <= D, x0 / np.sqrt(1.0 + 2.0 * x0 * x0 * s),
                        xd * np.exp(-(s - D)))

    ahead = state(t + D)
    return state(t)[:, None], ahead ** 3 - ahead


def _double_integrator(t, D, X0):
    # A and A - BK + I are nilpotent, so e^{AD} = I + AD and
    # e^{(A - BK)s} = e^{-s} (I + s (A - BK + I))
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    N = np.array([[1.0, 1.0], [-1.0, -1.0]])
    K = np.array([1.0, 2.0])
    X0 = np.asarray(X0)
    XD = X0 + D * (A @ X0)

    def state(s):
        s = s[:, None]
        before = X0 + s * (A @ X0)
        after = np.exp(-(s - D)) * (XD + (s - D) * (N @ XD))
        return np.where(s <= D, before, after)

    return state(t), -(state(t + D) @ K)


PLANTS = {
    # (plant, D, X0, dt * M, closed form)
    "linear": ("linear", 0.5, (1.0,), 0.25, _linear),
    "cubic": ("cubic", 0.4, (1.5,), 0.2, _cubic),
    "double_integrator": ("double_integrator", 0.5, (1.0, -0.5), 0.25,
                          _double_integrator),
}


def _errors(name, m):
    plant, D, X0, dtm, exact = PLANTS[name]
    params = dict(a=1.0, b=1.0, k=2.0) if plant == "linear" else {}
    cfg = ScenarioConfig(plant=plant, plant_params=params, X0=X0,
                         true_delay=D, schedule_kind="constant",
                         schedule_params=dict(value=D), num_intervals=m,
                         dt=dtm / m, horizon=HORIZON, stride=10 ** 6)
    res = run_scenario(cfg)
    X, U = exact(res.times, D, X0)
    return (float(np.max(np.abs(res.controls - U))),
            abs(float(res.controls[0] - U[0])),
            float(np.max(np.abs(res.states - X))))


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_errors_fall_first_order_against_the_exact_loop(name):
    rows = [_errors(name, m) for m in LADDER]
    labels = ("max|U - U_exact|", "|U(0) - U_exact(0)|", "max|X - X_exact|")
    print(f"\n{name}: M " + " ".join(f"{m:>9d}" for m in LADDER))
    for i, label in enumerate(labels):
        errs = [r[i] for r in rows]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        print(f"  {label:20s} " + " ".join(f"{e:9.2e}" for e in errs)
              + "   ratios " + " ".join(f"{q:.2f}" for q in ratios))
        assert all(q >= 1.8 for q in ratios), (label, ratios)
