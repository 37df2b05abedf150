"""Forward pass, the ratio acceptance rule, and backtracking."""

import math
import warnings

import numpy as np
import pytest

from trajopt import (BackwardSolution, DimensionError, DivergenceError,
                     LinearModel, QuadraticCost, backward_ilqr,
                     cost_gradient_adjoint, directional_derivative, expand_along,
                     forward_pass, line_search, make_benchmark, rollout)
from trajopt import linesearch
from trajopt.kkt import assemble_qp, solve_kkt
from trajopt.linesearch import ALPHAS, SIGMA
from trajopt.models import SystemModel

from conftest import random_nominal


def _gains(k, K, horizon, n, m):
    return BackwardSolution(
        v=np.zeros((horizon + 1, n)), V=np.zeros((horizon + 1, n, n)),
        k=np.asarray(k, float).reshape(horizon, m),
        K=np.asarray(K, float).reshape(horizon, m, n),
        quu=np.tile(np.eye(m), (horizon, 1, 1)), method="ilqr")


def test_forward_pass_alpha_zero_reproduces_nominal():
    model, cost, x0, _ = make_benchmark("pendulum")
    nominal = random_nominal(model, cost, x0, 12, seed=0)
    rng = np.random.default_rng(1)
    sol = _gains(rng.normal(size=(12, 1)), rng.normal(size=(12, 1, 2)), 12, 2, 1)
    out = forward_pass(model, cost, nominal, sol, 0.0)
    assert np.array_equal(out.states, nominal.states)
    assert np.array_equal(out.controls, nominal.controls)


def test_forward_pass_zero_feedforward_reproduces_nominal():
    model, cost, x0, _ = make_benchmark("cartpole")
    nominal = random_nominal(model, cost, x0, 10, seed=5)
    rng = np.random.default_rng(2)
    sol = _gains(np.zeros((10, 1)), rng.normal(size=(10, 1, 4)), 10, 4, 1)
    out = forward_pass(model, cost, nominal, sol, 1.0)
    assert np.array_equal(out.states, nominal.states)
    assert np.array_equal(out.controls, nominal.controls)


def test_forward_pass_full_step_solves_lqr(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    nominal = random_nominal(model, cost, x0, horizon, seed=3)
    exp = expand_along(model, cost, nominal)
    sol = backward_ilqr(exp)
    out = forward_pass(model, cost, nominal, sol, 1.0)
    du = solve_kkt(assemble_qp(exp)).du
    optimum = rollout(model, cost, x0, nominal.controls + du)
    assert out.cost == pytest.approx(optimum.cost, rel=1e-12)


def _one_step(j_old, j_new):
    """One step of x' = u priced J = u^2: the nominal costs j_old and the
    full step (alpha = 1) costs j_new."""
    model = LinearModel(np.zeros((1, 1)), np.eye(1))
    cost = QuadraticCost(np.zeros((1, 1)), 2.0 * np.eye(1), np.zeros((1, 1)),
                         np.zeros(1))
    u_old, u_new = math.sqrt(j_old), math.sqrt(j_new)
    nominal = rollout(model, cost, [0.0], [[u_old]])
    return model, cost, nominal, _gains([[u_old - u_new]], [[0.0]], 1, 1, 1)


def _first_trial(j_old, j_new, slope):
    model, cost, nominal, sol = _one_step(j_old, j_new)
    outcome = line_search(model, cost, nominal, sol, slope)
    alpha, j_candidate, ratio = outcome.trial_log[0]
    assert alpha == 1.0
    assert j_candidate == pytest.approx(j_new, rel=1e-14)
    return outcome, ratio


def test_accept_perfectly_linear_decrease():
    outcome, ratio = _first_trial(j_old=10.0, j_new=9.0, slope=-1.0)
    assert ratio == pytest.approx(1.0, rel=1e-12)
    assert outcome.status == "OK"
    assert outcome.alpha == 1.0
    assert len(outcome.trial_log) == 1


def test_accept_rejects_cost_increase():
    outcome, ratio = _first_trial(j_old=10.0, j_new=11.0, slope=-1.0)
    assert ratio < 0.0
    assert outcome.alpha != 1.0


def test_accept_hand_ratio_case():
    # realized -0.5 against predicted -10 at alpha 1: ratio 0.05 < SIGMA
    outcome, ratio = _first_trial(j_old=1.0, j_new=0.5, slope=-10.0)
    assert ratio == pytest.approx(0.05, rel=1e-12)
    assert outcome.alpha != 1.0


def test_accept_rejects_a_ratio_of_exactly_sigma():
    # realized -0.75 against predicted -7.5 at alpha 1: the ratio rounds to
    # SIGMA itself, and acceptance needs strictly more
    outcome, ratio = _first_trial(j_old=1.0, j_new=0.25, slope=-7.5)
    assert ratio == SIGMA
    assert outcome.alpha == 0.5


def _assert_refused(outcome, nominal):
    """A NON_DESCENT outcome: the nominal at alpha = 0, with no trial run."""
    assert (outcome.status, outcome.alpha) == ("NON_DESCENT", 0.0)
    assert outcome.trajectory is nominal
    assert (outcome.trial_log, outcome.steps) == ((), 0)


def test_accept_raises_on_nondescent_prediction():
    model, cost, nominal, sol = _one_step(j_old=1.0, j_new=0.5)
    forward_steps = []
    model._step = lambda x, u: forward_steps.append((x, u))  # every point ends here
    for slope in (0.0, 1.0):
        _assert_refused(line_search(model, cost, nominal, sol, slope), nominal)
    assert forward_steps == []  # refused before any forward pass
    # no step lets the ratio test divide by zero
    assert min(ALPHAS) > 0.0


class _StiffScalarModel(SystemModel):
    """x' = x + u + 3u^2: strong curvature so large steps overshoot."""

    state_dim = 1
    control_dim = 1
    dt = 1.0

    def __init__(self):
        self.state_low = -np.ones(1)
        self.state_high = np.ones(1)
        self.control_low = -np.ones(1)
        self.control_high = np.ones(1)

    def _step(self, x, u):
        return [x[0] + u[0] + 3.0 * u[0] ** 2]

    def _derivatives(self, x, u):
        batch = x.shape[:-1]
        fu = (1.0 + 6.0 * u)[..., None]
        return (np.ones(batch + (1, 1)), fu,
                np.zeros(batch + (1, 1, 1)), np.zeros(batch + (1, 1, 1)))


def _stiff_setup():
    model = _StiffScalarModel()
    cost = QuadraticCost(np.zeros((1, 1)), 1e-12 * np.eye(1), np.eye(1),
                         np.zeros(1))
    nominal = rollout(model, cost, [1.0], np.zeros((1, 1)))
    exp = expand_along(model, cost, nominal)
    grad = cost_gradient_adjoint(exp)
    return model, cost, nominal, exp, grad


def test_line_search_backtracks_twice_on_stiff_curvature():
    # J(alpha) = 0.5 (1 - alpha + 3 alpha^2)^2: the ratio test fails at
    # alpha in {1, 0.5} and first passes at alpha = 0.25.
    model, cost, nominal, exp, grad = _stiff_setup()
    sol = _gains([[1.0]], [[0.0]], 1, 1, 1)
    outcome = line_search(model, cost, nominal, sol,
                          directional_derivative(exp, sol, grad))
    assert outcome.status == "OK"
    assert outcome.alpha == pytest.approx(0.25)
    assert len(outcome.trial_log) == 3
    alphas = [row[0] for row in outcome.trial_log]
    assert alphas == sorted(alphas, reverse=True)


def test_forward_pass_raises_divergence_naming_the_timestep():
    model, cost, _, _, _ = _stiff_setup()
    nominal = rollout(model, cost, [1.0], np.zeros((3, 1)))
    # u_1 = -1e4 sends x_2 = 1 - 1e4 + 3e8 past the guard; x_1 stays at 1
    sol = _gains([[0.0], [1e4], [0.0]], np.zeros(3), 3, 1, 1)
    with pytest.raises(DivergenceError) as excinfo:
        forward_pass(model, cost, nominal, sol, 1.0)
    assert excinfo.value.timestep == 2


def test_line_search_logs_a_diverged_trial_and_backtracks():
    # The full step overshoots to x = 1 - 1e4 + 3e8, past the guard; every
    # shorter step stays finite, and the ratio test first passes once
    # alpha k has shrunk to about 0.15.
    model, cost, nominal, exp, grad = _stiff_setup()
    sol = _gains([[1e4]], [[0.0]], 1, 1, 1)
    outcome = line_search(model, cost, nominal, sol,
                          directional_derivative(exp, sol, grad))
    alpha, j_candidate, ratio = outcome.trial_log[0]
    assert alpha == 1.0
    assert j_candidate == math.inf
    assert math.isnan(ratio)
    assert all(math.isfinite(row[1]) for row in outcome.trial_log[1:])
    assert outcome.status == "OK"
    assert 0.0 < outcome.alpha < 1.0
    assert outcome.alpha == outcome.trial_log[-1][0]
    assert outcome.alpha == 0.5 ** (len(outcome.trial_log) - 1)  # one trial per halving
    assert outcome.steps == len(outcome.trial_log)  # T = 1, and the overshoot is x_1
    assert outcome.trajectory.cost < nominal.cost


def _overflowing_feedback():
    """x' = x + u over two steps from x = 0 with k_0 = -2 and K_t = 1e308: at
    alpha = 1, x_1 = 2 and the feedback control u_1 = -1e308 * 2 overflows."""
    model = LinearModel([[1.0]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1), np.eye(1), np.zeros(1))
    nominal = rollout(model, cost, [0.0], np.zeros((2, 1)))
    return model, cost, nominal, _gains([[-2.0], [0.0]], np.full(2, 1e308), 2, 1, 1)


def test_forward_pass_turns_an_overflowing_control_into_divergence():
    model, cost, nominal, sol = _overflowing_feedback()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as excinfo:
            forward_pass(model, cost, nominal, sol, 1.0)
    assert excinfo.value.timestep == 2


def test_forward_pass_turns_an_overflowing_sum_into_divergence_at_m2():
    # x' = x + u with n = m = 2 from x = 0: at alpha = 1, x_1 = (1, 1), and
    # each row of K_1 = 1e308 sums two finite products 1e308 to inf, so u_1
    # overflows only through the accumulation; x_2 fails the guard
    model = LinearModel(np.eye(2), np.eye(2))
    cost = QuadraticCost(np.eye(2), np.eye(2), np.eye(2), np.zeros(2))
    nominal = rollout(model, cost, np.zeros(2), np.zeros((2, 2)))
    sol = _gains(-np.ones((2, 2)), np.full((2, 2, 2), 1e308), 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as excinfo:
            forward_pass(model, cost, nominal, sol, 1.0)
    assert excinfo.value.timestep == 2


def test_line_search_logs_an_overflowing_control_as_a_diverged_trial(monkeypatch):
    # at alpha = 0.5, u_1 = -1e308 stays finite and x_2 fails the guard
    model, cost, nominal, sol = _overflowing_feedback()
    monkeypatch.setattr(linesearch, "ALPHAS", (1.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = line_search(model, cost, nominal, sol, -1.0)
    assert [row[:2] for row in outcome.trial_log] == [(1.0, math.inf), (0.5, math.inf)]
    assert all(math.isnan(row[2]) for row in outcome.trial_log)
    assert (outcome.status, outcome.trajectory) == ("FLOOR_HIT", nominal)
    assert outcome.steps == 4  # each trial stepped x_1 and x_2


def test_line_search_accepts_full_step_on_quadratic(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    nominal = random_nominal(model, cost, x0, horizon, seed=8)
    exp = expand_along(model, cost, nominal)
    sol = backward_ilqr(exp)
    grad = cost_gradient_adjoint(exp)
    outcome = line_search(model, cost, nominal, sol,
                          directional_derivative(exp, sol, grad))
    assert outcome.status == "OK"
    assert outcome.alpha == 1.0
    assert len(outcome.trial_log) == 1
    assert outcome.steps == horizon


def test_line_search_raises_on_nondescent_direction():
    model, cost, nominal, exp, _ = _stiff_setup()
    sol = _gains([[-1.0]], [[0.0]], 1, 1, 1)  # points uphill
    grad = cost_gradient_adjoint(exp)
    _assert_refused(line_search(model, cost, nominal, sol,
                                directional_derivative(exp, sol, grad)),
                    nominal)


def test_line_search_floor_hit_returns_nominal_unchanged():
    # A direction whose true cost increases at every step length, paired with
    # a descent-sign prediction, exhausts the backtracking floor.
    model, cost, nominal, exp, _ = _stiff_setup()
    sol = _gains([[-1.0]], [[0.0]], 1, 1, 1)
    fake_grad = np.array([[-1.0]])  # claims descent along the uphill direction
    outcome = line_search(model, cost, nominal, sol,
                          directional_derivative(exp, sol, fake_grad))
    assert outcome.status == "FLOOR_HIT"
    assert outcome.alpha == 0.0
    assert outcome.trajectory is nominal
    # every step of ALPHAS was tried: 0.5^j for j = 0..26, the last not below 1e-8
    assert [row[0] for row in outcome.trial_log] == [0.5 ** j for j in range(27)]


def test_line_search_tries_the_floor_itself(monkeypatch):
    # the last step of ALPHAS is tried before the search gives up
    model, cost, nominal, exp, _ = _stiff_setup()
    sol = _gains([[-1.0]], [[0.0]], 1, 1, 1)
    monkeypatch.setattr(linesearch, "ALPHAS", (1.0, 0.5, 0.25))
    outcome = line_search(model, cost, nominal, sol,
                          directional_derivative(exp, sol, np.array([[-1.0]])))
    assert outcome.status == "FLOOR_HIT"
    assert [row[0] for row in outcome.trial_log] == [1.0, 0.5, 0.25]


def test_line_search_refuses_a_nan_slope_before_any_forward_pass(monkeypatch):
    # NaN compares false both ways: only `not slope < 0` refuses it, where
    # `slope >= 0` would backtrack to the floor on 27 trials
    model, cost, x0, _ = make_benchmark("pendulum")
    nominal = random_nominal(model, cost, x0, 20, seed=0)
    sol = backward_ilqr(expand_along(model, cost, nominal))
    calls = []
    monkeypatch.setattr(linesearch, "forward_pass", lambda *args: calls.append(args))
    _assert_refused(line_search(model, cost, nominal, sol, math.nan), nominal)
    assert calls == []


def test_accepted_outcomes_strictly_decrease_cost():
    model, cost, x0, _ = make_benchmark("pendulum")
    for seed in range(10):
        nominal = random_nominal(model, cost, x0, 40, seed=seed)
        exp = expand_along(model, cost, nominal)
        sol = backward_ilqr(exp)
        grad = cost_gradient_adjoint(exp)
        outcome = line_search(model, cost, nominal, sol,
                              directional_derivative(exp, sol, grad))
        assert outcome.status == "OK"
        assert outcome.trajectory.cost < nominal.cost


@pytest.mark.parametrize(("alpha", "gain_horizon", "message"), [
    (-0.1, 8, r"alpha must be in \[0, 1\]"),
    (1.5, 8, r"alpha must be in \[0, 1\]"),
    (math.nan, 8, r"alpha must be in \[0, 1\]"),
    (1.0, 7, "gain horizon does not match the nominal"),
])
def test_forward_pass_rejects_bad_inputs(alpha, gain_horizon, message):
    model, cost, x0, _ = make_benchmark("pendulum")
    nominal = random_nominal(model, cost, x0, 8, seed=4)
    sol = _gains(np.zeros(gain_horizon), np.zeros((gain_horizon, 2)), gain_horizon, 2, 1)
    # a step outside [0, 1] is a bad value, gains of another horizon a bad shape
    error = ValueError if gain_horizon == nominal.horizon else DimensionError
    with pytest.raises(error, match=message):
        forward_pass(model, cost, nominal, sol, alpha)


@pytest.mark.parametrize(("system", "n", "m"), [
    ("pendulum", 4, 1), ("cartpole", 2, 1), ("pendulum", 2, 2)],
    ids=["cartpole-gains-on-pendulum", "pendulum-gains-on-cartpole", "two-input-gains"])
def test_forward_pass_rejects_gains_of_another_dimension(system, n, m):
    # _feedback zips a gain row with the state: a check must catch a
    # mismatch before the zip truncates it into a trajectory
    model, cost, x0, _ = make_benchmark(system)
    nominal = random_nominal(model, cost, x0, 8, seed=4)
    sol = _gains(np.zeros(8 * m), np.zeros(8 * m * n), 8, n, m)
    with pytest.raises(DimensionError, match="gain dimensions do not match the nominal"):
        forward_pass(model, cost, nominal, sol, 1.0)
    with pytest.raises(DimensionError, match="gain dimensions do not match the nominal"):
        line_search(model, cost, nominal, sol, -1.0)
