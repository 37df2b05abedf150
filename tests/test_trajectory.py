"""Rollout, total cost, and linearized rollout."""

import math
from dataclasses import replace

import numpy as np
import pytest

from trajopt import (BackwardSolution, DimensionError, DivergenceError,
                     LinearModel, PendulumModel, QuadraticCost, backward_for,
                     backward_ilqr, expand_along, linear_rollout, make_benchmark,
                     rollout, total_cost, verify_equivalence)
from trajopt.artifacts import write_trajectory_csv
from trajopt.backward import SWEEPS
from trajopt.linesearch import ALPHAS
from trajopt.models import random_linear

from conftest import random_nominal


def _zero_gains(horizon, n, m, K=None):
    K_seq = np.zeros((horizon, m, n)) if K is None else K
    return BackwardSolution(
        v=np.zeros((horizon + 1, n)), V=np.zeros((horizon + 1, n, n)),
        k=np.zeros((horizon, m)), K=K_seq,
        quu=np.tile(np.eye(m), (horizon, 1, 1)), method="ilqr")


def test_rollout_at_equilibrium_accumulates_stage_costs():
    model = PendulumModel(damping=0.0)
    _, cost, _, _ = make_benchmark("pendulum")
    horizon = 10
    traj = rollout(model, cost, [0.0, 0.0], np.zeros((horizon, 1)))
    assert np.array_equal(traj.states, np.zeros((horizon + 1, 2)))
    expected = (horizon * cost.stage_cost([0.0, 0.0], np.zeros(1))
                + cost.terminal_cost([0.0, 0.0]))
    assert traj.cost == pytest.approx(expected, rel=1e-15)


def test_rollout_single_step_unrolled():
    model, cost, _, _ = make_benchmark("pendulum")
    x0 = np.array([0.4, -0.2])
    u0 = np.array([[0.7]])
    traj = rollout(model, cost, x0, u0)
    assert np.array_equal(traj.states[0], x0)
    assert np.array_equal(traj.states[1], model.step(x0, u0[0]))
    expected = cost.stage_cost(x0, u0[0]) + cost.terminal_cost(traj.states[1])
    assert traj.cost == pytest.approx(expected, rel=1e-15)


def test_rollout_matches_hand_euler_step():
    model = PendulumModel(damping=0.0)
    _, cost, _, _ = make_benchmark("pendulum")
    traj = rollout(model, cost, [np.pi / 2, 0.0], np.zeros((3, 1)))
    assert np.allclose(traj.states[1], [np.pi / 2, -0.4905], atol=1e-12)


def test_rollout_divergence_names_timestep():
    model = LinearModel(3.0 * np.eye(1), np.zeros((1, 1)))
    cost = QuadraticCost(np.eye(1), np.eye(1), np.eye(1), np.zeros(1))
    with pytest.raises(DivergenceError) as excinfo:
        rollout(model, cost, [1.0], np.zeros((30, 1)))
    # states grow as 3^t and first cross 1e8 at t = 17
    assert excinfo.value.timestep == 17


def test_rollout_divergence_guard_is_a_closed_bound():
    # x' = u: a state of exactly STATE_MAGNITUDE_LIMIT = 1e8 is kept, and the
    # next float above it diverges
    model = LinearModel(np.zeros((1, 1)), np.eye(1))
    cost = QuadraticCost(np.eye(1), np.eye(1), np.eye(1), np.zeros(1))
    traj = rollout(model, cost, [0.0], [[1e8], [-1e8]])
    assert traj.states[1:, 0].tolist() == [1e8, -1e8]
    with pytest.raises(DivergenceError) as excinfo:
        rollout(model, cost, [0.0], [[1e8], [np.nextafter(-1e8, -np.inf)]])
    assert excinfo.value.timestep == 2


def test_rollout_divergence_catches_a_nan_behind_a_finite_component():
    model = LinearModel(np.eye(2), np.eye(2)[:, :1])
    model._step = lambda x, u: [x[0] + 1.0, math.nan if x[0] >= 2.0 else x[1]]
    with pytest.raises(DivergenceError) as excinfo:
        rollout(model, make_benchmark("pendulum")[1], [0.0, 0.0], np.zeros((5, 1)))
    assert excinfo.value.timestep == 3  # x_3 = (3, nan)


def test_rollout_copies_the_controls():
    model, cost, x0, _ = make_benchmark("pendulum")
    controls = np.full((10, 1), 0.5)
    traj = rollout(model, cost, x0, controls)
    assert not np.shares_memory(traj.controls, controls)
    controls[:] = 3.0  # mutating the input must not change the frozen result
    assert np.all(traj.controls == 0.5)
    assert traj.cost == total_cost(cost, traj.states, traj.controls)


def test_rollout_checks_its_inputs_once():
    model, cost, x0, _ = make_benchmark("cartpole")
    calls = {"step": 0, "_step": 0}
    for name in calls:
        def counted(x, u, raw=getattr(model, name), name=name):
            calls[name] += 1
            return raw(x, u)
        setattr(model, name, counted)
    traj = rollout(model, cost, x0, np.full((10, 1), 0.5))
    assert calls == {"step": 1, "_step": 10}  # the checked first point, then raw
    assert traj.horizon == 10

    controls = np.zeros((10, 1))
    controls[7] = np.nan
    for bad_x0, bad_controls in ((x0, controls), ([0.0, np.inf, 0.0, 0.0], np.zeros((10, 1))),
                                 (x0[:3], np.zeros((10, 1))), (x0, np.zeros((10, 2)))):
        with pytest.raises(DimensionError):
            rollout(model, cost, bad_x0, bad_controls)
    assert calls == {"step": 4, "_step": 10}  # rejected before a point was stepped


def test_rollout_rejects_empty_controls():
    model, cost, x0, _ = make_benchmark("pendulum")
    with pytest.raises(DimensionError):
        rollout(model, cost, x0, np.zeros((0, 1)))


@pytest.mark.parametrize("controls", [[0.1, 0.2, 0.3], [0.0, 0.0]])
def test_rollout_takes_a_flat_control_list_as_one_control(controls):
    # a list of scalars is one control of width len(controls), not a column
    model, cost, x0, _ = make_benchmark("pendulum")
    with pytest.raises(DimensionError, match=rf"shapes \(2,\) and \({len(controls)},\)"):
        rollout(model, cost, x0, controls)
    assert rollout(model, cost, x0, [0.5]).horizon == 1


def test_total_cost_zero_at_goal():
    _, cost, _, _ = make_benchmark("pendulum")
    states = np.tile(cost.goal, (5, 1))
    controls = np.zeros((4, 1))
    assert total_cost(cost, states, controls) == 0.0


def test_total_cost_matches_extended_precision_summation():
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 60, seed=5)
    terms = [cost.stage_cost(traj.states[t], traj.controls[t])
             for t in range(traj.horizon)]
    terms.append(cost.terminal_cost(traj.states[-1]))
    reference = math.fsum(terms)
    value = total_cost(cost, traj.states, traj.controls)
    assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_total_cost_is_deterministic_under_recomputation():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 40, seed=9)
    first = total_cost(cost, traj.states, traj.controls)
    second = total_cost(cost, traj.states, traj.controls)
    assert first == second


def test_total_cost_rejects_mismatched_lengths():
    _, cost, _, _ = make_benchmark("pendulum")
    with pytest.raises(DimensionError):
        total_cost(cost, np.zeros((5, 2)), np.zeros((5, 1)))


def test_linear_rollout_zero_feedforward_is_zero_path():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 15, seed=2)
    exp = expand_along(model, cost, traj)
    rng = np.random.default_rng(0)
    sol = _zero_gains(15, 2, 1, K=rng.normal(size=(15, 1, 2)))
    dx, du = linear_rollout(exp, sol)
    assert not dx.any()
    assert not du.any()


def test_linear_rollout_alpha_zero_is_zero_path():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 15, seed=2)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    dx, du = linear_rollout(exp, replace(sol, k=0.0 * sol.k))
    assert not dx.any()
    assert not du.any()


def test_linear_rollout_feedback_identity_and_dynamics():
    # du + alpha k + K dx == 0 and dx follows the linearized dynamics
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 25, seed=7)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    for alpha in (0.25, 1.0):
        dx, du = linear_rollout(exp, replace(sol, k=alpha * sol.k))
        assert dx[0].max() == 0.0
        for t in range(25):
            residual = du[t] + alpha * sol.k[t] + sol.K[t] @ dx[t]
            assert np.max(np.abs(residual)) < 1e-12
            propagated = exp.fx[t] @ dx[t] + exp.fu[t] @ du[t]
            assert np.max(np.abs(dx[t + 1] - propagated)) < 1e-10


def test_linear_rollout_scales_linearly_in_alpha_without_feedback():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 10, seed=6)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    open_loop = type(sol)(v=sol.v, V=sol.V, k=sol.k,
                          K=np.zeros_like(sol.K), quu=sol.quu, method="ilqr")
    full_dx, full_du = linear_rollout(exp, open_loop)
    for alpha in (0.25, 0.5, 0.75):
        dx, du = linear_rollout(exp, replace(open_loop, k=alpha * open_loop.k))
        assert np.allclose(du, alpha * full_du, atol=1e-14)
        assert np.allclose(dx, alpha * full_dx, atol=1e-12)


@pytest.mark.parametrize("system", ["pendulum", "cartpole", "linear-m2"])
def test_the_path_of_each_trial_step_is_alpha_times_the_full_step(system):
    # feedback included: dx_0 = 0, so the whole path is linear in the
    # feedforward, and scaling by a power of 2 rounds nothing
    if system == "linear-m2":
        model, cost, x0 = random_linear(np.random.default_rng(1))
    else:
        model, cost, x0, _ = make_benchmark(system)
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 30, seed=8))
    for method in SWEEPS:
        sol = backward_for(method, exp)
        full_dx, full_du = linear_rollout(exp, sol)
        for alpha in ALPHAS:
            dx, du = linear_rollout(exp, replace(sol, k=alpha * sol.k))
            assert np.array_equal(dx, alpha * full_dx), (method, alpha)
            assert np.array_equal(du, alpha * full_du), (method, alpha)


def test_rollout_is_dynamically_feasible():
    for system in ("pendulum", "cartpole"):
        model, cost, x0, _ = make_benchmark(system)
        traj = random_nominal(model, cost, x0, 30, seed=13)
        for t in range(traj.horizon):
            nxt = model.step(traj.states[t], traj.controls[t])
            assert np.max(np.abs(traj.states[t + 1] - nxt)) <= 1e-12
        assert traj.cost == total_cost(cost, traj.states, traj.controls)


def test_trajectory_csv_round_trip(tmp_path):
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 5, seed=1)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj, cost)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,u0,stage_cost"
    assert len(lines) == 1 + 5 + 1
    first = lines[1].split(",")
    assert float(first[1]) == traj.states[0, 0]
    assert float(first[3]) == traj.controls[0, 0]
    last = lines[-1].split(",")
    assert last[3] == ""  # no control on the terminal row
    assert float(last[4]) == pytest.approx(cost.terminal_cost(traj.states[-1]))


def _pendulum_sweep(horizon):
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, horizon, seed=3))
    return exp, backward_ilqr(exp)


def test_linear_rollout_rejects_gains_of_another_horizon():
    exp, _ = _pendulum_sweep(6)
    _, sol = _pendulum_sweep(5)
    with pytest.raises(DimensionError, match="gain horizon does not match the expansion"):
        linear_rollout(exp, sol)


@pytest.mark.parametrize(("n", "m"), [(4, 1), (2, 2)], ids=["state", "control"])
def test_linear_rollout_rejects_gains_of_another_dimension(n, m):
    # verify_equivalence reaches the same check through linear_rollout
    exp, _ = _pendulum_sweep(6)
    sol = _zero_gains(6, n, m)
    with pytest.raises(DimensionError, match="gain dimensions do not match the expansion"):
        linear_rollout(exp, sol)
    with pytest.raises(DimensionError, match="gain dimensions do not match the expansion"):
        verify_equivalence(sol, exp)
