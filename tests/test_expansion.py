"""The per-trajectory local model and the adjoint gradient."""

import numpy as np
import pytest

from trajopt import (DimensionError, LinearModel, PendulumModel, QuadraticCost,
                     TrajoptError, Trajectory, cost_gradient_adjoint,
                     expand_along, make_benchmark, rollout)
from trajopt.kkt import assemble_qp, solve_kkt, split_primal

from conftest import random_nominal


def test_linear_quadratic_expansion_is_constant():
    a = np.array([[1.0, 0.2], [0.0, 0.95]])
    b = np.array([[0.0], [0.8]])
    model = LinearModel(a, b)
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    traj = random_nominal(model, cost, np.array([0.5, 0.1]), 12, seed=4)
    exp = expand_along(model, cost, traj)
    for t in range(12):
        assert np.array_equal(exp.fx[t], a)
        assert np.array_equal(exp.fu[t], b)
    assert not exp.fxx.any()
    assert not exp.fxu.any()


def test_equilibrium_nominal_at_cost_minimum_has_zero_gradients():
    # down equilibrium with the goal placed on it: the nominal is exactly
    # stationary, so every cost gradient vanishes identically
    model = PendulumModel(damping=0.0)
    cost = QuadraticCost(np.diag([1.0, 0.1]), 0.1 * np.eye(1),
                         np.diag([100.0, 10.0]), goal=np.zeros(2))
    traj = rollout(model, cost, np.zeros(2), np.zeros((8, 1)))
    exp = expand_along(model, cost, traj)
    assert not exp.lx.any()
    assert not exp.ru.any()
    assert not exp.ct_x.any()


def _two_input_linear():
    rng = np.random.default_rng(5)
    model = LinearModel(np.eye(3) + 0.1 * rng.normal(size=(3, 3)),
                        rng.normal(size=(3, 2)))
    cost = QuadraticCost(np.eye(3), np.diag([0.1, 0.3]), 10.0 * np.eye(3),
                         np.ones(3))
    return model, cost, np.ones(3)


@pytest.mark.parametrize("instance", [
    lambda: make_benchmark("pendulum")[:3],
    lambda: make_benchmark("cartpole")[:3],
    _two_input_linear,
], ids=["pendulum", "cartpole", "linear_m2"])
def test_expansion_matches_pointwise_model_calls(instance):
    # the batched expansion is the per-point model and cost calls, stage by stage
    model, cost, x0 = instance()
    traj = random_nominal(model, cost, x0, 20, seed=8)
    exp = expand_along(model, cost, traj)
    for t in range(20):
        fx, fu, fxx, fxu = model.derivatives(traj.states[t], traj.controls[t])
        assert np.array_equal(exp.fx[t], fx)
        assert np.array_equal(exp.fu[t], fu)
        assert np.array_equal(exp.fxx[t], fxx)
        assert np.array_equal(exp.fxu[t], fxu)
        lx, lxx, ru, r = cost.stage_derivatives(traj.states[t], traj.controls[t])
        assert np.array_equal(exp.lx[t], lx)
        assert np.array_equal(exp.lxx[t], lxx)
        assert np.array_equal(exp.ru[t], ru)
        assert np.array_equal(exp.r, r)
    ct_x, ct_xx = cost.terminal_derivatives(traj.states[-1])
    assert np.array_equal(exp.ct_x, ct_x)
    assert np.array_equal(exp.ct_xx, ct_xx)


def test_expansion_rejects_non_finite_derivatives():
    class _BrokenPendulum(PendulumModel):
        def _derivatives(self, x, u):
            # expand_along passes all stages in one batch; break stages 2 and 3
            fx, fu, fxx, fxu = super()._derivatives(x, u)
            fx[2, 0, 0] = np.inf
            fxx[3, 1, 0, 0] = np.nan
            return fx, fu, fxx, fxu

    model = _BrokenPendulum()
    _, cost, x0, _ = make_benchmark("pendulum")
    traj = rollout(model, cost, x0, np.zeros((5, 1)))
    with pytest.raises(TrajoptError, match="non-finite derivative at timestep 2$"):
        expand_along(model, cost, traj)


@pytest.mark.parametrize("block", [0, 1])
def test_expansion_rejects_a_non_finite_terminal_derivative(block):
    class _BrokenTerminal(QuadraticCost):
        def terminal_derivatives(self, x):
            derivs = list(super().terminal_derivatives(x))
            derivs[block] = np.full_like(derivs[block], np.nan)
            return tuple(derivs)

    model, bench, x0, _ = make_benchmark("pendulum")
    cost = _BrokenTerminal(bench.q, bench.control_weight, bench.q_terminal, bench.goal)
    traj = rollout(model, cost, x0, np.zeros((5, 1)))
    with pytest.raises(TrajoptError, match="non-finite terminal derivative at timestep 5$"):
        expand_along(model, cost, traj)


def test_expansion_rejects_derivatives_that_ignore_the_batch():
    class _PointOnlyLinear(LinearModel):
        def _derivatives(self, x, u):  # evaluates one point, whatever it is given
            n, m = self.state_dim, self.control_dim
            return self.a, self.b, np.zeros((n, n, n)), np.zeros((n, n, m))

    model = _PointOnlyLinear(np.eye(2), np.ones((2, 1)))
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    traj = rollout(model, cost, np.ones(2), np.zeros((2, 1)))
    with pytest.raises(DimensionError, match="one entry per stage"):
        expand_along(model, cost, traj)
    with pytest.raises(DimensionError):
        # a trajectory of the wrong state width fails the model's own check
        expand_along(PendulumModel(), cost,
                     Trajectory(np.zeros((3, 3)), traj.controls, traj.cost))


def test_expansion_makes_one_model_derivatives_call():
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 30, seed=2)
    calls = []

    def counted(x, u):
        calls.append(np.shape(x))
        return type(model).derivatives(model, x, u)

    model.derivatives = counted
    expand_along(model, cost, traj)
    assert calls == [(30, 4)]


def test_expansion_dims():
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 7, seed=0)
    exp = expand_along(model, cost, traj)
    assert exp.horizon == 7
    assert exp.state_dim == 4
    assert exp.control_dim == 1
    assert exp.fxx.shape == (7, 4, 4, 4)
    assert exp.fxu.shape == (7, 4, 4, 1)


def test_adjoint_gradient_zero_at_equilibrium_goal():
    model = PendulumModel(damping=0.0)
    cost = QuadraticCost(np.diag([1.0, 0.1]), 0.1 * np.eye(1),
                         np.diag([100.0, 10.0]), goal=np.zeros(2))
    traj = rollout(model, cost, np.zeros(2), np.zeros((10, 1)))
    grad = cost_gradient_adjoint(expand_along(model, cost, traj))
    assert np.max(np.abs(grad)) == 0.0


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_adjoint_gradient_matches_finite_differences(system):
    model, cost, x0, _ = make_benchmark(system)
    horizon = 12
    for seed in range(10):
        traj = random_nominal(model, cost, x0, horizon, seed=seed)
        grad = cost_gradient_adjoint(expand_along(model, cost, traj))
        fd = np.zeros_like(grad)
        h = 1e-5
        for t in range(horizon):
            for j in range(model.control_dim):
                up = traj.controls.copy()
                dn = traj.controls.copy()
                up[t, j] += h
                dn[t, j] -= h
                fd[t, j] = (rollout(model, cost, x0, up).cost
                            - rollout(model, cost, x0, dn).cost) / (2 * h)
        err = np.max(np.abs(fd - grad) / (1.0 + np.abs(grad)))
        assert err <= 1e-5


def test_adjoint_gradient_vanishes_at_kkt_optimum(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    nominal = random_nominal(model, cost, x0, horizon, seed=1)
    exp = expand_along(model, cost, nominal)
    ksol = solve_kkt(assemble_qp(exp))
    _, du = split_primal(assemble_qp(exp), ksol.dz)
    optimum = rollout(model, cost, x0, nominal.controls + du)
    grad = cost_gradient_adjoint(expand_along(model, cost, optimum))
    assert np.max(np.abs(grad)) <= 1e-9
