"""Shared fixtures: benchmark instances, seeded nominal generators and a dense
view of the stacked KKT oracle's QP."""

import numpy as np
import pytest

from trajopt import (LinearModel, QuadraticCost, make_benchmark, rollout,
                     split_primal)


@pytest.fixture(scope="session")
def pendulum_bench():
    return make_benchmark("pendulum")


@pytest.fixture(scope="session")
def cartpole_bench():
    return make_benchmark("cartpole")


@pytest.fixture(scope="session")
def lqr_instance():
    """Linear-quadratic golden case: n=2, m=1, T=20, mildly damped dynamics."""
    a = np.array([[1.0, 0.1], [-0.05, 0.98]])
    b = np.array([[0.0], [0.1]])
    model = LinearModel(a, b)
    cost = QuadraticCost(np.eye(2), 0.1 * np.eye(1), 10.0 * np.eye(2), np.zeros(2))
    x0 = np.array([1.0, -0.5])
    return model, cost, x0, 20


def random_nominal(model, cost, x0, horizon, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    controls = rng.uniform(-amplitude, amplitude, size=(horizon, model.control_dim))
    return rollout(model, cost, x0, controls)


def dense_qp(qp):
    """(H, g, A) of an assembled `StackedQP` as dense arrays, in the layout
    z = (dx_1 .. dx_T, du_0 .. du_{T-1}) with the rows of A in constraint
    order, read entry by entry off the QP's triplets."""
    kkt = np.zeros((qp.primal.size, qp.primal.size))
    np.add.at(kkt, (qp.rows, qp.cols), qp.values)
    dx, du = split_primal(qp, np.flatnonzero(qp.primal))
    z = np.concatenate([dx[1:].reshape(-1), du.reshape(-1)]).astype(int)
    lam = np.flatnonzero(~qp.primal)
    return kkt[np.ix_(z, z)], qp.gradient[z], kkt[np.ix_(lam, z)]
