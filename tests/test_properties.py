"""Properties over random linear-quadratic problems (hypothesis).

Each example draws a `LinearModel` and a `QuadraticCost` with n in 1..4,
m in {1, 2, 3} and T in 1..40: PSD Q and Q_terminal of random rank, PD R,
and dynamics scaled to spectral norm at most 1.1. The batched paths must
reproduce the per-point and per-stage arithmetic exactly, and every sweep
must match the banded KKT oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from trajopt import (LinearModel, QuadraticCost, backward_for, expand_along,
                     expected_reduction, rollout, total_cost, verify_equivalence)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@st.composite
def lq_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 3]))
    horizon = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    a /= max(1.0, np.linalg.norm(a, 2) / 1.1)
    model = LinearModel(a, rng.normal(size=(n, m)))

    def psd(rank):
        f = rng.normal(size=(n, rank))
        return f @ f.T

    g = rng.normal(size=(m, m))
    cost = QuadraticCost(psd(draw(st.integers(0, n))), g @ g.T + 0.1 * np.eye(m),
                         psd(draw(st.integers(0, n))), rng.normal(size=n))
    traj = rollout(model, cost, rng.normal(size=n),
                   rng.uniform(-1.0, 1.0, size=(horizon, m)))
    return model, cost, traj, rng


@PROPERTY_SETTINGS
@given(lq_problems())
def test_every_sweep_matches_the_kkt_oracle(problem):
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    costates = rng.normal(size=traj.states.shape)
    for method in ("ilqr", "newton", "ddp"):
        sol, _ = backward_for(method, exp, costates)
        report = verify_equivalence(sol, exp, costates, tol=1e-8)
        assert report.passed, report.summary()


@PROPERTY_SETTINGS
@given(lq_problems())
def test_batched_stage_cost_equals_per_point_calls(problem):
    _, cost, traj, _ = problem
    batch = cost.stage_cost(traj.states[:-1], traj.controls)
    points = []
    for x, u in zip(traj.states[:-1], traj.controls):
        point = cost.stage_cost(x, u)
        assert type(point) is float
        e = x - cost.goal
        assert point == 0.5 * float(e @ cost.q @ e) + 0.5 * float(u @ cost.control_weight @ u)
        points.append(point)
    assert batch.shape == (traj.horizon,)
    assert batch.tolist() == points


@PROPERTY_SETTINGS
@given(lq_problems())
def test_total_cost_is_the_left_to_right_sum(problem):
    _, cost, traj, _ = problem
    j = 0.0
    for x, u in zip(traj.states[:-1], traj.controls):
        j += cost.stage_cost(x, u)
    j += cost.terminal_cost(traj.states[-1])
    assert total_cost(cost, traj.states, traj.controls) == j == traj.cost


@PROPERTY_SETTINGS
@given(lq_problems())
def test_expected_reduction_equals_the_per_stage_loop(problem):
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    sol, _ = backward_for("newton", exp, rng.normal(size=traj.states.shape))
    total = 0.0
    for t in range(sol.horizon):
        g = exp.ru[t] + exp.fu[t].T @ sol.v[t + 1]
        total += float(g @ sol.k[t])
    for alpha in (0.0, 0.3, 1.0):
        assert expected_reduction(sol, exp, alpha) == -(alpha - 0.5 * alpha * alpha) * total
