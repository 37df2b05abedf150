"""Shared fixtures: the LQR golden case, the seeded iLQR sweeps, seeded
nominal generators and a dense view of the stacked KKT oracle's QP."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from trajopt import (LinearModel, QuadraticCost, SolveResult, SolverConfig,
                     make_benchmark, rollout, solve, split_primal)

SEEDS = range(20)
# iteration budgets of the seeded iLQR sweeps; `seed_sweeps` asserts that
# every run fits in its budget
SWEEP_BUDGETS = {"pendulum": 200, "cartpole": 500}


@pytest.fixture(scope="session")
def lqr_instance():
    """Linear-quadratic golden case: n=2, m=1, T=20, mildly damped dynamics."""
    a = np.array([[1.0, 0.1], [-0.05, 0.98]])
    b = np.array([[0.0], [0.1]])
    model = LinearModel(a, b)
    cost = QuadraticCost(np.eye(2), 0.1 * np.eye(1), 10.0 * np.eye(2), np.zeros(2))
    x0 = np.array([1.0, -0.5])
    return model, cost, x0, 20


def random_controls(horizon, m, seed, amplitude=1.0):
    """Seeded uniform controls in [-amplitude, amplitude], shape (horizon, m)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-amplitude, amplitude, size=(horizon, m))


def random_nominal(model, cost, x0, horizon, seed, amplitude=1.0):
    return rollout(model, cost, x0,
                   random_controls(horizon, model.control_dim, seed, amplitude))


def join_runs(warm, tail) -> SolveResult:
    """The iLQR run made of `warm`, stopped on its gradient, and `tail`, an
    iLQR solve restarted from warm's controls. Warm's last record, which took
    no step, is dropped; the tail's records and trial logs are renumbered to
    follow the rest."""
    offset = warm.iterations - 1
    records = warm.records[:-1] + tuple(replace(r, index=r.index + offset)
                                        for r in tail.records)
    trial_logs = warm.trial_logs + tuple((index + offset, trials)
                                         for index, trials in tail.trial_logs)
    # the tail's first rollout re-steps the points warm ended on
    model_steps = warm.model_steps + tail.model_steps - tail.trajectory.horizon
    return replace(tail, records=records, trial_logs=trial_logs,
                   first_sweep=warm.first_sweep, model_steps=model_steps)


@dataclass(frozen=True)
class SeedRun:
    seed: int
    ilqr: SolveResult         # iLQR from the seed's controls, default tolerances
    warm: SolveResult         # iLQR from the same controls to grad 1e-2
    tail: SolveResult | None  # iLQR from warm's controls; None if warm failed
    ddp: SolveResult | None   # DDP from warm's controls; None if warm failed


@pytest.fixture(scope="session")
def seed_sweeps():
    """Each benchmark's seeded iLQR starts, uniform controls in [-1, 1], each
    solved once: a warm run to grad 1e-2, then iLQR and DDP from its controls.

    `ilqr` is the warm run joined to its iLQR tail, the run a direct solve
    with the sweep budget gives (`test_solver.py` checks this restart
    equivalence bit for bit); a start whose warm run does not stop on its
    gradient is solved directly instead."""
    sweeps = {}
    for system, budget in SWEEP_BUDGETS.items():
        model, cost, x0, horizon = make_benchmark(system)
        runs = []
        for seed in SEEDS:
            u0 = random_controls(horizon, model.control_dim, seed)
            warm = solve(model, cost, x0, u0, SolverConfig(
                method="ilqr", grad_tol=1e-2, max_iters=500))
            tail = ddp = None
            if warm.converged:
                u_warm = warm.trajectory.controls
                tail = solve(model, cost, x0, u_warm, SolverConfig(method="ilqr"))
                ddp = solve(model, cost, x0, u_warm, SolverConfig(method="ddp"))
            if warm.reason == "gradient":
                # a tail cut off by its own budget would end where a direct
                # run goes on
                assert tail.reason != "max_iters", f"{system}/{seed}"
                ilqr = join_runs(warm, tail)
            else:
                ilqr = solve(model, cost, x0, u0,
                             SolverConfig(method="ilqr", max_iters=budget))
            assert ilqr.iterations <= budget, f"{system}/{seed}"
            runs.append(SeedRun(seed, ilqr, warm, tail, ddp))
        sweeps[system] = runs
    return sweeps


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
