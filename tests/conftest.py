"""Shared fixtures: the LQR golden case, the seeded solves (the iLQR
sweeps, the cold starts and the cart-pole DDP sweep, which
`tests/golden/solves.txt` pins), seeded nominal generators and dense views
of the stacked KKT oracle's QP.

Each seeded solve is a plain function, so `make_golden.py` solves exactly
the runs the session fixtures hand to the tests."""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from trajopt import (LinearModel, QuadraticCost, SolveResult, SolverConfig,
                     make_benchmark, rollout, solve)
from trajopt.solver import METHODS

SEEDS = range(20)
# iteration budgets of the seeded iLQR sweeps and of the cold starts;
# `seed_sweeps` asserts that every run fits in its budget
SWEEP_BUDGETS = {"pendulum": 200, "cartpole": 500}
# the cold starts: zero controls, or (seed, amplitude) of seeded uniform
# controls as `random_controls` draws them
COLD_STARTS = {"zero": None, "seed101x1": (101, 1.0), "seed102x1": (102, 1.0),
               "seed104x3": (104, 3.0), "seed105x3": (105, 3.0)}
# (system, method, start) of every cold solve. Cart-pole iLQR and hybrid
# take seconds a start, so of those only criterion 08's zero-start iLQR
# swing-up is solved; cart-pole Newton and DDP fail within a few iterations.
COLD_RUNS = (tuple(("pendulum", method, start) for method in METHODS for start in COLD_STARTS)
             + tuple(("cartpole", method, start) for method in ("newton", "ddp")
                     for start in COLD_STARTS)
             + (("cartpole", "ilqr", "zero"),))


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


def swept_records(result):
    """The records of `result` whose iteration ran a backward sweep.

    Only an iteration whose gradient had converged forms none, so the one
    record left out must be the last of a run stopped by "gradient"; a
    record of any other iteration that lacked its sweep fields fails here.
    """
    swept = [r for r in result.records if r.dj_pred is not None]
    sweepless = [r for r in result.records if r.dj_pred is None]
    assert all(r.min_quu is not None for r in swept)
    assert all(r.min_quu is None for r in sweepless)
    assert sweepless == ([result.records[-1]] if result.reason == "gradient" else [])
    return swept


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


def solve_seed_sweeps():
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


def solve_cold_starts():
    """{(system, method, start): (result, seconds)} of every run of
    COLD_RUNS, each solved with its system's budget and timed."""
    runs = {}
    for system, method, start in COLD_RUNS:
        model, cost, x0, horizon = make_benchmark(system)
        u0 = (np.zeros((horizon, model.control_dim)) if COLD_STARTS[start] is None
              else random_controls(horizon, model.control_dim, *COLD_STARTS[start]))
        began = time.perf_counter()
        result = solve(model, cost, x0, u0,
                       SolverConfig(method=method, max_iters=SWEEP_BUDGETS[system]))
        runs[system, method, start] = result, time.perf_counter() - began
    return runs


def solve_ddp_cartpole_sweep():
    """20 seeded unregularized DDP runs on the cart-pole, lively inits:
    (seed, initial controls, result) each."""
    model, cost, x0, horizon = make_benchmark("cartpole")
    runs = []
    for seed in SEEDS:
        u0 = random_controls(horizon, model.control_dim, seed, amplitude=5.0)
        runs.append((seed, u0,
                     solve(model, cost, x0, u0,
                           SolverConfig(method="ddp", max_iters=200))))
    return runs


@pytest.fixture(scope="session")
def seed_sweeps():
    return solve_seed_sweeps()


@pytest.fixture(scope="session")
def cold_solves():
    return solve_cold_starts()


@pytest.fixture(scope="session")
def ddp_cartpole_sweep():
    return solve_ddp_cartpole_sweep()


def dense_kkt(qp):
    """The KKT matrix of an assembled `StackedQP` as a dense array over its
    unknowns in their stage rows (du_t, lam_{t+1}, dx_{t+1}), flattened,
    read block by block off the QP's stage windows. Window t covers the
    unknowns from t (2n + m) - n on, so window 0 starts with dx_0, which is
    not an unknown: its rows and columns must hold zeros."""
    width, stride = qp.windows.shape[1], qp.gradient.shape[1]
    n = width - stride
    padded = np.zeros((qp.gradient.size + n,) * 2)  # dx_0 first
    for t, window in enumerate(qp.windows):
        padded[t * stride:t * stride + width, t * stride:t * stride + width] += window
    assert not padded[:n].any() and not padded[:, :n].any(), "an entry at dx_0"
    return padded[n:, n:]


def dense_qp(qp):
    """(H, g, A) of an assembled `StackedQP` as dense arrays, in the layout
    z = (dx_1 .. dx_T, du_0 .. du_{T-1}) with the rows of A in constraint
    order, read off `dense_kkt`."""
    kkt = dense_kkt(qp)
    stride = qp.gradient.shape[1]
    n = qp.windows.shape[1] - stride
    index = np.arange(qp.gradient.size).reshape(qp.gradient.shape)  # of each unknown
    z = np.concatenate([index[:, stride - n:].reshape(-1), index[:, :stride - 2 * n].reshape(-1)])
    lam = index[:, stride - 2 * n:stride - n].reshape(-1)
    return kkt[np.ix_(z, z)], qp.gradient.reshape(-1)[z], kkt[np.ix_(lam, z)]
