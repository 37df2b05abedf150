"""Outer loop behavior: convergence, records, threading, hybrid switching."""

import numpy as np
import pytest

from trajopt import (IterationRecord, LineSearchConfig, SolverConfig,
                     backward_newton, converged, expand_along, make_benchmark,
                     quu_spectrum, solve, total_cost)
from trajopt.artifacts import write_iterations_csv, write_trials_csv

from conftest import SWEEP_BUDGETS, random_controls


def test_ilqr_descent_and_monotonicity_over_seeds(seed_sweeps):
    # the pendulum's sweep budget is the default max_iters
    assert SWEEP_BUDGETS["pendulum"] == SolverConfig().max_iters
    for run in seed_sweeps["pendulum"]:
        result = run.ilqr
        ok_costs = [r.cost for r in result.records if r.status == "OK"]
        assert all(b < a for a, b in zip(ok_costs, ok_costs[1:]))
        for r in result.records:
            assert r.status == "OK"
            if r.alpha > 0:
                assert r.linear_pred < 0.0
                assert r.dj_realized < 0.0
        assert result.reason in ("gradient", "step", "max_iters")


@pytest.mark.parametrize("system", sorted(SWEEP_BUDGETS))
@pytest.mark.parametrize("seed", [0, 1])
def test_an_ilqr_run_restarted_from_its_warm_controls_is_the_direct_run(
        seed_sweeps, system, seed):
    # iLQR carries nothing across iterations but the trajectory, so the sweep
    # runs joined at grad 1e-2 must be the direct solves, bit for bit
    run = seed_sweeps[system][seed]
    assert run.warm.reason == "gradient"  # joined, not solved directly
    model, cost, x0, horizon = make_benchmark(system)
    direct = solve(model, cost, x0, random_controls(horizon, model.control_dim, seed),
                   SolverConfig(method="ilqr", max_iters=SWEEP_BUDGETS[system]))
    joined = run.ilqr
    assert joined.records == direct.records
    assert joined.trial_logs == direct.trial_logs
    assert (joined.reason, joined.model_steps) == (direct.reason, direct.model_steps)
    assert np.array_equal(joined.trajectory.states, direct.trajectory.states)
    assert np.array_equal(joined.trajectory.controls, direct.trajectory.controls)
    assert np.array_equal(joined.first_sweep.k, direct.first_sweep.k)


def test_ddp_pendulum_failure_mode_exists_over_seeds():
    model, cost, x0, horizon = make_benchmark("pendulum")
    failures = 0
    for seed in range(20):
        u0 = random_controls(horizon, 1, seed=seed, amplitude=2.0)
        result = solve(model, cost, x0, u0, SolverConfig(method="ddp"))
        increases = any(b.cost > a.cost for a, b in
                        zip(result.records, result.records[1:]))
        if increases or any(r.status == "NON_DESCENT" for r in result.records):
            failures += 1
    assert failures >= 1


def test_hybrid_without_cooling_is_identical_to_ddp():
    model, cost, x0, horizon = make_benchmark("pendulum")
    warm = solve(model, cost, x0, np.zeros((horizon, 1)),
                 SolverConfig(method="ilqr", grad_tol=1e-2))
    u0 = warm.trajectory.controls
    ddp = solve(model, cost, x0, u0, SolverConfig(method="ddp"))
    hybrid = solve(model, cost, x0, u0, SolverConfig(method="hybrid"))
    assert all(r.method_active == "ddp" for r in hybrid.records)
    assert [r.cost for r in hybrid.records] == [r.cost for r in ddp.records]
    assert [r.alpha for r in hybrid.records] == [r.alpha for r in ddp.records]


def test_hybrid_with_unreachable_threshold_is_identical_to_ilqr():
    model, cost, x0, horizon = make_benchmark("pendulum")
    u0 = np.zeros((horizon, 1))
    ilqr = solve(model, cost, x0, u0, SolverConfig(method="ilqr"))
    hybrid = solve(model, cost, x0, u0,
                   SolverConfig(method="hybrid", hybrid_alpha_switch=1.5))
    assert all(r.method_active == "ilqr" for r in hybrid.records)
    assert [r.cost for r in hybrid.records] == [r.cost for r in ilqr.records]


def test_newton_multiplier_consistency_at_convergence():
    model, cost, x0, horizon = make_benchmark("pendulum")
    warm = solve(model, cost, x0, np.zeros((horizon, 1)),
                 SolverConfig(method="ilqr", grad_tol=1e-2))
    result = solve(model, cost, x0, warm.trajectory.controls,
                   SolverConfig(method="newton", grad_tol=1e-6,
                                step_tol=1e-14, max_iters=100))
    assert result.converged
    assert result.multipliers is not None
    final_sweep = backward_newton(
        expand_along(model, cost, result.trajectory), result.multipliers)
    assert np.max(np.abs(result.multipliers - final_sweep.v)) <= 1e-6


def test_converged_predicate_thresholds():
    config = SolverConfig(grad_tol=1e-4, step_tol=1e-9)

    def record(grad_norm, dj_realized, status="OK"):
        return IterationRecord(0, 1.0, -1.0, dj_realized, 1.0, 0.1,
                               grad_norm, -1.0, "ilqr", status)

    assert converged(record(0.0, -1.0), config) == "gradient"
    assert converged(record(1e-4, -1.0), config) == "gradient"  # closed threshold
    assert not converged(record(2e-4, -1.0), config)
    assert converged(record(1.0, 1e-10), config) == "step"
    assert not converged(record(1.0, -1.0, status="NON_DESCENT"), config)


def test_solve_stops_at_the_first_converged_record():
    model, cost, x0, horizon = make_benchmark("pendulum")
    u0 = random_controls(horizon, 1, seed=2)
    for config in (SolverConfig(), SolverConfig(grad_tol=1e-2),
                   SolverConfig(step_tol=1e-3), SolverConfig(method="newton")):
        result = solve(model, cost, x0, u0, config)
        *running, last = result.records
        assert [converged(r, config) for r in running] == [None] * len(running)
        assert converged(last, config) == result.reason
        assert result.converged
        assert result.first_sweep.method == result.records[0].method_active
        assert float(quu_spectrum(result.first_sweep).min()) == result.records[0].min_quu


def test_identical_seeds_are_bit_identical():
    model, cost, x0, horizon = make_benchmark("pendulum")
    u0 = random_controls(horizon, 1, seed=11)
    first = solve(model, cost, x0, u0, SolverConfig(method="ilqr"))
    second = solve(model, cost, x0, u0, SolverConfig(method="ilqr"))
    assert first.records == second.records
    assert np.array_equal(first.trajectory.states, second.trajectory.states)
    assert np.array_equal(first.trajectory.controls, second.trajectory.controls)


def test_max_iters_exhaustion_reported():
    model, cost, x0, horizon = make_benchmark("cartpole")
    result = solve(model, cost, x0, np.zeros((horizon, 1)),
                   SolverConfig(method="ilqr", max_iters=3))
    assert not result.converged
    assert result.reason == "max_iters"
    assert result.iterations == 3


def test_step_tolerance_stop():
    model, cost, x0, horizon = make_benchmark("pendulum")
    result = solve(model, cost, x0, np.zeros((horizon, 1)),
                   SolverConfig(method="ilqr", step_tol=1e9))
    assert result.converged
    assert result.reason == "step"
    assert result.iterations == 1


def test_solve_returns_a_trajectory_that_does_not_share_the_initial_controls():
    # a gradient tolerance this loose accepts no step: the result is the rollout
    model, cost, x0, horizon = make_benchmark("pendulum")
    u0 = random_controls(horizon, 1, seed=3)
    result = solve(model, cost, x0, u0, SolverConfig(grad_tol=1e6))
    assert result.accepted_iterations == 0
    assert not np.shares_memory(result.trajectory.controls, u0)
    before = result.trajectory.controls.copy()
    u0[:] = 0.0
    assert np.array_equal(result.trajectory.controls, before)
    assert result.final_cost == total_cost(cost, result.trajectory.states, before)


def _cartpole_40(method, **config):
    model, cost, x0, horizon = make_benchmark("cartpole", horizon=40)
    return solve(model, cost, x0, np.zeros((horizon, 1)),
                 SolverConfig(method=method, **config))


def test_solve_stops_on_a_floor_hit():
    # with alpha_min = 0.6 only the full step is tried; iteration 3 rejects it
    result = _cartpole_40("ilqr", linesearch=LineSearchConfig(alpha_min=0.6))
    assert result.reason == "floor_hit" and not result.converged
    *running, last = result.records
    assert [r.status for r in running] == ["OK"] * 3
    assert (last.index, last.status, last.alpha, last.dj_realized) == (3, "FLOOR_HIT", 0.0, 0.0)
    (_, trials), = [row for row in result.trial_logs if row[0] == 3]
    assert [alpha for alpha, _, _ in trials] == [1.0]
    assert trials[0][2] <= 0.1  # the ratio test rejected the only trial
    assert result.final_cost == last.cost


def test_solve_stops_on_non_descent():
    # DDP's sweep at iteration 5 predicts no decrease, so no forward pass runs
    result = _cartpole_40("ddp")
    assert result.reason == "non_descent" and not result.converged
    *running, last = result.records
    assert [r.status for r in running] == ["OK"] * 5
    assert (last.index, last.status, last.alpha) == (5, "NON_DESCENT", 0.0)
    assert last.linear_pred >= 0.0
    assert [row[0] for row in result.trial_logs] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp", "hybrid"])
def test_the_line_search_takes_its_slope_from_the_sweep(method):
    # a record that ran a line search carries -sum_t g_t'k_t = 2 dj_pred, and
    # its trials are judged against it; a converged record takes no step
    result = _cartpole_40(method)
    searched = [r for r in result.records if r.grad_norm > 1e-4]
    assert searched and all(r.linear_pred == 2.0 * r.dj_pred for r in searched)
    assert all(r.linear_pred == 0.0 for r in result.records if r.grad_norm <= 1e-4)
    for index, trials in result.trial_logs:
        record = result.records[index]
        for alpha, cost, ratio in trials:
            if cost != np.inf:
                assert ratio == (cost - record.cost) / (alpha * record.linear_pred)


@pytest.mark.parametrize("cause, config, at", [
    ("NON_DESCENT", {}, 5),
    ("FLOOR_HIT", {"linesearch": LineSearchConfig(alpha_min=0.3)}, 1),
], ids=["non_descent", "floor_hit"])
def test_hybrid_switches_to_ilqr_after_a_ddp_failure(cause, config, at):
    # a switch threshold below every accepted alpha rules out cooling
    result = _cartpole_40("hybrid", hybrid_alpha_switch=1e-3, max_iters=at + 3, **config)
    assert result.reason == "max_iters"
    assert all(r.alpha >= 1e-3 for r in result.records if r.alpha > 0)
    assert [r.method_active for r in result.records] == ["ddp"] * (at + 1) + ["ilqr"] * 2
    assert [r.status for r in result.records] == ["OK"] * at + [cause] + ["OK"] * 2
    failed, after = result.records[at], result.records[at + 1]
    assert after.cost == failed.cost  # iLQR restarts from the trajectory DDP left


def _counted_solve(system, horizon, controls, **config):
    """A solve whose model counts the points it steps: `step` and the
    rollouts all end in the instance's `_step`."""
    model, cost, x0, _ = make_benchmark(system, horizon=horizon)
    calls = []
    raw = model._step
    model._step = lambda x, u: calls.append(1) or raw(x, u)
    return solve(model, cost, x0, controls, SolverConfig(**config)), len(calls)


@pytest.mark.parametrize("case", ["accepted", "diverged", "non_descent"])
def test_model_steps_counts_every_point_stepped(case):
    if case == "accepted":
        result, calls = _counted_solve("pendulum", 40, random_controls(40, 1, seed=2),
                                       max_iters=5)
        assert all(r.status == "OK" and r.alpha > 0 for r in result.records)
    elif case == "diverged":  # iteration 12 diverges in its first trial
        result, calls = _counted_solve("cartpole", 80, np.zeros((80, 1)),
                                       method="ddp", max_iters=13)
        assert result.trial_logs[12][1][0][1] == np.inf
    else:
        result, calls = _counted_solve("cartpole", 40, np.zeros((40, 1)), method="ddp")
        assert result.reason == "non_descent"
    assert result.model_steps == calls


def test_solver_config_validation():
    for settings in ({"method": "sqp"}, {"max_iters": 0}, {"hybrid_patience": 0},
                     {"max_iters": 2.5}, {"max_iters": True}, {"max_iters": 200.0},
                     {"hybrid_patience": 1.5}, {"hybrid_patience": False},
                     {"hybrid_patience": "2"}):
        with pytest.raises(ValueError):
            SolverConfig(**settings)
    # a numpy integer is a count too
    config = SolverConfig(max_iters=np.int64(3), hybrid_patience=np.int32(1))
    assert (config.max_iters, config.hybrid_patience) == (3, 1)


@pytest.mark.parametrize("settings", [{"grad_tol": 0.0}, {"step_tol": -1e-9},
                                      {"grad_tol": -1.0, "step_tol": 0.0}])
def test_solver_config_rejects_non_positive_tolerances(settings):
    with pytest.raises(ValueError, match="tolerances must be positive"):
        SolverConfig(**settings)


def test_iteration_csv_round_trip(tmp_path):
    model, cost, x0, horizon = make_benchmark("pendulum")
    result = solve(model, cost, x0, random_controls(horizon, 1, seed=0),
                   SolverConfig(method="ilqr", max_iters=5))
    iter_path = tmp_path / "iterations.csv"
    write_iterations_csv(iter_path, result.records)
    lines = iter_path.read_text().splitlines()
    assert lines[0].startswith("index,J,dJ_pred,dJ_realized,alpha,")
    assert len(lines) == 1 + len(result.records)
    row = lines[1].split(",")
    assert float(row[1]) == result.records[0].cost
    assert row[8] == "ilqr"
    assert row[9] == "OK"

    trials_path = tmp_path / "trials.csv"
    write_trials_csv(trials_path, result.trial_logs)
    trial_lines = trials_path.read_text().splitlines()
    assert trial_lines[0] == "iteration,trial,alpha,J_candidate,ratio"
    assert len(trial_lines) > 1
