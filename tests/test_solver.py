"""Outer loop behavior: convergence, records, threading, hybrid switching."""

from dataclasses import replace

import numpy as np
import pytest

from trajopt import (IterationRecord, NonDescentError, SolverConfig, backward,
                     backward_newton, converged, expand_along, linesearch,
                     make_benchmark, quu_spectrum, solve, total_cost)
from trajopt.artifacts import write_iterations_csv, write_trials_csv

from conftest import SWEEP_BUDGETS, join_runs, random_controls


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
                assert r.dj_pred < 0.0
                assert r.dj_realized < 0.0
        assert result.reason in ("gradient", "step", "max_iters")


def _assert_is_the_direct_run(joined, direct):
    assert joined.records == direct.records
    assert joined.trial_logs == direct.trial_logs
    assert (joined.reason, joined.model_steps) == (direct.reason, direct.model_steps)
    assert np.array_equal(joined.trajectory.states, direct.trajectory.states)
    assert np.array_equal(joined.trajectory.controls, direct.trajectory.controls)
    assert np.array_equal(joined.first_sweep.k, direct.first_sweep.k)


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
    _assert_is_the_direct_run(run.ilqr, direct)


def test_an_ilqr_run_restarted_after_a_partial_step_is_the_direct_run():
    # every step of the pendulum sweep runs is a full one; from this start the
    # warm run accepts alpha = 0.5, so a line search that began where the last
    # one ended would start the direct run's next search below the tail's 1
    model, cost, x0, horizon = make_benchmark("pendulum", x0=(1.5, 2.0))
    u0 = random_controls(horizon, 1, seed=2)
    warm = solve(model, cost, x0, u0, SolverConfig(method="ilqr", grad_tol=1e-2))
    assert warm.reason == "gradient"
    assert any(0.0 < r.alpha < 1.0 for r in warm.records)
    tail = solve(model, cost, x0, warm.trajectory.controls, SolverConfig(method="ilqr"))
    direct = solve(model, cost, x0, u0, SolverConfig(method="ilqr"))
    _assert_is_the_direct_run(join_runs(warm, tail), direct)


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
    # hybrid leaves DDP only after a failed DDP iteration; near the optimum
    # none fails, so hybrid is the DDP solve, record for record
    model, cost, x0, horizon = make_benchmark("pendulum")
    warm = solve(model, cost, x0, np.zeros((horizon, 1)),
                 SolverConfig(method="ilqr", grad_tol=1e-2))
    u0 = warm.trajectory.controls
    ddp = solve(model, cost, x0, u0, SolverConfig(method="ddp"))
    hybrid = solve(model, cost, x0, u0, SolverConfig(method="hybrid"))
    assert all(r.method_active == "ddp" for r in hybrid.records)
    assert [r.cost for r in hybrid.records] == [r.cost for r in ddp.records]
    assert [r.alpha for r in hybrid.records] == [r.alpha for r in ddp.records]


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
                               grad_norm, "ilqr", status)

    assert converged(record(0.0, -1.0), config) == "gradient"
    assert converged(record(1e-4, -1.0), config) == "gradient"  # closed threshold
    assert not converged(record(2e-4, -1.0), config)
    assert converged(record(1.0, 1e-10), config) == "step"
    assert converged(record(1.0, -1e-9), config) == "step"  # closed threshold
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


@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp", "hybrid"])
def test_a_converged_gradient_forms_no_sweep(monkeypatch, method):
    # every sweep runs through backward._sweep, Newton's iLQR seed included
    calls = []
    sweep = backward._sweep
    monkeypatch.setattr(backward, "_sweep",
                        lambda *args, **kw: calls.append(1) or sweep(*args, **kw))
    model, cost, x0, horizon = make_benchmark("pendulum", horizon=40)
    config = SolverConfig(method=method)
    first = solve(model, cost, x0, random_controls(horizon, 1, seed=2), config)
    assert first.reason == "gradient"
    swept = sum(r.dj_pred is not None for r in first.records)
    assert swept == first.iterations - 1
    assert len(calls) == swept + (method == "newton")

    calls.clear()
    again = solve(model, cost, x0, first.trajectory.controls, config)
    assert len(calls) == 0
    assert again.reason == "gradient"
    (record,) = again.records
    assert record.dj_pred is None and record.min_quu is None
    assert (record.alpha, record.dj_realized, record.status) == (0.0, 0.0, "OK")
    assert again.first_sweep is None and again.multipliers is None


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_newton_fails_far_from_an_optimum(seed):
    # From controls uniform in [-3, 3] the unregularized Newton sweep soon
    # predicts no decrease, far above iLQR's 1345.7 from the same starts: the
    # method carries no guarantee away from a minimum.
    model, cost, x0, horizon = make_benchmark("cartpole")
    result = solve(model, cost, x0, random_controls(horizon, 1, seed, amplitude=3.0),
                   SolverConfig(method="newton"))
    assert result.reason == "non_descent" and not result.converged
    assert result.iterations <= 8
    statuses = [r.status for r in result.records]
    assert statuses == ["OK"] * (result.iterations - 1) + ["NON_DESCENT"]
    assert result.final_cost > 5 * 1345.708565


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


def test_solve_stops_on_a_floor_hit(monkeypatch):
    # with only the full step to try, iteration 3 rejects it
    monkeypatch.setattr(linesearch, "ALPHAS", (1.0,))
    result = _cartpole_40("ilqr")
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
    assert last.dj_pred >= 0.0
    assert [row[0] for row in result.trial_logs] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp", "hybrid"])
def test_the_line_search_takes_its_slope_from_the_sweep(method):
    # the trials of a record's line search are judged against the slope
    # -sum_t g_t'k_t = 2 dj_pred; a converged record runs no search
    result = _cartpole_40(method)
    searched = {r.index for r in result.records if r.grad_norm > 1e-4}
    assert searched and {index for index, _ in result.trial_logs} <= searched
    for index, trials in result.trial_logs:
        record = result.records[index]
        for alpha, cost, ratio in trials:
            if cost != np.inf:
                assert ratio == (cost - record.cost) / (alpha * (2.0 * record.dj_pred))


@pytest.mark.parametrize("cause, alphas, at", [
    ("NON_DESCENT", linesearch.ALPHAS, 5),
    ("FLOOR_HIT", (1.0, 0.5), 1),
], ids=["non_descent", "floor_hit"])
def test_hybrid_switches_to_ilqr_after_a_ddp_failure(monkeypatch, cause, alphas, at):
    monkeypatch.setattr(linesearch, "ALPHAS", alphas)
    result = _cartpole_40("hybrid", max_iters=at + 3)
    assert result.reason == "max_iters"
    # every accepted step is long, so no step length explains the switch:
    # the failed iteration alone moves hybrid to iLQR
    assert all(r.alpha >= 1e-3 for r in result.records if r.alpha > 0)
    assert [r.method_active for r in result.records] == ["ddp"] * (at + 1) + ["ilqr"] * 2
    assert [r.status for r in result.records] == ["OK"] * at + [cause] + ["OK"] * 2
    failed, after = result.records[at], result.records[at + 1]
    assert after.cost == failed.cost  # iLQR restarts from the trajectory DDP left


def test_a_sweep_predicting_an_increase_is_an_ilqr_bug_and_a_ddp_failure(monkeypatch):
    # The line search refuses a direction that predicts no decrease. iLQR's
    # sweep provably descends, so there the refusal is a bug and `solve` raises;
    # DDP's can fail far from an optimum, so there it ends the solve.
    monkeypatch.setattr("trajopt.solver.expected_reduction", lambda sol, exp: 1.0)
    model, cost, x0, horizon = make_benchmark("pendulum")
    u0 = np.zeros((horizon, 1))
    with pytest.raises(NonDescentError):
        solve(model, cost, x0, u0, SolverConfig(method="ilqr"))
    result = solve(model, cost, x0, u0, SolverConfig(method="ddp"))
    assert (result.reason, result.iterations, result.trial_logs) == ("non_descent", 1, ())
    assert (result.records[0].status, result.records[0].dj_pred) == ("NON_DESCENT", 1.0)


def test_hybrid_after_a_ddp_failure_is_ilqr_from_the_controls_ddp_left():
    # Cart-pole T = 200 from a seeded amplitude-3 start: DDP ends NON_DESCENT
    # at iteration 13, and from iteration 14 on hybrid is an iLQR solve from
    # DDP's final controls, record for record. Its slow descent from there
    # is iLQR's, not the switch's.
    model, cost, x0, horizon = make_benchmark("cartpole")
    u0 = np.random.default_rng(105).uniform(-3.0, 3.0, (horizon, 1))
    budget = 40
    ddp = solve(model, cost, x0, u0, SolverConfig(method="ddp", max_iters=budget))
    assert (ddp.reason, ddp.iterations) == ("non_descent", 14)
    hybrid = solve(model, cost, x0, u0, SolverConfig(method="hybrid", max_iters=budget))
    ilqr = solve(model, cost, x0, ddp.trajectory.controls,
                 SolverConfig(method="ilqr", max_iters=budget - ddp.iterations))
    assert hybrid.reason == ilqr.reason == "max_iters"
    assert hybrid.records[:14] == ddp.records
    assert hybrid.records[14:] == tuple(replace(r, index=r.index + 14) for r in ilqr.records)
    assert repr(hybrid.trial_logs) == repr(
        ddp.trial_logs + tuple((index + 14, trials) for index, trials in ilqr.trial_logs))
    assert hybrid.trajectory.controls.tobytes() == ilqr.trajectory.controls.tobytes()
    # the iLQR solve's first rollout re-steps the trajectory DDP ended on
    assert hybrid.model_steps == ddp.model_steps + ilqr.model_steps - horizon
    tail = [r.cost for r in ilqr.records]
    assert all(b < a for a, b in zip(tail, tail[1:]))


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
    for settings in ({"method": "sqp"}, {"max_iters": 0}, {"max_iters": 2.5},
                     {"max_iters": True}, {"max_iters": 200.0}, {"max_iters": "2"}):
        with pytest.raises(ValueError):
            SolverConfig(**settings)
    # a numpy integer is a count too
    for count in (np.int64(3), np.int32(1)):
        assert SolverConfig(max_iters=count).max_iters == count


@pytest.mark.parametrize("settings", [{"grad_tol": 0.0}, {"step_tol": -1e-9},
                                      {"grad_tol": -1.0, "step_tol": 0.0},
                                      {"grad_tol": float("nan")},
                                      {"step_tol": float("nan")}])
def test_solver_config_rejects_non_positive_tolerances(settings):
    with pytest.raises(ValueError, match="tolerances must be positive"):
        SolverConfig(**settings)


@pytest.mark.parametrize("name", ["grad_tol", "step_tol"])
def test_solver_config_rejects_infinite_tolerances(name):
    # an infinite tolerance would report every solve converged after one
    # iteration, the pendulum's zero start at J = 986.96
    with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
        SolverConfig(**{name: np.inf})


def test_iteration_csv_round_trip(tmp_path):
    model, cost, x0, horizon = make_benchmark("pendulum")
    result = solve(model, cost, x0, random_controls(horizon, 1, seed=0),
                   SolverConfig(method="ilqr", max_iters=5))
    iter_path = tmp_path / "iterations.csv"
    write_iterations_csv(iter_path, result.records)
    lines = iter_path.read_text().splitlines()
    assert lines[0] == "index,J,dJ_pred,dJ_realized,alpha,min_quu,grad_norm,method,status"
    assert len(lines) == 1 + len(result.records)
    row = lines[1].split(",")
    assert float(row[1]) == result.records[0].cost
    assert row[7] == "ilqr"
    assert row[8] == "OK"

    trials_path = tmp_path / "trials.csv"
    write_trials_csv(trials_path, result.trial_logs)
    trial_lines = trials_path.read_text().splitlines()
    assert trial_lines[0] == "iteration,trial,alpha,J_candidate,ratio"
    assert len(trial_lines) > 1
