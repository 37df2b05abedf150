"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The seeded sweeps are session fixtures that solve each start
once: criteria 03, 04 and 09 and the feasibility sweep read `seed_sweeps`
from conftest.py, criteria 05 and 10 read `ddp_cartpole_sweep`, and
criterion 08 reads the zero-start iLQR runs of `cold_solves`.
"""

import math

import numpy as np
import pytest

from trajopt import (SolverConfig, backward_ddp, backward_ilqr,
                     backward_newton, cost_gradient_adjoint, expand_along,
                     make_benchmark, rollout, solve, verify_equivalence)
from trajopt.artifacts import prediction_row
from trajopt.backward import initial_multiplier_estimate
from trajopt.cli import main as cli_main
from trajopt.kkt import assemble_qp, solve_kkt

from conftest import SWEEP_BUDGETS, random_controls, swept_records

DEFAULT_SEED = 0


def _report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {verdict}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    worst = 0.0
    ok = True
    for system in ("pendulum", "cartpole"):
        model, cost, x0, _ = make_benchmark(system)
        for horizon in (1, 2, 5, 20):
            u0 = random_controls(horizon, model.control_dim, seed=horizon)
            exp = expand_along(model, cost, rollout(model, cost, x0, u0))
            lam = initial_multiplier_estimate(exp)
            reports = [
                verify_equivalence(backward_ilqr(exp), exp, tol=1e-8),
                verify_equivalence(backward_newton(exp, lam), exp, lam, tol=1e-8),
                verify_equivalence(backward_ddp(exp), exp, tol=1e-8),
            ]
            for report in reports:
                worst = max(worst, report.max_rel_err)
                ok = ok and report.passed
    _report(1, "backward passes match the banded KKT solves at 1e-8", ok,
            f"worst rel err {worst:.2e}")


def test_criterion_02_lqr_golden_case(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    u0 = random_controls(horizon, 1, seed=7)

    exp = expand_along(model, cost, rollout(model, cost, x0, u0))
    du = solve_kkt(assemble_qp(exp)).du
    optimum = rollout(model, cost, x0, u0 + du).cost

    ok = True
    details = []
    for method in ("ilqr", "newton", "ddp"):
        result = solve(model, cost, x0, u0, SolverConfig(method=method))
        rel = abs(result.final_cost - optimum) / max(1.0, abs(optimum))
        good = (result.converged and result.accepted_iterations == 1
                and result.records[0].alpha == 1.0 and rel <= 1e-8)
        ok = ok and good
        details.append(f"{method}: 1 step rel err {rel:.1e}")
    _report(2, "all methods solve the LQR instance in one full step", ok,
            "; ".join(details))


def test_criterion_03_ilqr_descent_and_monotonicity(seed_sweeps):
    violations = []
    for system, runs in seed_sweeps.items():
        for run in runs:
            seed, result = run.seed, run.ilqr
            ok_costs = [r.cost for r in result.records if r.status == "OK"]
            if not all(b < a for a, b in zip(ok_costs, ok_costs[1:])):
                violations.append(f"{system}/{seed}: non-monotone")
            for r in result.records:
                if r.status != "OK":
                    violations.append(f"{system}/{seed}: {r.status}")
                if r.alpha > 0 and r.dj_realized >= 0:
                    violations.append(f"{system}/{seed}: accepted increase")
            for r in swept_records(result):
                if r.alpha > 0 and r.dj_pred >= 0:
                    violations.append(f"{system}/{seed}: non-descent slope")
    _report(3, "iLQR always descends, decreases, and never hits the floor",
            not violations, "; ".join(violations) or "40/40 clean runs")


def test_criterion_04_ilqr_quu_positive(seed_sweeps):
    floor = 0.1 - 1e-10  # smallest eigenvalue of R under the defaults
    worst = min(r.min_quu for runs in seed_sweeps.values()
                for run in runs for r in swept_records(run.ilqr))
    _report(4, "iLQR control curvature never drops below min eig R",
            worst >= floor, f"worst min eig {worst:.6f} vs floor {floor:.6f}")


def test_criterion_05_ddp_failure_modes_exist(ddp_cartpole_sweep):
    indefinite_first = [seed for seed, _, r in ddp_cartpole_sweep
                        if any(rec.index == 0 and rec.min_quu < 0
                               for rec in swept_records(r))]
    bad_prediction = [seed for seed, _, r in ddp_cartpole_sweep
                      if any(rec.dj_pred > 0 or rec.cost + rec.dj_pred < 0
                             for rec in swept_records(r))]
    ok = bool(indefinite_first) and bool(bad_prediction)
    _report(5, "unregularized DDP exhibits indefinite Quu and bogus predictions",
            ok, f"first-sweep indefinite on seeds {indefinite_first}; "
                f"bad predictions on {len(bad_prediction)}/20 seeds")


def _matches_printed(computed, printed):
    # agreement to one unit in the fourth significant digit, the loose end
    # of values reported with 4-5 significant figures
    ulp = 10.0 ** (math.floor(math.log10(abs(printed))) - 3)
    return abs(computed - printed) <= ulp


def test_criterion_06_prediction_table_schema():
    # Reference diagnostic rows (J, dJ_pred, expected J_pred) rounded to 4-5
    # significant figures; the iteration-5 row of each set is the one whose
    # predicted cost undershoots the attainable minimum of zero.
    tables = {
        "pendulum": [
            (0, 701.4661, -377.7732, 323.6929),
            (2, 149.8840, -51.4378, 98.4462),
            (5, 2.872408e5, -3.3685e5, -4.9609e4),
        ],
        "cartpole": [
            (0, 8.897408e5, -8.1926e5, 7.0481e4),
            (3, 6.011446e5, -9.3269e4, 5.0788e5),
            (5, 4.998068e5, -3.6467e7, -3.5968e7),
        ],
    }
    ok = True
    details = []
    for system, rows in tables.items():
        for iteration, j, dj, j_pred_printed in rows:
            j_pred, feasible = prediction_row(j, dj)
            if not _matches_printed(j_pred, j_pred_printed):
                ok = False
                details.append(f"{system}@{iteration}: {j_pred} != {j_pred_printed}")
            if feasible != (iteration != 5):
                ok = False
                details.append(f"{system}@{iteration}: feasibility flag wrong")
    _report(6, "prediction table reproduces all six reference rows", ok,
            "; ".join(details) or "6/6 rows at printed precision, "
            "iteration-5 rows flagged infeasible")


def test_criterion_07_adjoint_gradient_correctness():
    horizons = {"pendulum": 30, "cartpole": 24}
    worst = 0.0
    for system, horizon in horizons.items():
        model, cost, x0, _ = make_benchmark(system)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            start = rng.uniform(model.state_low / 4, model.state_high / 4)
            controls = rng.uniform(-1.0, 1.0, size=(horizon, model.control_dim))
            traj = rollout(model, cost, start, controls)
            grad = cost_gradient_adjoint(expand_along(model, cost, traj))
            fd = np.zeros_like(grad)
            h = 1e-5
            for t in range(horizon):
                for j in range(model.control_dim):
                    up, dn = controls.copy(), controls.copy()
                    up[t, j] += h
                    dn[t, j] -= h
                    fd[t, j] = (rollout(model, cost, start, up).cost
                                - rollout(model, cost, start, dn).cost) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - grad) / (1.0 + np.abs(grad)))))
    _report(7, "adjoint gradient matches finite differences on 200 nominals",
            worst <= 1e-5, f"max rel err {worst:.2e}")


def test_criterion_08_benchmark_convergence_speed(cold_solves):
    # (max_iters, seconds); `cold_solves` solves with SWEEP_BUDGETS as max_iters
    budgets = {"pendulum": (200, 10.0), "cartpole": (500, 60.0)}
    ok = True
    details = []
    for system, (max_iters, seconds) in budgets.items():
        assert SWEEP_BUDGETS[system] == max_iters
        result, elapsed = cold_solves[system, "ilqr", "zero"]
        good = (result.converged and result.records[-1].grad_norm <= 1e-4
                and result.iterations <= max_iters and elapsed < seconds)
        ok = ok and good
        details.append(f"{system}: {result.iterations} iters, {elapsed:.2f}s")
    _report(8, "zero-init swing-ups converge within budget", ok, "; ".join(details))


def test_criterion_09_near_optimum_ordering(seed_sweeps):
    # DDP and iLQR restarted from an iLQR trajectory refined to grad 1e-2
    ok = True
    details = []
    for system, runs in seed_sweeps.items():
        holds = 0
        total = 0
        misses = []
        for run in runs:
            seed, ddp, ilqr = run.seed, run.ddp, run.tail
            if ilqr is None:
                misses.append(f"{seed}:no-warm-start")
                continue
            total += 1
            satisfied = (ddp.converged and ilqr.converged
                         and ddp.accepted_iterations <= ilqr.accepted_iterations)
            holds += satisfied
            if not satisfied:
                misses.append(str(seed))
            if seed == DEFAULT_SEED and not satisfied:
                ok = False
        details.append(f"{system}: ordering on {holds}/{total} seeds"
                       + (f", off on {','.join(misses)}" if misses else ""))
    _report(9, "warm-started DDP needs no more iterations than iLQR "
               "(default seed)", ok, "; ".join(details))


def test_criterion_10_hybrid_dominance(ddp_cartpole_sweep):
    # the seeds on which DDP had to accept a short step (alpha < 1e-2), the
    # runs where it struggles; hybrid must end no costlier there
    model, cost, x0, _ = make_benchmark("cartpole")
    short_steps = [(seed, u0, result) for seed, u0, result in ddp_cartpole_sweep
                   if any(r.status == "OK" and 0 < r.alpha < 1e-2
                          for r in result.records)]
    losses = []
    for seed, u0, ddp_result in short_steps:
        hybrid = solve(model, cost, x0, u0,
                       SolverConfig(method="hybrid", max_iters=200))
        if hybrid.final_cost > ddp_result.final_cost:
            losses.append(seed)
    _report(10, "hybrid ends no costlier than pure DDP on every seed where DDP "
                "accepted a step below 1e-2", not losses,
            f"{len(short_steps)} short-step seeds, losses on {losses or 'none'}")


def test_ilqr_prediction_feasibility_sweep(seed_sweeps):
    """Supporting sweep check: the iLQR quadratic model never predicts a cost
    below the attainable minimum of zero, on any swept record of any seeded
    run."""
    worst = min(r.cost + r.dj_pred for runs in seed_sweeps.values()
                for run in runs for r in swept_records(run.ilqr))
    ok = worst >= -1e-8 * max(1.0, abs(worst))
    print(f"[sweep check] iLQR predictions stay feasible: "
          f"{'PASS' if ok else 'FAIL'}  (min predicted cost {worst:.6e})")
    assert ok


def test_criterion_11_deterministic_csv_outputs(tmp_path):
    args = ["run", "--system", "pendulum", "--method", "ilqr",
            "--seed", "4", "--set", "init=random"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    csvs = ("iterations.csv", "quu_profile.csv", "trajectory.csv", "trials.csv")
    identical = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
                    for name in csvs)
    _report(11, "identical config and seed give byte-identical CSVs",
            identical, f"{len(csvs)} files compared")
