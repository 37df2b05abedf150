"""Every file a run writes: the CSV tables and the JSON reports.

Numbers go through one formatter with 17 significant digits, so doubles
round-trip losslessly and identical inputs give byte-identical files. A value
that does not exist (a terminal control, the prediction of an iteration that
formed no sweep) is None and writes an empty cell. The numerical modules
compute; only this module and the CLI touch the disk.
"""

from __future__ import annotations

import json

import numpy as np

from .backward import quu_spectrum

__all__ = [
    "prediction_row",
    "write_iterations_csv",
    "write_trials_csv",
    "write_summary_json",
    "write_gain_profile_csv",
    "write_trajectory_csv",
    "write_verification_json",
    "write_merged_csv",
    "write_prediction_csv",
]


def _row(*cells) -> str:
    """One CSV line: strings verbatim, None empty, numbers with 17
    significant digits."""
    return ",".join(c if isinstance(c, str) else "" if c is None else f"{c:.17g}"
                    for c in cells)


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows):
    _write(path, "\n".join([header, *rows]))


def prediction_row(j, dj_pred):
    """Model-predicted next cost and whether it is attainable: the benchmark
    costs are bounded below by zero."""
    j_pred = j + dj_pred
    return j_pred, j_pred >= 0.0


def write_iterations_csv(path, records):
    _write_csv(
        path,
        "index,J,dJ_pred,dJ_realized,alpha,min_quu,grad_norm,method,status",
        (_row(r.index, r.cost, r.dj_pred, r.dj_realized, r.alpha, r.min_quu,
              r.grad_norm, r.method_active, r.status)
         for r in records))


def write_trials_csv(path, logs):
    _write_csv(
        path, "iteration,trial,alpha,J_candidate,ratio",
        (_row(iteration, trial, alpha, cost_val, ratio)
         for iteration, rows in logs
         for trial, (alpha, cost_val, ratio) in enumerate(rows)))


def write_summary_json(path, result, **fields):
    """The run's outcome plus `fields` (method, wall time, ...), keys sorted."""
    summary = {
        "converged": bool(result.converged),
        "reason": result.reason,
        "iterations": result.iterations,
        "final_cost": result.final_cost,
        "model_steps": result.model_steps,
        **fields,
    }
    _write(path, json.dumps(summary, indent=2, sort_keys=True))


def write_gain_profile_csv(path, sol):
    """Per-stage curvature and gain magnitudes: t, min eig Quu, |k|, ||K||_F.

    With no sweep (`sol` None: the run's first gradient had converged) the
    file is the header alone.
    """
    rows = []
    if sol is not None:
        spectrum = quu_spectrum(sol)
        rows = (_row(t, spectrum[t], np.linalg.norm(sol.k[t]), np.linalg.norm(sol.K[t]))
                for t in range(sol.horizon))
    _write_csv(path, "t,min_eig_quu,k_norm,K_norm", rows)


def write_trajectory_csv(path, traj, cost):
    """One row per timestep: t, state, control, stage cost.

    The final row holds the terminal state with empty control cells and the
    terminal cost in the cost column.
    """
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    header = ",".join(["t"] + [f"x{i}" for i in range(n)]
                      + [f"u{i}" for i in range(m)] + ["stage_cost"])
    stage = cost.stage_cost(traj.states[:-1], traj.controls).tolist()
    rows = [_row(t, *traj.states[t], *traj.controls[t], stage[t])
            for t in range(traj.horizon)]
    rows.append(_row(traj.horizon, *traj.states[-1], *([None] * m),
                     cost.terminal_cost(traj.states[-1])))
    _write_csv(path, header, rows)


def write_verification_json(path, reports):
    """One entry per check of each (system, report) pair; `T` is None for
    the derivative checks."""
    payload = [{"system": system, "certified": r.certified, "T": r.horizon, "check": c.name,
                "max_rel_err": c.max_rel_err, "worst": c.worst, "tol": c.tol,
                "pass": c.passed}
               for system, r in reports for c in r.checks]
    _write(path, json.dumps(payload, indent=2))


def write_merged_csv(path, results):
    """A multi-method run's merged trace: one row per (method, iteration)."""
    _write_csv(
        path, "method,iteration,J,alpha,min_quu,grad_norm,dJ_pred",
        (_row(method, r.index, r.cost, r.alpha, r.min_quu, r.grad_norm, r.dj_pred)
         for method, result in results for r in result.records))


def write_prediction_csv(path, results):
    """A multi-method run's prediction table: J + dJ_pred and whether it is attainable;
    the three cells are empty on a record that formed no sweep."""
    rows = []
    for method, result in results:
        for r in result.records:
            j_pred = feasible = None
            if r.dj_pred is not None:
                j_pred, attainable = prediction_row(r.cost, r.dj_pred)
                feasible = "true" if attainable else "false"
            rows.append(_row(method, r.index, r.cost, r.dj_pred, j_pred, feasible))
    _write_csv(path, "method,iteration,J,dJ_pred,J_pred,feasible", rows)
