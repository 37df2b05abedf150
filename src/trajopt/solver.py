"""Outer loop: expand, sweep backward, line-search, repeat.

This module holds the loop alone: `backward.backward_for` picks its sweep,
and `expansion.cost_gradient_adjoint` gives the gradient it tests. The loop is
the same for every method; only the backward sweep changes. The Newton sweep
threads a costate sequence across iterations: it is seeded from an iLQR sweep
on the first nominal and afterwards re-evaluated on each accepted path by
`multipliers_from` (v_t + V_t dx_t), so that near a solution the frozen
costates agree with the sweep's own value gradients and the step becomes the
exact Newton step.

The hybrid method runs DDP until a DDP iteration fails, in NON_DESCENT or
FLOOR_HIT, then switches for good to iLQR from the unchanged nominal: iLQR
always yields a descent direction, while DDP can fail far from an optimum.
Its first sweep is always DDP's, and the record of the failed DDP iteration,
the last one whose method is "ddp", gives the switch's iteration and cause.

Each iteration tests the adjoint gradient before it forms a subproblem: an
iteration whose gradient has converged runs no sweep (and so no Newton seed),
records no prediction and stops the solve. Otherwise it takes its step, alpha
and status straight from the line search's outcome. Only an iLQR NON_DESCENT
raises, as NonDescentError: the cost-only sweep provably descends.

One flat SolverConfig holds every setting of the loop. The line search takes
none: its SIGMA and its steps ALPHAS are constants of linesearch.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import SWEEPS, backward_for, expected_reduction, multipliers_from, quu_spectrum
from .backward import initial_multiplier_estimate  # kept for perfbench: tracer.py, workloads.py
from .errors import NonDescentError
from .expansion import cost_gradient_adjoint, expand_along
from .linesearch import line_search
from .models import checked_count, is_a
from .trajectory import rollout

__all__ = [
    "METHODS",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "converged",
    "solve",
]

METHODS = SWEEPS + ("hybrid",)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "ilqr"
    max_iters: int = 200
    grad_tol: float = 1e-4   # inf-norm of the cost gradient
    step_tol: float = 1e-9   # |realized cost change|

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        checked_count("max_iters", self.max_iters)
        # a NaN fails each check; an infinite tolerance would stop every solve at once
        if not all(is_a(tol) and 0 < tol < np.inf for tol in (self.grad_tol, self.step_tol)):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    cost: float          # nominal cost at the start of the iteration
    dj_pred: float | None  # quadratic-model prediction at alpha = 1
    dj_realized: float   # realized change after the accepted step
    alpha: float         # accepted step, 0 when no step was taken
    min_quu: float | None  # min over stages of the smallest Quu eigenvalue
    grad_norm: float     # inf-norm of the exact cost gradient at the nominal
    method_active: str
    status: str          # "OK", "NON_DESCENT", or "FLOOR_HIT"
    # dj_pred and min_quu are None exactly on the record of an iteration
    # whose gradient had converged: it formed no sweep.


@dataclass(frozen=True, eq=False)
class SolveResult:
    trajectory: object
    records: tuple
    converged: bool
    reason: str
    multipliers: np.ndarray | None = None  # threaded costates (Newton, once seeded)
    trial_logs: tuple = ()  # (iteration, ((alpha, J_candidate, ratio), ...)) rows
    # the BackwardSolution of iteration 0; None when its gradient had
    # converged, since such an iteration forms no sweep
    first_sweep: object = None
    model_steps: int = 0  # model points stepped: the first rollout and every trial

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def accepted_iterations(self) -> int:
        return sum(1 for r in self.records if r.status == "OK" and r.alpha > 0)

    @property
    def final_cost(self) -> float:
        return self.trajectory.cost


def converged(record, config) -> str | None:
    """Closed-threshold convergence test on one iteration record.

    Returns the stop reason, "gradient" or "step", or None if the record
    meets neither threshold.
    """
    if record.status != "OK":
        return None
    if record.grad_norm <= config.grad_tol:
        return "gradient"
    if abs(record.dj_realized) <= config.step_tol:
        return "step"
    return None


def solve(model, cost, x0, init_controls, config):
    """Iterate one method to convergence, a terminal failure, or max_iters."""
    hybrid = config.method == "hybrid"
    traj = rollout(model, cost, x0, init_controls)
    model_steps = traj.horizon
    records = []
    trial_logs = []
    first_sweep = lam_bar = None
    active = "ddp" if hybrid else config.method
    reason = "max_iters"

    for index in range(config.max_iters):
        exp = expand_along(model, cost, traj)
        grad_norm = float(np.max(np.abs(cost_gradient_adjoint(exp))))

        # A converged gradient forms no sweep and takes no step; otherwise the
        # line search accepts one or ends the iteration in NON_DESCENT or
        # FLOOR_HIT, at alpha = 0 on the unchanged nominal.
        status, step, alpha, dj_pred, min_quu = "OK", traj, 0.0, None, None
        if grad_norm > config.grad_tol:
            sol = backward_for(active, exp, lam_bar)
            if active == "newton":
                lam_bar = sol.costates
            if index == 0:
                first_sweep = sol
            dj_pred = expected_reduction(sol, exp)
            min_quu = float(quu_spectrum(sol).min())
            # the full step's slope -sum_t g_t'k_t is twice dj_pred
            outcome = line_search(model, cost, traj, sol, 2.0 * dj_pred)
            step, alpha, status = outcome.trajectory, outcome.alpha, outcome.status
            if status == "NON_DESCENT" and active == "ilqr":
                # The cost-only sweep provably yields a descent direction;
                # reaching this line means a bug, not a method failure.
                raise NonDescentError(f"iLQR direction predicts {dj_pred:.3e}")
            if outcome.trial_log:  # a NON_DESCENT search runs no trial
                trial_logs.append((index, outcome.trial_log))
            model_steps += outcome.steps

        record = IterationRecord(
            index, traj.cost, dj_pred, step.cost - traj.cost, alpha, min_quu,
            grad_norm, active, status)
        records.append(record)

        if status != "OK":
            if hybrid and active == "ddp":
                active = "ilqr"  # for good, from the unchanged nominal
                continue
            reason = status.lower()
            break

        if alpha > 0:
            if active == "newton":
                lam_bar = multipliers_from(sol, step.states - traj.states)
            traj = step

        stop = converged(record, config)
        if stop:
            reason = stop
            break

    return SolveResult(
        trajectory=traj, records=tuple(records),
        converged=reason in ("gradient", "step"), reason=reason,
        multipliers=lam_bar, trial_logs=tuple(trial_logs),
        first_sweep=first_sweep, model_steps=model_steps)
