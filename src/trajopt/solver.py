"""Outer loop: one SQP iteration as three phases over a per-problem state.

A `SolveState` holds one problem's place in the loop: its nominal, active
method, threaded costates, records, trial logs, first sweep, model-step
count and stop reason. Each iteration runs three phases on it:
- `prepare(state)` expands along the nominal and tests the adjoint gradient.
  It returns the expansion to sweep, or None when the gradient has converged:
  that iteration runs no sweep (no Newton seed either), records no
  prediction and stops the solve;
- the caller sweeps: `backward_for(state.active, exp, state.costates)`;
- `advance(state, sol)` takes the step, alpha and status straight from the
  line search's outcome, records the iteration, switches a hybrid solve and
  tests for a stop. Only an iLQR NON_DESCENT raises, as NonDescentError: the
  cost-only sweep provably descends.
`solve` runs the phases on one state until it has a reason. The sweep alone
reads nothing of the state but its method and costates, so a lockstep driver
of many states would share only the sweep.

Only the sweep differs between methods. The Newton sweep threads its
costates across iterations: seeded from an iLQR sweep on the first nominal,
they are re-evaluated on each accepted path by `multipliers_from` (v_t + V_t
dx_t), so near a solution they agree with the sweep's own value gradients
and the step becomes the exact Newton step.

The hybrid method runs DDP until a DDP iteration fails, in NON_DESCENT or
FLOOR_HIT, then switches for good to iLQR from the unchanged nominal: iLQR
always yields a descent direction, while DDP can fail far from an optimum.
Its first sweep is always DDP's, and the record of the failed DDP iteration,
the last one whose method is "ddp", gives the switch's iteration and cause.

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
    "SolveState",
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


class SolveState:
    """One problem's place in the loop, from its first rollout `trajectory`."""

    def __init__(self, model, cost, config, trajectory):
        self.model, self.cost, self.config, self.trajectory = model, cost, config, trajectory
        self.active = "ddp" if config.method == "hybrid" else config.method
        self.model_steps = trajectory.horizon
        self.costates = self.first_sweep = self.reason = None  # reason: None while running
        self.records, self.trial_logs = [], []
        self.expansion = self.grad_norm = None  # the nominal's, set by `prepare`


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


def prepare(state):
    """Expand along the nominal and test its gradient: the expansion to sweep,
    or None after recording a converged gradient, which takes no step."""
    state.expansion = exp = expand_along(state.model, state.cost, state.trajectory)
    state.grad_norm = float(np.max(np.abs(cost_gradient_adjoint(exp))))
    if state.grad_norm > state.config.grad_tol:
        return exp
    record = IterationRecord(len(state.records), state.trajectory.cost, None, 0.0, 0.0,
                             None, state.grad_norm, state.active, "OK")
    state.records.append(record)
    state.reason = converged(record, state.config)
    return None


def advance(state, sol):
    """Line-search along `sol`, the sweep of `prepare`'s expansion, record the
    iteration and set the state's reason if it stops the solve."""
    traj, index, config = state.trajectory, len(state.records), state.config
    if state.active == "newton":
        state.costates = sol.costates
    if index == 0:
        state.first_sweep = sol
    dj_pred = expected_reduction(sol, state.expansion)
    min_quu = float(quu_spectrum(sol).min())
    # the full step's slope -sum_t g_t'k_t is twice dj_pred; the search accepts
    # a step or ends in NON_DESCENT or FLOOR_HIT, at alpha = 0 on the nominal
    outcome = line_search(state.model, state.cost, traj, sol, 2.0 * dj_pred)
    step, alpha, status = outcome.trajectory, outcome.alpha, outcome.status
    if status == "NON_DESCENT" and state.active == "ilqr":  # a bug, not a finding
        raise NonDescentError(f"iLQR direction predicts {dj_pred:.3e}")
    if outcome.trial_log:  # a NON_DESCENT search runs no trial
        state.trial_logs.append((index, outcome.trial_log))
    state.model_steps += outcome.steps
    record = IterationRecord(index, traj.cost, dj_pred, step.cost - traj.cost, alpha,
                             min_quu, state.grad_norm, state.active, status)
    state.records.append(record)

    if status != "OK":
        if config.method == "hybrid" and state.active == "ddp":
            state.active = "ilqr"  # for good, from the unchanged nominal
        else:
            state.reason = status.lower()
    elif alpha > 0:
        if state.active == "newton":
            state.costates = multipliers_from(sol, step.states - traj.states)
        state.trajectory = step
    state.reason = state.reason or converged(record, config) or (
        "max_iters" if index + 1 == config.max_iters else None)


def solve(model, cost, x0, init_controls, config):
    """Iterate one method to convergence, a terminal failure, or max_iters."""
    state = SolveState(model, cost, config, rollout(model, cost, x0, init_controls))
    while state.reason is None:
        exp = prepare(state)
        if exp is not None:
            advance(state, backward_for(state.active, exp, state.costates))
    return SolveResult(
        state.trajectory, tuple(state.records), state.reason in ("gradient", "step"),
        state.reason, tuple(state.trial_logs), state.first_sweep, state.model_steps)
