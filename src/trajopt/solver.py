"""Outer loop: expand, sweep backward, line-search, repeat.

The loop is the same for every method; only the backward sweep changes. The
Newton sweep threads a costate sequence across iterations: it is seeded from
an iLQR sweep on the first nominal and afterwards re-evaluated on each
accepted path as v_t + V_t dx_t, so that near a solution the frozen costates
agree with the sweep's own value gradients and the step becomes the exact
Newton step.

The hybrid method runs DDP until its accepted steps cool below a threshold
for a configurable number of consecutive iterations (or a DDP iteration ends
in NON_DESCENT or FLOOR_HIT), then switches permanently to iLQR from the
current trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward import (backward_ddp, backward_ilqr, backward_newton, expected_reduction,
                       multipliers_from, quu_spectrum)
from .errors import NonDescentError
from .expansion import expand_along
from .kkt import cost_gradient_adjoint
from .linesearch import LineSearchConfig, line_search
from .trajectory import PerturbationPath, rollout

__all__ = [
    "SWEEPS",
    "METHODS",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "converged",
    "solve",
    "backward_for",
    "initial_multiplier_estimate",
]

SWEEPS = ("ilqr", "newton", "ddp")
METHODS = SWEEPS + ("hybrid",)


@dataclass(frozen=True)
class SolverConfig:
    method: str = "ilqr"
    max_iters: int = 200
    grad_tol: float = 1e-4   # inf-norm of the cost gradient
    step_tol: float = 1e-9   # |realized cost change|
    linesearch: LineSearchConfig = field(default_factory=LineSearchConfig)
    hybrid_alpha_switch: float = 1e-2
    hybrid_patience: int = 2

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        for name in ("max_iters", "hybrid_patience"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 1:
                raise ValueError(f"{name} must be positive")
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    cost: float          # nominal cost at the start of the iteration
    dj_pred: float       # quadratic-model prediction at alpha = 1
    dj_realized: float   # realized change after the accepted step
    alpha: float         # accepted step, 0 when no step was taken
    min_quu: float       # min over stages of the smallest Quu eigenvalue
    grad_norm: float     # inf-norm of the exact cost gradient at the nominal
    linear_pred: float   # full step's slope d'grad = -sum_t g_t'k_t = 2 dj_pred
    method_active: str
    status: str          # "OK", "NON_DESCENT", or "FLOOR_HIT"


@dataclass(frozen=True, eq=False)
class SolveResult:
    trajectory: object
    records: tuple
    converged: bool
    reason: str
    multipliers: np.ndarray | None = None  # threaded costates (Newton only)
    trial_logs: tuple = ()  # (iteration, ((alpha, J_candidate, ratio), ...)) rows
    first_sweep: object = None  # the BackwardSolution of iteration 0
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


def initial_multiplier_estimate(exp) -> np.ndarray:
    """Costate seed for the first Newton sweep: value gradients of an iLQR
    sweep on the same expansion, the stacked subproblem's multiplier estimate
    at zero deviation."""
    return backward_ilqr(exp).v.copy()


def backward_for(method, exp, multipliers=None):
    """The backward sweep of one method in SWEEPS on `exp`.

    Returns (sweep, costates): Newton contracts the given costates, seeded by
    `initial_multiplier_estimate` when there are none yet; the other sweeps
    pass them through unchanged.
    """
    if method == "ilqr":
        return backward_ilqr(exp), multipliers
    if method == "ddp":
        return backward_ddp(exp), multipliers
    if multipliers is None:
        multipliers = initial_multiplier_estimate(exp)
    return backward_newton(exp, multipliers), multipliers


def solve(model, cost, x0, init_controls, config):
    """Iterate one method to convergence, a terminal failure, or max_iters."""
    hybrid = config.method == "hybrid"
    traj = rollout(model, cost, x0, init_controls)
    model_steps = traj.horizon
    records = []
    trial_logs = []
    first_sweep = lam_bar = None
    active = "ddp" if hybrid else config.method
    # Seed the cooling streak as if alpha_init had already been accepted
    # `patience` times: a switch threshold above alpha_init can then never be
    # outrun, and the run degenerates to pure iLQR from the first iteration.
    streak = 0
    if hybrid and config.linesearch.alpha_init < config.hybrid_alpha_switch:
        streak = config.hybrid_patience
    reason = "max_iters"

    for index in range(config.max_iters):
        if hybrid and active == "ddp" and streak >= config.hybrid_patience:
            active = "ilqr"

        exp = expand_along(model, cost, traj)
        grad_norm = float(np.max(np.abs(cost_gradient_adjoint(exp))))
        sol, lam_bar = backward_for(active, exp, lam_bar)
        if index == 0:
            first_sweep = sol
        dj_pred = expected_reduction(sol, exp, 1.0)
        min_quu = float(quu_spectrum(sol).min())

        # A converged gradient takes no step; otherwise the line search
        # accepts one or ends the iteration in NON_DESCENT or FLOOR_HIT.
        status, linear_pred, accepted = "OK", 0.0, None
        if grad_norm > config.grad_tol:
            linear_pred = 2.0 * dj_pred
            try:
                outcome = line_search(model, cost, traj, sol, linear_pred,
                                      config.linesearch)
            except NonDescentError:
                if active == "ilqr":
                    # The cost-only sweep provably yields a descent direction;
                    # reaching this line means a bug, not a method failure.
                    raise
                status = "NON_DESCENT"
            else:
                trial_logs.append((index, outcome.trial_log))
                model_steps += outcome.steps
                if outcome.status == "ACCEPTED":
                    accepted = outcome
                else:
                    status = "FLOOR_HIT"

        step, alpha = (accepted.trajectory, accepted.alpha) if accepted else (traj, 0.0)
        record = IterationRecord(
            index, traj.cost, dj_pred, step.cost - traj.cost, alpha, min_quu,
            grad_norm, linear_pred, active, status)
        records.append(record)

        if status != "OK":
            if hybrid and active == "ddp":
                streak = config.hybrid_patience  # switch to iLQR next iteration
                continue
            reason = status.lower()
            break

        if accepted:
            if active == "newton":
                path = PerturbationPath(step.states - traj.states,
                                        step.controls - traj.controls)
                lam_bar = -multipliers_from(sol, path)
            if hybrid and active == "ddp":
                streak = streak + 1 if alpha < config.hybrid_alpha_switch else 0
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
