"""Forward pass on the nonlinear system with backtracking step acceptance.

Every search tries the steps of ALPHAS in turn: alpha = 1, halved after each
rejected trial, down to 2^-26, the last power of 1/2 not below 1e-8. A
candidate step is accepted when the realized cost change is more than a
SIGMA = 0.1 fraction of its first-order prediction:

    (J_new - J_old) / (alpha * d'grad) > SIGMA,

with d'grad the full step's slope along the exact cost gradient. The step z*
minimizes the sweep's subproblem g'z + 1/2 z'Hz subject to the linearized
dynamics Az = 0, so g'z* = -z*'Hz*: the slope is -sum_t g_t'k_t, twice
`expected_reduction`, read off the sweep. It is negative for a descent
direction, so acceptance implies a strict cost decrease. If it is not (possible
for the Newton and DDP sweeps), shrinking alpha cannot fix the sign: the
search runs no trial and returns NON_DESCENT. Its statuses are those of
`IterationRecord`: "OK", "FLOOR_HIT" or "NON_DESCENT".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .trajectory import Trajectory, _propagate, linear_rollout

__all__ = [
    "LineSearchOutcome",
    "forward_pass",
    "directional_derivative",
    "line_search",
]

SIGMA = 0.1  # threshold on the realized/predicted ratio
ALPHAS = tuple(0.5 ** j for j in range(27))  # the trial steps, 1 down to 2^-26


@dataclass(frozen=True, eq=False)
class LineSearchOutcome:
    trajectory: Trajectory
    alpha: float
    status: str  # "OK", "FLOOR_HIT" or "NON_DESCENT"
    trial_log: tuple = field(default_factory=tuple)  # (alpha, cost, ratio) rows
    steps: int = 0  # model points stepped by the trials


def forward_pass(model, cost, nominal, sol, alpha) -> Trajectory:
    """Apply the gains to the nonlinear system along the nominal.

    u_t = ubar_t - alpha k_t - K_t (x_t - xbar_t), rolled through the true
    dynamics from the nominal's initial state. Raises DivergenceError if the
    closed-loop rollout blows up, which callers treat as a rejected step, and
    DimensionError for gains of another shape than the nominal's.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    sol.check_gains(*nominal.controls.shape, nominal.states.shape[1], "nominal")
    return _propagate(model, cost, nominal.states[0], nominal.controls - alpha * sol.k,
                      (sol.K, nominal.states))


def directional_derivative(exp, sol, grad) -> float:
    """d'grad of the full step's linearized du: checks the sweep's slope."""
    _, du = linear_rollout(exp, sol)
    return float(np.sum(du * grad))


def line_search(model, cost, nominal, sol, slope) -> LineSearchOutcome:
    """Try the steps of ALPHAS until the ratio test accepts one, or hit the
    floor once every step is rejected.

    `slope` is the full step's d'grad: `solve` passes the sweep's
    -sum_t g_t'k_t. A slope that predicts no decrease, NaN included,
    returns NON_DESCENT before any forward pass. NON_DESCENT and FLOOR_HIT
    outcomes return the nominal unchanged, at alpha = 0.
    """
    if not slope < 0.0:
        return LineSearchOutcome(nominal, 0.0, "NON_DESCENT")
    log = []
    steps = 0
    for alpha in ALPHAS:
        try:
            candidate = forward_pass(model, cost, nominal, sol, alpha)
        except DivergenceError as exc:
            steps += exc.timestep  # the points stepped up to the bad state
            log.append((alpha, float("inf"), float("nan")))
            continue
        steps += nominal.horizon
        ratio = (candidate.cost - nominal.cost) / (alpha * slope)
        log.append((alpha, candidate.cost, ratio))
        if ratio > SIGMA:
            return LineSearchOutcome(candidate, alpha, "OK", tuple(log), steps)
    return LineSearchOutcome(nominal, 0.0, "FLOOR_HIT", tuple(log), steps)
