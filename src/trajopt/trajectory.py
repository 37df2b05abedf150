"""Trajectory container, nonlinear rollout, and linearized rollout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError

__all__ = [
    "Trajectory",
    "STATE_MAGNITUDE_LIMIT",
    "total_cost",
    "rollout",
    "linear_rollout",
]

# Rollouts abort once any state component passes this magnitude. Without a
# guard, an over-long step on an unstable system overflows to inf and poisons
# every cost comparison downstream; the line search instead sees a rejection
# and shrinks the step.
STATE_MAGNITUDE_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States x_0..x_T, controls u_0..u_{T-1}, and their total cost."""

    states: np.ndarray   # (T+1, n)
    controls: np.ndarray  # (T, m)
    cost: float

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]


def total_cost(cost, states, controls) -> float:
    """Sum of stage costs plus the terminal cost.

    Accumulates left to right in plain float arithmetic so repeated calls on
    the same data are bit-identical.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if states.shape[0] != controls.shape[0] + 1:
        raise DimensionError("need exactly one more state than controls")
    j = 0.0
    for stage in cost.stage_cost(states[:-1], controls).tolist():
        j += stage
    return j + cost.terminal_cost(states[-1])


def rollout(model, cost, x0, controls) -> Trajectory:
    """Roll the controls through the nonlinear dynamics and price the result.

    Raises DivergenceError naming the offending timestep if any state goes
    non-finite or beyond STATE_MAGNITUDE_LIMIT.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    # a copy: the returned Trajectory must not share the caller's array
    u_seq = np.atleast_2d(np.array(controls, dtype=float))
    if u_seq.shape[0] < 1:
        raise DimensionError("need at least one control")
    return _propagate(model, cost, x0, u_seq)


def _feedback(ubar, gain, x, xbar):
    """ubar - gain (x - xbar) on lists of floats, each row summed left to right."""
    u = []
    for u_i, row in zip(ubar, gain):
        acc = 0.0
        for k, a, b in zip(row, x, xbar):
            acc += k * (a - b)
        u.append(u_i - acc)
    return u


def _propagate(model, cost, x0, controls, feedback=None) -> Trajectory:
    """Step x0 through the dynamics and price the result: the one nonlinear
    propagation behind `rollout` and the line search's forward pass.

    With feedback (K, xbar), control t is controls[t] - K_t (x_t - xbar_t)
    (`_feedback`). `step` checks x0 and u_0, one call the other controls (a
    bad input raises DimensionError); the inputs are split into lists once,
    and the loop steps floats through `_step` with no numpy call. The first
    x_t non-finite or beyond STATE_MAGNITUDE_LIMIT raises DivergenceError(t),
    so a feedback control that overflows to +-inf at t >= 1 raises at t + 1.
    """
    horizon = controls.shape[0]
    if not np.isfinite(controls[1:]).all():
        raise DimensionError("non-finite control input")
    rows, step, start = controls.tolist(), model._step, x0.tolist()
    gains, xbar = (None, None) if feedback is None else (a.tolist() for a in feedback)
    u = rows[0] if gains is None else _feedback(rows[0], gains[0], start, xbar[0])
    x = model.step(x0, u).tolist()
    states, applied = start + x, list(u)  # flat lists, shaped after the loop
    for t in range(1, horizon + 1):
        for c in x:
            if not abs(c) <= STATE_MAGNITUDE_LIMIT:  # NaN fails too
                raise DivergenceError(t)
        if t == horizon:
            break
        u = rows[t] if gains is None else _feedback(rows[t], gains[t], x, xbar[t])
        x = step(x, u)
        states.extend(x)  # not +=, which adds elementwise if _step returns an array
        applied.extend(u)
    states = np.array(states).reshape(horizon + 1, -1)
    controls = controls if gains is None else np.array(applied).reshape(controls.shape)
    return Trajectory(states, controls, total_cost(cost, states, controls))


def linear_rollout(exp, sol):
    """Propagate the gains through the linearized dynamics: the deviations
    (dx, du) from the nominal, (T+1, n) and (T, m), as `kkt.split_primal`.

    du_t = -k_t - K_t dx_t with dx_0 = 0: the full step, the exact minimizer
    of the quadratic subproblem the gains came from (certified by the KKT
    oracle). The path of a step alpha, `linear_rollout(exp, replace(sol,
    k=alpha * sol.k))`, is alpha times it, bit for bit on `linesearch.ALPHAS`.
    """
    horizon = exp.horizon
    sol.check_gains(horizon, exp.control_dim, exp.state_dim, "expansion")
    dx, du = [np.zeros(exp.fx.shape[1])], []
    dx_t, feedforward, gains, fx, fu, dot = dx[0], -sol.k, sol.K, exp.fx, exp.fu, np.dot
    for t in range(horizon):
        du_t = feedforward[t] - dot(gains[t], dx_t)
        dx_t = dot(fx[t], dx_t) + dot(fu[t], du_t)
        dx.append(dx_t)
        du.append(du_t)
    return np.array(dx), np.array(du)

