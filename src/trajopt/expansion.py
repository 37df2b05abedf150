"""Local model of the problem along a nominal trajectory.

One call collects, per timestep, the dynamics Jacobians and Hessian tensors
together with the cost derivatives, all evaluated on the nominal. Every
backward pass and the KKT oracle consume this one structure, so they are
guaranteed to linearize the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrajoptError

__all__ = ["ExpansionSequence", "expand_along"]


@dataclass(frozen=True, eq=False)
class ExpansionSequence:
    fx: np.ndarray    # (T, n, n)
    fu: np.ndarray    # (T, n, m)
    fxx: np.ndarray   # (T, n, n, n)
    fxu: np.ndarray   # (T, n, n, m)
    lx: np.ndarray    # (T, n)   stage cost gradient wrt state
    lxx: np.ndarray   # (T, n, n)
    ru: np.ndarray    # (T, m)   stage cost gradient wrt control (R u_t)
    r: np.ndarray     # (m, m)   constant control weight
    ct_x: np.ndarray  # (n,)     terminal gradient
    ct_xx: np.ndarray  # (n, n)  terminal Hessian

    @property
    def horizon(self) -> int:
        return self.fx.shape[0]

    @property
    def state_dim(self) -> int:
        return self.fx.shape[1]

    @property
    def control_dim(self) -> int:
        return self.fu.shape[2]


def expand_along(model, cost, traj) -> ExpansionSequence:
    """Evaluate all derivatives along a feasible nominal trajectory.

    Every stage depends only on its own (x_t, u_t), so the model and the cost
    are each called once on the whole batch of T stages.
    """
    horizon = traj.horizon
    n, m = model.state_dim, model.control_dim
    states, controls = traj.states[:-1], traj.controls
    fx, fu, fxx, fxu = model.derivatives(states, controls)
    lx, lxx, ru, r = cost.stage_derivatives(states, controls)

    blocks = (fx, fu, fxx, fxu, lx, lxx, ru)
    shapes = ((n, n), (n, m), (n, n, n), (n, n, m), (n,), (n, n), (m,))
    if any(b.shape != (horizon, *s) for b, s in zip(blocks, shapes)):
        raise DimensionError("the derivatives do not carry one entry per stage")
    finite = np.ones(horizon, dtype=bool)
    for block in blocks:
        finite &= np.isfinite(block).reshape(horizon, -1).all(axis=1)
    if not finite.all():
        raise TrajoptError(f"non-finite derivative at timestep {np.argmin(finite)}")

    ct_x, ct_xx = cost.terminal_derivatives(traj.states[-1])
    if not (np.isfinite(ct_x).all() and np.isfinite(ct_xx).all()):
        raise TrajoptError(f"non-finite terminal derivative at timestep {horizon}")

    return ExpansionSequence(
        fx=fx, fu=fu, fxx=fxx, fxu=fxu,
        lx=lx, lxx=lxx, ru=ru, r=np.asarray(r, dtype=float),
        ct_x=np.asarray(ct_x, dtype=float), ct_xx=np.asarray(ct_xx, dtype=float))
