"""Dense whole-trajectory QP oracle.

Stacks the local quadratic subproblem over the full horizon, solves its KKT
system by dense LU with partial pivoting, and certifies the Riccati sweeps
against that direct solve. This module exists for verification, not speed:
horizons are capped so the dense factorization stays trivially cheap.

Variable stacking: z = (dx_1 .. dx_T, du_0 .. du_{T-1}); dx_0 is fixed at
zero and is not a variable. Constraint row t enforces
dx_{t+1} - fx_t dx_t - fu_t du_t = 0, so the equality multipliers returned by
the KKT solve line up with lam_1 .. lam_T of `multipliers_from` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .backward import multipliers_from
from .errors import KktError
from .trajectory import linear_rollout

__all__ = [
    "DenseQP",
    "KktSolution",
    "MAX_ORACLE_HORIZON",
    "assemble_qp",
    "solve_kkt",
    "split_primal",
    "cost_gradient_adjoint",
    "VerificationReport",
    "verify_equivalence",
]

MAX_ORACLE_HORIZON = 50

RESIDUAL_SCALE = 1e-9  # KKT residual bound, scaled by 1 + input norms


@dataclass(frozen=True, eq=False)
class DenseQP:
    """min g'z + 0.5 z'Hz subject to A z = 0 over the stacked variables."""

    hessian: np.ndarray      # (N, N), symmetric
    gradient: np.ndarray     # (N,)
    constraints: np.ndarray  # (T n, N)
    horizon: int
    state_dim: int
    control_dim: int
    variant: str


@dataclass(frozen=True, eq=False)
class KktSolution:
    dz: np.ndarray           # (N,) stacked primal step
    multipliers: np.ndarray  # (T n,) stacked equality multipliers
    residual: float          # inf-norm of the KKT equations at the solution


def assemble_qp(exp, variant, multipliers=None) -> DenseQP:
    """Stack the quadratic subproblem matching one backward pass.

    variant "ilqr": block-diagonal Hessian from the cost expansion only.
    variant "newton": adds, per stage, the dynamics Hessian tensors contracted
    with the supplied (T+1, n) multiplier sequence, including the cross blocks
    between dx_t and du_t. Stage 0 contributes no such blocks because dx_0 is
    pinned to zero.
    """
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    if horizon > MAX_ORACLE_HORIZON:
        raise KktError(
            f"oracle horizon {horizon} exceeds the cap {MAX_ORACLE_HORIZON}")
    if variant not in ("ilqr", "newton"):
        raise ValueError(f"unknown variant '{variant}'")
    if variant == "newton":
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (horizon + 1, n):
            raise ValueError("multiplier sequence must have shape (T+1, n)")

    nx = n * horizon
    size = nx + m * horizon

    def ix(t):  # state block of dx_t, 1 <= t <= T
        return slice((t - 1) * n, t * n)

    def iu(t):  # control block of du_t, 0 <= t <= T-1
        return slice(nx + t * m, nx + (t + 1) * m)

    hess = np.zeros((size, size))
    grad = np.zeros(size)
    for t in range(horizon):
        hess[iu(t), iu(t)] = exp.r
        grad[iu(t)] = exp.ru[t]
        if t >= 1:
            hess[ix(t), ix(t)] = exp.lxx[t]
            grad[ix(t)] = exp.lx[t]
    hess[ix(horizon), ix(horizon)] = exp.ct_xx
    grad[ix(horizon)] = exp.ct_x

    if variant == "newton":
        for t in range(1, horizon):
            w = multipliers[t + 1]
            hess[ix(t), ix(t)] += np.einsum("i,ijk->jk", w, exp.fxx[t])
            cross = np.einsum("i,ijk->jk", w, exp.fxu[t])  # (n, m)
            hess[ix(t), iu(t)] += cross
            hess[iu(t), ix(t)] += cross.T

    rows = n * horizon
    constraints = np.zeros((rows, size))
    for t in range(horizon):
        block = slice(t * n, (t + 1) * n)
        constraints[block, ix(t + 1)] = np.eye(n)
        if t >= 1:
            constraints[block, ix(t)] = -exp.fx[t]
        constraints[block, iu(t)] = -exp.fu[t]

    return DenseQP(hessian=hess, gradient=grad, constraints=constraints,
                   horizon=horizon, state_dim=n, control_dim=m, variant=variant)


def solve_kkt(qp) -> KktSolution:
    """Solve [H A'; A 0] [dz; lam] = [-g; 0] by dense LU with pivoting."""
    size = qp.gradient.shape[0]
    rows = qp.constraints.shape[0]
    kkt = np.zeros((size + rows, size + rows))
    kkt[:size, :size] = qp.hessian
    kkt[:size, size:] = qp.constraints.T
    kkt[size:, :size] = qp.constraints
    rhs = np.concatenate([-qp.gradient, np.zeros(rows)])

    try:
        lu, piv = scipy.linalg.lu_factor(kkt)
        solution = scipy.linalg.lu_solve((lu, piv), rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        cond = float(np.linalg.cond(kkt)) if size + rows <= 2000 else float("inf")
        raise KktError(f"singular KKT matrix (cond estimate {cond:.3e}): {exc}") from exc
    if not np.isfinite(solution).all():
        cond = float(np.linalg.cond(kkt))
        raise KktError(f"KKT solve produced non-finite values (cond estimate {cond:.3e})")

    residual = float(np.max(np.abs(kkt @ solution - rhs)))
    scale = 1.0 + float(np.max(np.abs(qp.gradient), initial=0.0))
    if residual > RESIDUAL_SCALE * scale:
        raise KktError(f"KKT residual {residual:.3e} exceeds {RESIDUAL_SCALE * scale:.3e}")

    dz = solution[:size]
    lam = solution[size:]
    if rows:
        constraint_err = float(np.max(np.abs(qp.constraints @ dz)))
        if constraint_err > 1e-9 * scale:
            raise KktError(f"constraint violation {constraint_err:.3e} after KKT solve")
    return KktSolution(dz=dz, multipliers=lam, residual=residual)


def split_primal(qp, dz):
    """Unstack dz into (dx, du) with dx including the pinned dx_0 = 0 row."""
    n, m, horizon = qp.state_dim, qp.control_dim, qp.horizon
    nx = n * horizon
    dx = np.zeros((horizon + 1, n))
    dx[1:] = dz[:nx].reshape(horizon, n)
    du = dz[nx:].reshape(horizon, m)
    return dx, du


def cost_gradient_adjoint(exp) -> np.ndarray:
    """Exact gradient of the total cost wrt each control, by one adjoint sweep.

    nu_T = C_x, nu_t = l_x + fx' nu_{t+1}; the gradient at stage t is
    R u_t + fu' nu_{t+1}. Matches central finite differences of the rolled-out
    cost and costs one backward pass instead of 2 T m rollouts.
    """
    horizon, m = exp.horizon, exp.control_dim
    grad = np.zeros((horizon, m))
    nu = exp.ct_x.copy()
    for t in reversed(range(horizon)):
        grad[t] = exp.ru[t] + exp.fu[t].T @ nu
        nu = exp.lx[t] + exp.fx[t].T @ nu
    return grad


@dataclass(frozen=True)
class VerificationReport:
    variant: str
    horizon: int
    err_dx: float
    err_du: float
    err_lam: float
    worst_timestep: int
    tol: float
    passed: bool

    @property
    def max_rel_err(self) -> float:
        return max(self.err_dx, self.err_du, self.err_lam)

    def summary(self) -> str:
        status = "ok" if self.passed else f"FAIL at t={self.worst_timestep}"
        return (f"{self.variant:6s} T={self.horizon:<3d} "
                f"rel err dx={self.err_dx:.3e} du={self.err_du:.3e} "
                f"lam={self.err_lam:.3e}  {status}")


def _block_err(candidate, reference, t_offset=0):
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    diff = np.abs(candidate - reference)
    err = float(np.max(diff, initial=0.0))
    worst = int(np.unravel_index(np.argmax(diff), diff.shape)[0]) if diff.size else 0
    return err / scale, worst + t_offset


def verify_equivalence(sol, exp, multipliers=None, tol=1e-8) -> VerificationReport:
    """Compare one backward sweep against the direct dense KKT solve.

    The sweep's full step (alpha = 1 linear rollout) and its multiplier
    sequence must reproduce the QP minimizer and equality multipliers. iLQR
    is checked against the cost-only Hessian; Newton against the stacked
    problem carrying its own multiplier sequence; DDP against the stacked
    problem carrying the value gradients it contracted with, since the DDP
    sweep is exactly the Newton sweep under that substitution.
    """
    if sol.method == "ilqr":
        qp = assemble_qp(exp, "ilqr")
    elif sol.method == "newton":
        if multipliers is None:
            raise ValueError("newton verification needs the multiplier sequence")
        qp = assemble_qp(exp, "newton", multipliers)
    elif sol.method == "ddp":
        qp = assemble_qp(exp, "newton", sol.v)
    else:
        raise ValueError(f"unknown method '{sol.method}'")

    ksol = solve_kkt(qp)
    dx_qp, du_qp = split_primal(qp, ksol.dz)
    lam_qp = ksol.multipliers.reshape(qp.horizon, qp.state_dim)

    path = linear_rollout(exp, sol, 1.0)
    lam_sweep = multipliers_from(sol, path)

    err_dx, t_dx = _block_err(path.dx[1:], dx_qp[1:], t_offset=1)
    err_du, t_du = _block_err(path.du, du_qp)
    err_lam, t_lam = _block_err(lam_sweep[1:], lam_qp, t_offset=1)

    if sol.method == "ilqr":
        # Descent certificate of the cost-only subproblem: on the constraint
        # kernel the step satisfies dz'g = -dz'H dz < 0 unless it is zero.
        directional = float(ksol.dz @ qp.gradient)
        curvature = float(ksol.dz @ qp.hessian @ ksol.dz)
        scale = max(1.0, abs(curvature))
        if abs(directional + curvature) > 1e-7 * scale:
            raise KktError("descent certificate identity violated")
        if np.max(np.abs(ksol.dz)) > 1e-10 and directional >= 0.0:
            raise KktError("stacked QP step failed to be a descent direction")

    errs = {"dx": (err_dx, t_dx), "du": (err_du, t_du), "lam": (err_lam, t_lam)}
    worst_block = max(errs, key=lambda k: errs[k][0])
    return VerificationReport(
        variant=qp.variant, horizon=qp.horizon,
        err_dx=err_dx, err_du=err_du, err_lam=err_lam,
        worst_timestep=errs[worst_block][1], tol=tol,
        passed=max(err_dx, err_du, err_lam) <= tol)

