"""Whole-trajectory QP oracle, solved as one banded KKT system.

Stacks the local quadratic subproblem min g'z + 0.5 z'Hz s.t. A z = 0 over
the full horizon and certifies the Riccati sweeps against a direct solve of
its KKT system [H A'; A 0] [dz; lam] = [-g; 0]. Ordered stage by stage,
(du_t, lam_{t+1}, dx_{t+1}) for t = 0 .. T-1, the matrix is banded with
half-bandwidth at most 2n + m - 1 at any horizon. The Riccati sweep is a
block factorization of this same matrix (Rao, Wright & Rawlings, JOTA 1998);
the oracle factors it independently, by LAPACK's banded LU with partial
pivoting. Its nonzero entries are kept as (row, col, value) triplets, and
every check reads them.

dx_0 is fixed at zero and is not an unknown. Constraint t enforces
fx_t dx_t + fu_t du_t - dx_{t+1} = 0, so the equality multipliers returned by
the KKT solve are the costates lam_1 .. lam_T of `multipliers_from`, with the
sweep's own sign.

Within the package only the CLI (and `__init__`) imports this module: no
code a solve runs depends on the oracle that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import multipliers_from
from .errors import DimensionError, KktError
from .expansion import cost_gradient_adjoint  # kept for perfbench/tracer.py
from .trajectory import linear_rollout

__all__ = ["StackedQP", "KktSolution", "assemble_qp", "solve_kkt", "split_primal",
           "VerificationReport", "verify_equivalence"]

RESIDUAL_SCALE = 1e-9  # KKT residual bound, scaled by 1 + input norms


@dataclass(frozen=True, eq=False)
class StackedQP:
    """The KKT matrix of min g'z + 0.5 z'Hz s.t. A z = 0 as triplets over its
    unknowns, z and lam interleaved; repeated (row, col) pairs add up."""

    rows: np.ndarray      # (nnz,) int
    cols: np.ndarray      # (nnz,) int
    values: np.ndarray    # (nnz,)
    gradient: np.ndarray  # (K,) g on the entries of z, 0 on those of lam
    primal: np.ndarray    # (K,) bool, True on the entries of z
    horizon: int
    state_dim: int
    control_dim: int


@dataclass(frozen=True, eq=False)
class KktSolution:
    dz: np.ndarray           # (N,) primal step, (du_t, dx_{t+1}) stage by stage
    multipliers: np.ndarray  # (T n,) stacked equality multipliers
    residual: float          # inf-norm of the KKT equations at the solution


def assemble_qp(exp, costates=None) -> StackedQP:
    """Stack the quadratic subproblem matching one backward pass.

    With no costates (iLQR) the Hessian is block-diagonal, from the cost
    expansion only. Given a (T+1, n) costate sequence (a sweep's `costates`)
    it adds, per stage, the dynamics Hessian tensors contracted with it,
    including the cross blocks between dx_t and du_t. Stage 0 contributes no
    such blocks because dx_0 is pinned to zero.

    Stage t fills one dense window of the matrix, over the unknowns
    (dx_t, du_t, lam_{t+1}, dx_{t+1}), which are contiguous; all T windows
    are filled at once and their nonzero entries kept.
    """
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    weighted = costates is not None
    if weighted:
        costates = np.asarray(costates, dtype=float)
        if costates.shape != (horizon + 1, n):
            raise DimensionError("multiplier sequence must have shape (T+1, n)")

    xt, ut, lam, xn = (slice(0, n), slice(n, n + m),
                       slice(n + m, 2 * n + m), slice(2 * n + m, 3 * n + m))
    width, stride = 3 * n + m, 2 * n + m
    window = np.zeros((horizon, width, width))
    window[:, ut, ut] = exp.r
    window[:, lam, xt] = exp.fx
    window[:, xt, lam] = exp.fx.transpose(0, 2, 1)
    window[:, lam, ut] = exp.fu
    window[:, ut, lam] = exp.fu.transpose(0, 2, 1)
    window[:, lam, xn] = window[:, xn, lam] = -np.eye(n)
    window[:, xn, xn] = np.concatenate([exp.lxx[1:], exp.ct_xx[None]])
    if weighted:
        w = costates[2:]  # lam_{t+1} for the stages t = 1 .. T-1
        window[:-1, xn, xn] += np.einsum("ti,tijk->tjk", w, exp.fxx[1:])
        cross = np.einsum("ti,tijk->tjk", w, exp.fxu[1:])
        window[1:, xt, ut] = cross
        window[1:, ut, xt] = cross.transpose(0, 2, 1)

    keep = window != 0.0
    keep[0, :n] = keep[0, :, :n] = False  # dx_0 is not an unknown
    # the window of stage t starts n before the stage's own unknowns
    first = np.arange(horizon)[:, None, None] * stride - n
    local = np.arange(width)
    rows = np.broadcast_to(first + local[:, None], window.shape)[keep]
    cols = np.broadcast_to(first + local, window.shape)[keep]

    grad = np.zeros((horizon, stride))
    grad[:, :m] = exp.ru
    grad[:, m + n:] = np.concatenate([exp.lx[1:], exp.ct_x[None]])
    primal = np.ones((horizon, stride), dtype=bool)
    primal[:, m:m + n] = False
    return StackedQP(rows=rows, cols=cols, values=window[keep],
                     gradient=grad.reshape(-1), primal=primal.reshape(-1),
                     horizon=horizon, state_dim=n, control_dim=m)


def _matvec(qp, x):
    """The KKT matrix times x, summed from the triplets."""
    return np.bincount(qp.rows, weights=qp.values * x[qp.cols], minlength=x.size)


def solve_kkt(qp) -> KktSolution:
    """Solve [H A'; A 0] [dz; lam] = [-g; 0] by banded LU with pivoting, in
    the band read off the triplets. The residual bound covers the constraint
    rows too: their right-hand side is 0."""
    size = qp.gradient.shape[0]
    offset = qp.rows - qp.cols
    lower = int(np.max(offset, initial=0))
    upper = int(np.max(-offset, initial=0))
    band = np.bincount((upper + offset) * size + qp.cols, weights=qp.values,
                       minlength=(lower + upper + 1) * size)
    rhs = -qp.gradient
    import scipy.linalg  # imported here: only the oracle needs it, so a solve never loads scipy
    try:
        solution = scipy.linalg.solve_banded(
            (lower, upper), band.reshape(lower + upper + 1, size), rhs,
            overwrite_ab=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise KktError(f"singular KKT matrix: {exc}") from exc
    if not np.isfinite(solution).all():
        raise KktError("KKT solve produced non-finite values")

    product = _matvec(qp, solution)
    residual = float(np.max(np.abs(product - rhs), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(qp.gradient), initial=0.0))
    if residual > RESIDUAL_SCALE * scale:
        raise KktError(f"KKT residual {residual:.3e} exceeds {RESIDUAL_SCALE * scale:.3e}")
    return KktSolution(dz=solution[qp.primal], multipliers=solution[~qp.primal],
                       residual=residual)


def split_primal(qp, dz):
    """Unstack dz into (dx, du) with dx including the pinned dx_0 = 0 row."""
    n, m, horizon = qp.state_dim, qp.control_dim, qp.horizon
    stages = dz.reshape(horizon, m + n)
    dx = np.zeros((horizon + 1, n))
    dx[1:] = stages[:, m:]
    return dx, stages[:, :m]


@dataclass(frozen=True)
class VerificationReport:
    method: str  # the certified sweep's
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
        return (f"{self.method:6s} T={self.horizon:<3d} "
                f"rel err dx={self.err_dx:.3e} du={self.err_du:.3e} "
                f"lam={self.err_lam:.3e}  {status}")


def _block_err(candidate, reference, t_offset=0):
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    diff = np.abs(candidate - reference)
    err = float(np.max(diff, initial=0.0))
    worst = int(np.unravel_index(np.argmax(diff), diff.shape)[0]) if diff.size else 0
    return err / scale, worst + t_offset


def verify_equivalence(sol, exp, costates=None, tol=1e-8) -> VerificationReport:
    """Compare one backward sweep against the direct banded KKT solve.

    The sweep's full step (its linear rollout) and its costates must
    reproduce the QP minimizer and equality multipliers of the stacked
    problem weighted by the costates the sweep contracted: none for iLQR,
    the frozen sequence for Newton, the value gradients for DDP (the Newton
    sweep under that substitution). `costates`, when given, must be exactly
    the sweep's own; otherwise ValueError, as for a tol not in (0, inf).
    """
    if not 0 < tol < np.inf:  # NaN fails too; an infinite tol passes every sweep
        raise ValueError("tol must be positive and finite")
    if costates is not None and not np.array_equal(costates, sol.costates):
        raise ValueError("costates differ from those the sweep contracted")
    qp = assemble_qp(exp, sol.costates)
    ksol = solve_kkt(qp)
    dx_qp, du_qp = split_primal(qp, ksol.dz)
    lam_qp = ksol.multipliers.reshape(qp.horizon, qp.state_dim)

    dx, du = linear_rollout(exp, sol)
    lam_sweep = multipliers_from(sol, dx)

    err_dx, t_dx = _block_err(dx[1:], dx_qp[1:], t_offset=1)
    err_du, t_du = _block_err(du, du_qp)
    err_lam, t_lam = _block_err(lam_sweep[1:], lam_qp, t_offset=1)

    if sol.costates is None:
        # Descent certificate of the cost-only subproblem: on the constraint
        # kernel the step satisfies dz'g = -dz'H dz < 0 unless it is zero.
        # With its multiplier entries zeroed, z'Kz is exactly dz'H dz.
        z = np.zeros(qp.primal.size)
        z[qp.primal] = ksol.dz
        directional = float(z @ qp.gradient)
        curvature = float(z @ _matvec(qp, z))
        scale = max(1.0, abs(curvature))
        if abs(directional + curvature) > 1e-7 * scale:
            raise KktError("descent certificate identity violated")
        if np.max(np.abs(ksol.dz)) > 1e-10 and directional >= 0.0:
            raise KktError("stacked QP step failed to be a descent direction")

    errs = {"dx": (err_dx, t_dx), "du": (err_du, t_du), "lam": (err_lam, t_lam)}
    worst_block = max(errs, key=lambda k: errs[k][0])
    return VerificationReport(
        method=sol.method, horizon=qp.horizon,
        err_dx=err_dx, err_du=err_du, err_lam=err_lam,
        worst_timestep=errs[worst_block][1], tol=tol,
        passed=max(err_dx, err_du, err_lam) <= tol)
