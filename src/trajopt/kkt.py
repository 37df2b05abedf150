"""The certificates: the whole-trajectory KKT oracle and the derivative check.

The oracle stacks the local quadratic subproblem min g'z + 0.5 z'Hz s.t.
A z = 0 over the full horizon and certifies the Riccati sweeps against a
direct solve of its KKT system [H A'; A 0] [dz; lam] = [-g; 0]. Ordered
stage by stage, (du_t, lam_{t+1}, dx_{t+1}) for t = 0 .. T-1, the matrix is
banded with half-bandwidth at most 2n + m - 1 at any horizon. The Riccati
sweep is a block factorization of this same matrix (Rao, Wright & Rawlings,
JOTA 1998); the oracle factors it independently, by LAPACK's banded LU with
partial pivoting. Its nonzero entries are kept as (row, col, value)
triplets, and every check reads them.

dx_0 is fixed at zero and is not an unknown. Constraint t enforces
fx_t dx_t + fu_t du_t - dx_{t+1} = 0, so the equality multipliers returned by
the KKT solve are the costates lam_1 .. lam_T of `multipliers_from`, with the
sweep's own sign.

`check_derivatives` certifies the tensors the sweeps contract against central
differences. Both certificates return a `VerificationReport` of `Check`s, one
per certified quantity, and a NaN error fails its check.

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
           "Check", "VerificationReport", "verify_equivalence", "check_derivatives"]

RESIDUAL_SCALE = 1e-9  # KKT residual bound, scaled by 1 + input norms
FD_STEP = 3e-4  # scaled per coordinate by (1 + |value|)
DERIVATIVE_SAMPLES = 100  # seeded points from the model's sampling box
DERIVATIVE_TOL = 1e-7  # 45x the worst error, seeds 0-9, of the benchmarks and random_linear


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
class Check:
    name: str
    max_rel_err: float
    worst: int  # the sample or timestep of the largest error
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol  # a NaN error fails


@dataclass(frozen=True)
class VerificationReport:
    """The checks of one certificate: of a sweep, named by its method and
    horizon, or of the derivatives (`certified` "derivatives", no horizon)."""

    certified: str
    horizon: int | None
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_rel_err(self) -> float:
        return float(np.max([c.max_rel_err for c in self.checks]))  # NaN wins

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        """A line naming the certificate and its verdict, then one per check."""
        head, at = ((self.certified, "sample ") if self.horizon is None
                    else (f"{self.certified} T={self.horizon}", "t="))
        return "\n".join([f"{head}: {'ok' if self.passed else 'FAIL'}"] + [
            f"  {c.name:13s} max rel err {c.max_rel_err:.3e} at {at}{c.worst:<3d} "
            f"tol {c.tol:g}  {'ok' if c.passed else 'FAIL'}" for c in self.checks])


def _block_check(name, candidate, reference, tol, t_offset=0) -> Check:
    """The largest difference from the oracle's block, relative to the
    block's scale, and the timestep of the first largest (or NaN) entry."""
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    diff = np.abs(candidate - reference)
    err = float(np.max(diff, initial=0.0))
    worst = int(np.unravel_index(np.argmax(diff), diff.shape)[0]) if diff.size else 0
    return Check(name, err / scale, worst + t_offset, tol)


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

    checks = (_block_check("dx", dx[1:], dx_qp[1:], tol, t_offset=1),
              _block_check("du", du, du_qp, tol),
              _block_check("lam", lam_sweep[1:], lam_qp, tol, t_offset=1))

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

    return VerificationReport(sol.method, qp.horizon, checks)


def _fd_jacobian(fn, z):
    """Four-point central-difference Jacobian of fn at the vector z, of shape
    fn(z).shape + z.shape: entry [..., j] differences coordinate j. fn maps
    all 4 z.size points, one (4 z.size, z.size) batch, to their stacked values."""
    z = np.asarray(z, dtype=float)
    h = FD_STEP * (1.0 + np.abs(z))
    # point [i, j] moves coordinate j of z by (-2, -1, 1, 2)[i] h_j
    points = z + (np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None] * h[:, None]) * np.eye(z.size)
    f = np.moveaxis(np.asarray(fn(points.reshape(-1, z.size))), 0, -1)
    f = f.reshape(f.shape[:-1] + (4, z.size))  # f[..., i, j] at point [i, j]
    return (8.0 * (f[..., 2, :] - f[..., 1, :]) - (f[..., 3, :] - f[..., 0, :])) / (12.0 * h)


def check_derivatives(model, cost, seed=0) -> VerificationReport:
    """Certify analytic derivatives against four-point central differences.

    First derivatives are differenced from the values; second derivatives are
    differenced from the analytic first derivatives (a nested difference of
    values would drown in rounding error). Each named derivative's check
    holds its largest error |fd - exact| / (1 + |exact|) over
    DERIVATIVE_SAMPLES seeded samples drawn from the model's sampling box,
    the first NaN if any, and passes when that is at most DERIVATIVE_TOL.
    """
    rng = np.random.default_rng(seed)
    errors = []  # errors[sample][row]
    each = lambda fn: lambda zs: [fn(z) for z in zs]  # a one-point fn, called per point
    for _ in range(DERIVATIVE_SAMPLES):
        x = rng.uniform(model.state_low, model.state_high)
        u = rng.uniform(model.control_low, model.control_high)
        fx, fu, fxx, fxu = model.derivatives(x, u)
        lx, lxx, ru, r = cost.stage_derivatives(x, u)
        ct_x, ct_xx = cost.terminal_derivatives(x)
        # x once per point of a batch of controls, u once per point of states
        xs, us = np.tile(x, (4 * u.size, 1)), np.tile(u, (4 * x.size, 1))
        # (name, function differenced, point, analytic derivative); the
        # derivative of fx wrt x_k is fxx[..., k] and wrt u_l is fxu[..., l]
        rows = (
            ("fx", each(lambda z: model.step(z, u)), x, fx),
            ("fu", each(lambda z: model.step(x, z)), u, fu),
            ("fxx", lambda z: model.derivatives(z, us)[0], x, fxx),
            ("fxu", lambda z: model.derivatives(xs, z)[0], u, fxu),
            ("fuu", lambda z: model.derivatives(xs, z)[1], u, 0.0),
            ("lx", lambda z: cost.stage_cost(z, us), x, lx),
            ("lxx", lambda z: cost.stage_derivatives(z, us)[0], x, lxx),
            ("control_grad", lambda z: cost.stage_cost(xs, z), u, ru),
            ("control_hess", lambda z: cost.stage_derivatives(xs, z)[2], u, r),
            ("terminal_grad", each(cost.terminal_cost), x, ct_x),
            ("terminal_hess", each(lambda z: cost.terminal_derivatives(z)[0]), x, ct_xx),
        )
        errors.append([np.max(np.abs(_fd_jacobian(fn, z) - exact) / (1.0 + np.abs(exact)))
                       for _, fn, z, exact in rows])

    errors = np.array(errors)
    worst = np.argmax(errors, axis=0)  # the first largest error, or the first NaN
    checks = tuple(Check(name, float(errors[i, j]), int(i), DERIVATIVE_TOL)
                   for j, ((name, *_), i) in enumerate(zip(rows, worst)))
    return VerificationReport("derivatives", None, checks)
