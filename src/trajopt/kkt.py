"""The certificates: the whole-trajectory KKT oracle and the derivative check.

The oracle stacks the local quadratic subproblem min g'z + 0.5 z'Hz s.t.
A z = 0 over the full horizon and certifies the Riccati sweeps against a
direct solve of its KKT system [H A'; A 0] [z; lam] = [-g; 0]. Its one
layout is the stage row, (du_t, lam_{t+1}, dx_{t+1}) for t = 0 .. T-1, from
assembly to verdict; in that order the matrix is banded with half-bandwidth
at most 2n + m - 1 at any horizon. The Riccati sweep is a block
factorization of this same matrix (Rao, Wright & Rawlings, JOTA 1998); the
oracle factors it independently, by LAPACK's banded LU with partial
pivoting. It is kept as the T dense stage windows that assembly fills: the
solve scatters them into the band, and the checks multiply the rows by them.

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
from .models import is_a
from .trajectory import linear_rollout

__all__ = ["StackedQP", "KktSolution", "assemble_qp", "solve_kkt", "Check",
           "VerificationReport", "verify_equivalence", "check_derivatives"]

RESIDUAL_SCALE = 1e-9  # KKT residual bound, scaled by 1 + input norms
FD_STEP = 3e-4  # scaled per coordinate by (1 + |value|)
DERIVATIVE_SAMPLES = 100  # seeded points from the model's sampling box
DERIVATIVE_TOL = 1e-7  # 45x the worst error, seeds 0-9, of the benchmarks and random_linear


@dataclass(frozen=True, eq=False)
class StackedQP:
    """The KKT matrix of min g'z + 0.5 z'Hz s.t. A z = 0, as the sum of the
    stage windows of `assemble_qp`, and g, in stage rows (du_t, lam_{t+1},
    dx_{t+1}). T, n and m are read off the two shapes."""

    windows: np.ndarray   # (T, 3n+m, 3n+m)
    gradient: np.ndarray  # (T, 2n+m) g in the du and dx columns, 0 in those of lam


@dataclass(frozen=True, eq=False)
class KktSolution:
    """The KKT solution, as views of its (T, 2n+m) stage rows."""

    du: np.ndarray   # (T, m) du_0 .. du_{T-1}
    lam: np.ndarray  # (T, n) equality multipliers lam_1 .. lam_T
    dx: np.ndarray   # (T, n) dx_1 .. dx_T
    residual: float  # inf-norm of the KKT equations at the solution


def assemble_qp(exp, costates=None) -> StackedQP:
    """Stack the quadratic subproblem matching one backward pass.

    With no costates (iLQR) the Hessian is block-diagonal, from the cost
    expansion only. Given a (T+1, n) costate sequence (a sweep's `costates`)
    it adds, per stage, the dynamics Hessian tensors contracted with it,
    including the cross blocks between dx_t and du_t. Stage 0 contributes no
    such blocks because dx_0 is pinned to zero.

    Stage t fills one dense window of the matrix, over the unknowns
    (dx_t, du_t, lam_{t+1}, dx_{t+1}): they are contiguous, start n before
    the stage's own, and overlap the next window on dx_{t+1}. All T windows
    are filled at once, and stage 0's dx_0 rows and columns are zeroed.
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
    window[0, xt] = window[0, :, xt] = 0.0  # dx_0 is not an unknown

    grad = np.zeros((horizon, stride))
    grad[:, :m] = exp.ru
    grad[:, m + n:] = np.concatenate([exp.lx[1:], exp.ct_x[None]])
    return StackedQP(windows=window, gradient=grad)


def _matvec(qp, x):
    """The KKT matrix times x, both (T, 2n+m) stage rows: each window times
    its row of x after the previous row's dx (dx_0 = 0), with the rows where
    consecutive windows overlap added."""
    horizon, width, _ = qp.windows.shape
    n = width - x.shape[1]
    sliced = np.zeros((horizon, width))
    sliced[:, n:] = x
    sliced[1:, :n] = x[:-1, width - 2 * n:]
    parts = np.matmul(qp.windows, sliced[:, :, None])[:, :, 0]
    parts[:-1, width - n:] += parts[1:, :n]  # the rows of dx_{t+1}
    return parts[:, n:]


def solve_kkt(qp) -> KktSolution:
    """Solve [H A'; A 0] [z; lam] = [-g; 0] by LAPACK's banded LU (gbsv).

    With s = 2n + m, both half-bandwidths are s - 1 and the band has
    ld = 3s - 2 rows, s - 1 of them for the LU's fill. One bincount puts entry
    (r, c) of window t at row 2(s - 1) + r - c of column t s - n + c, after n
    dropped columns for dx_0. The solution is reshaped once to its (T, s)
    stage rows, which `du`, `lam` and `dx` view. The residual bound covers
    the constraint rows (right-hand side 0) too."""
    (horizon, width, _), stride = qp.windows.shape, qp.gradient.shape[1]
    n, size = width - stride, qp.gradient.size
    m = stride - 2 * n
    half, ld = stride - 1, 3 * stride - 2
    local = np.arange(width)  # the offsets of window t: t s ld + those of window 0
    offsets = (np.arange(0, horizon * stride * ld, stride * ld)[:, None]
               + (local * (ld - 1) + local[:, None] + 2 * half).reshape(-1))
    band = np.bincount(offsets.reshape(-1), weights=qp.windows.reshape(-1),
                       minlength=(size + n) * ld)[n * ld:]
    from scipy.linalg.lapack import dgbsv  # imported here: a solve never loads scipy
    _, _, solution, info = dgbsv(half, half, band.reshape(size, ld).T,
                                 -qp.gradient.reshape(-1), overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise KktError(f"singular KKT matrix: LAPACK gbsv info {info}")
    if not np.isfinite(solution).all():
        raise KktError("KKT solve produced non-finite values")
    solution = solution.reshape(horizon, stride)
    residual = float(np.abs(_matvec(qp, solution) + qp.gradient).max(initial=0.0))
    scale = 1.0 + float(np.abs(qp.gradient).max(initial=0.0))
    if residual > RESIDUAL_SCALE * scale:
        raise KktError(f"KKT residual {residual:.3e} exceeds {RESIDUAL_SCALE * scale:.3e}")
    return KktSolution(du=solution[:, :m], lam=solution[:, m:m + n], dx=solution[:, m + n:],
                       residual=residual)


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
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    diff = np.abs(candidate - reference)  # (T, width): the row of a flat index is its timestep
    err = float(diff.max(initial=0.0))
    worst = int(diff.argmax()) // diff.shape[1] if diff.size else 0
    return Check(name, err / scale, worst + t_offset, tol)


def verify_equivalence(sol, exp, costates=None, tol=1e-8) -> VerificationReport:
    """Compare one backward sweep against the direct banded KKT solve.

    The sweep's full step (its linear rollout) and its costates must
    reproduce the QP minimizer and equality multipliers of the stacked
    problem weighted by the costates the sweep contracted: none for iLQR,
    the frozen sequence for Newton, the value gradients for DDP (the Newton
    sweep under that substitution). `costates`, when given, must be exactly
    the sweep's own; otherwise ValueError, as for a tol that is no number in (0, inf).
    """
    if not (is_a(tol) and 0 < tol < np.inf):  # NaN fails too; an infinite tol passes every sweep
        raise ValueError("tol must be positive and finite")
    if costates is not None and not np.array_equal(costates, sol.costates):
        raise ValueError("costates differ from those the sweep contracted")
    qp = assemble_qp(exp, sol.costates)
    ksol = solve_kkt(qp)
    dx, du = linear_rollout(exp, sol)
    checks = (_block_check("dx", dx[1:], ksol.dx, tol, t_offset=1),
              _block_check("du", du, ksol.du, tol),
              _block_check("lam", multipliers_from(sol, dx)[1:], ksol.lam, tol, t_offset=1))

    if sol.costates is None:
        # Descent certificate of the cost-only subproblem: on the constraint
        # kernel the step satisfies z'g = -z'H z < 0 unless it is zero.
        # With its multiplier columns zeroed, the rows' z'Kz is exactly z'H z.
        z = np.hstack([ksol.du, np.zeros_like(ksol.lam), ksol.dx])
        directional = float(np.vdot(z, qp.gradient))
        curvature = float(np.vdot(z, _matvec(qp, z)))
        scale = max(1.0, abs(curvature))
        if abs(directional + curvature) > 1e-7 * scale:
            raise KktError("descent certificate identity violated")
        if np.max(np.abs(z)) > 1e-10 and directional >= 0.0:
            raise KktError("stacked QP step failed to be a descent direction")

    return VerificationReport(sol.method, exp.horizon, checks)


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
