"""Riccati backward passes: iLQR, Newton-LQR, and DDP.

All three sweeps share one recursion; they differ only in the weight placed
on the dynamics Hessian tensors:

  * iLQR ignores the tensors entirely (first-order dynamics model),
  * Newton-LQR contracts them with a fixed costate sequence carried over
    from the previous iteration, which makes the sweep the exact Newton
    step on the constrained problem,
  * DDP contracts them with its own value gradient as it is computed.

Each sweep carries the costates it contracted in `costates` (None for iLQR),
with one sign throughout: the costates are value gradients, lam_t = v_t +
V_t dx_t (`multipliers_from`), and they are also the stacked QP's equality
multipliers (see `kkt`).

With positive semidefinite state cost Hessians and R positive definite, the
iLQR value Hessians stay positive semidefinite and every Quu is positive
definite, so the iLQR step is always a descent direction. Neither property
survives the Hessian contractions: Newton-LQR and DDP may produce indefinite
Quu, which is recorded rather than repaired (no regularization anywhere).

The per-stage loop holds only the recursion. Finiteness of every sweep, and
the two iLQR guarantees, are checked in batches after it: the first failure in
sweep order raises, as per-stage checks would, naming its stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BackwardPassError, DimensionError

__all__ = [
    "BackwardSolution",
    "backward_ilqr",
    "backward_newton",
    "backward_ddp",
    "multipliers_from",
    "expected_reduction",
    "quu_spectrum",
]

PSD_SLACK = 1e-10  # tolerated eigenvalue undershoot from rounding
_QUU_LOST = "iLQR control curvature lost definiteness"
_V_LOST = "iLQR value Hessian lost semidefiniteness"


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Value expansion and gains from one backward sweep.

    v:   (T+1, n) value gradients along the nominal.
    V:   (T+1, n, n) symmetric value Hessians.
    k:   (T, m) feedforward gains, control update du = -alpha k - K dx.
    K:   (T, m, n) feedback gains.
    quu: (T, m, m) control curvature R + fu' V_{t+1} fu at each stage.
    method: one of "ilqr", "newton", "ddp".
    costates: (T+1, n) costates that weighted the dynamics Hessians: None for
        iLQR, the frozen sequence for Newton, v itself for DDP.
    """

    v: np.ndarray
    V: np.ndarray
    k: np.ndarray
    K: np.ndarray
    quu: np.ndarray
    method: str
    costates: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.k.shape[0]


def _solve_sym(quu, t, quu_t, qu, qux):
    """(k_t, K_t): Quu_t symmetrized into quu[t], then q_u and Q_ux solved
    against that (possibly indefinite) block."""
    if quu_t.shape[0] == 1:
        pivot = quu_t.item()
        quu[t] = pivot = 0.5 * (pivot + pivot)  # overflows to inf as the array form does
        if pivot == 0.0 or not math.isfinite(pivot):
            raise BackwardPassError(t, "singular control curvature")
        return qu / pivot, qux / pivot
    quu[t] = quu_t = 0.5 * (quu_t + quu_t.T)
    try:
        sol = scipy.linalg.solve(quu_t, np.concatenate([qu[:, None], qux], axis=1),
                                 assume_a="sym")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise BackwardPassError(t, f"singular control curvature ({exc})") from exc
    return sol[:, 0], sol[:, 1:]


def _sweep(exp, method, lam_bar=None):
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    fx_all, fu_all, fxx, fxu = exp.fx, exp.fu, exp.fxx, exp.fxu
    lx, lxx, ru, r = exp.lx, exp.lxx, exp.ru, exp.r
    if method == "newton":
        lam_bar = np.asarray(lam_bar, dtype=float)
        if lam_bar.shape != (horizon + 1, n):
            raise ValueError("multiplier sequence must have shape (T+1, n)")
        # the frozen costates are known: a batched einsum rounds as each stage's
        fxx_w = np.einsum("ti,tijk->tjk", lam_bar[1:], fxx)
        fxu_w = np.einsum("ti,tijk->tkj", lam_bar[1:], fxu)

    v = np.zeros((horizon + 1, n))
    big_v = np.zeros((horizon + 1, n, n))
    k = np.zeros((horizon, m))
    feedback = np.zeros((horizon, m, n))
    quu = np.zeros((horizon, m, m))
    dot = np.dot  # the BLAS kernels of `@`, at less cost per call

    failed = None
    # an overflow or invalid value is non-finite: the checks below raise for it
    with np.errstate(over="ignore", invalid="ignore"):
        v[horizon] = exp.ct_x
        big_v[horizon] = 0.5 * (exp.ct_xx + exp.ct_xx.T)
        vn, big_vn = v[horizon], big_v[horizon]
        try:
            for t in reversed(range(horizon)):
                fx, fu = fx_all[t], fu_all[t]
                fx_t, fu_t = fx.T, fu.T

                # nested left to right, as `@` associates: fu' V fu == dot(fu_v,
                # fu) and fx' V fx == dot(dot(fx', V), fx)
                fu_v = dot(fu_t, big_vn)
                qu = ru[t] + dot(fu_t, vn)
                qx = lx[t] + dot(fx_t, vn)
                quu_t = r + dot(fu_v, fu)
                qux = dot(fu_v, fx)
                qxx = lxx[t] + dot(dot(fx_t, big_vn), fx)

                if method == "ddp":
                    qxx = qxx + np.einsum("i,ijk->jk", vn, fxx[t])
                    qux = qux + np.einsum("i,ijk->kj", vn, fxu[t])
                elif method == "newton":
                    qxx = qxx + fxx_w[t]
                    qux = qux + fxu_w[t]

                k[t], feedback[t] = _solve_sym(quu, t, quu_t, qu, qux)
                # the contiguous k[t]: a strided column rounds differently at m >= 2
                qux_t = qux.T
                v[t] = vn = qx - dot(qux_t, k[t])
                vt = qxx - dot(qux_t, feedback[t])
                big_v[t] = big_vn = 0.5 * (vt + vt.T)
        except BackwardPassError as exc:
            failed = exc
    # A non-finite k_t or K_t always reaches v_t or V_t. The loop runs on past
    # a non-finite stage, but the stages below it (and a solve that raised
    # there) only read its values: the highest one is the first failure.
    finite = (np.isfinite(v[:horizon]).all(axis=1)
              & np.isfinite(big_v[:horizon]).all(axis=(1, 2)))
    for t in np.flatnonzero(~finite)[-1:]:  # the last, if any
        failed = BackwardPassError(int(t), "backward recursion produced non-finite values")
    if method == "ilqr":
        # Impossible to violate for valid cost models (R > 0, PSD V propagation).
        # In sweep order each stage checks Quu, then V: the stages done in one
        # batch, then the Quu (maybe not finite) of the stage that raised.
        r_min = float(np.linalg.eigvalsh(r)[0])
        done = 0 if failed is None else failed.timestep + 1
        quu_bad = np.linalg.eigvalsh(quu[done:])[:, 0] < r_min - PSD_SLACK
        v_bad = np.linalg.eigvalsh(big_v[done:horizon])[:, 0] < -PSD_SLACK
        for i in np.flatnonzero(quu_bad | v_bad)[-1:]:  # the last, if any
            raise BackwardPassError(done + int(i), _QUU_LOST if quu_bad[i] else _V_LOST)
        if failed is not None and np.linalg.eigvalsh(quu[done - 1])[0] < r_min - PSD_SLACK:
            raise BackwardPassError(done - 1, _QUU_LOST)
    if failed is not None:
        raise failed

    return BackwardSolution(v=v, V=big_v, k=k, K=feedback, quu=quu, method=method,
                            costates=v if method == "ddp" else lam_bar)


def backward_ilqr(exp) -> BackwardSolution:
    """First-order-dynamics sweep; always yields a descent direction."""
    return _sweep(exp, "ilqr")


def backward_newton(exp, multipliers) -> BackwardSolution:
    """Exact Newton sweep with a fixed (T+1, n) costate sequence.

    The Hessian tensors are contracted with the supplied costates, which play
    the role of the dynamics-constraint multipliers frozen at the previous
    iterate. With all-zero multipliers the sweep reduces exactly to iLQR.
    """
    return _sweep(exp, "newton", lam_bar=multipliers)


def backward_ddp(exp) -> BackwardSolution:
    """DDP sweep: Hessian tensors weighted by the concurrent value gradient.

    Identical to the Newton sweep with the frozen costates replaced by the
    value gradient computed in the same sweep, which is what the classical
    DDP recursion does. Indefinite Quu blocks are kept (inspect them through
    `quu_spectrum`); only an exactly singular block aborts the sweep.
    """
    return _sweep(exp, "ddp")


def multipliers_from(sol, dx=None) -> np.ndarray:
    """Costates at the state deviations dx from the sweep's nominal.

    lam_t = v_t + V_t dx_t, which are also the stacked QP's equality
    multipliers (so lam_T = C_x + C_xx dx_T at the terminal stage). With no
    dx the costates are evaluated on the nominal, lam_t = v_t.
    """
    if dx is None:
        return sol.v.copy()
    dx = np.asarray(dx, dtype=float)
    if dx.shape != sol.v.shape:
        raise ValueError("path horizon does not match the solution")
    return sol.v + np.einsum("tij,tj->ti", sol.V, dx)


def expected_reduction(sol, exp, alpha) -> float:
    """Quadratic-model cost change for a step with feedforward scaled by alpha.

    Equals -(alpha - alpha^2/2) * sum_t g_t' Quu_t^{-1} g_t with g_t the stage
    control gradient R u_t + fu' v_{t+1}; since k_t = Quu_t^{-1} g_t the sum is
    accumulated as g_t . k_t. Nonpositive whenever every Quu is positive
    definite; an indefinite sweep (Newton/DDP) can make it positive, which is
    reported as-is. A sweep of another horizon than `exp` raises
    DimensionError.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if sol.horizon != exp.horizon:
        raise DimensionError("gain horizon does not match the expansion")
    # stacks of matrix-vector and dot products round as each stage's would
    g = exp.ru + (exp.fu.transpose(0, 2, 1) @ sol.v[1:, :, None])[..., 0]
    total = 0.0
    for term in (g[:, None, :] @ sol.k[:, :, None])[:, 0, 0].tolist():
        total += term
    return -(alpha - 0.5 * alpha * alpha) * total


def quu_spectrum(sol) -> np.ndarray:
    """Minimum eigenvalue of each stage's control curvature block."""
    return np.linalg.eigvalsh(sol.quu)[:, 0]

