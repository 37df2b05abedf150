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

On the stage unknowns z = (du, 1, dx), one block product Q = H_t + J_t' W J_t
gives q_u, q_x, Quu, Qux and Qxx, with W = [[0, v'], [v, V]] the value at t+1,
J_t = [[0, 1, 0], [fu, 0, fx]], and the costates weighting one Hessian tensor.

The per-stage loop holds only the recursion. Finiteness of every sweep, and
the two iLQR guarantees, are checked in batches after it: the first failure in
sweep order raises, as per-stage checks would, naming its stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsysv as sysv

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


def _sweep(exp, method, lam_bar=None):
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    if method == "newton":
        lam_bar = np.asarray(lam_bar, dtype=float)
        if lam_bar.shape != (horizon + 1, n):
            raise ValueError("multiplier sequence must have shape (T+1, n)")

    # J_t maps z = (du, 1, dx) to (1, dx_{t+1}); W = [[0, v'], [v, V]] acts on that
    size = m + 1 + n
    u, x = slice(0, m), slice(m + 1, size)
    jac = np.zeros((horizon, n + 1, size))
    jac[:, 0, m] = 1.0
    jac[:, 1:, u], jac[:, 1:, x] = exp.fu, exp.fx
    jac_t = jac.transpose(0, 2, 1)
    hess = np.zeros((horizon, size, size))  # H_t, the cost expansion
    hess[:, u, u], hess[:, x, x] = exp.r, exp.lxx
    hess[:, u, m] = hess[:, m, u] = exp.ru
    hess[:, x, m] = hess[:, m, x] = exp.lx
    if method != "ilqr":  # costates c weight the dynamics Hessians as c @ tensor_t
        tensor = np.zeros((horizon, n, size, size))
        tensor[:, :, x, x] = exp.fxx
        tensor[:, :, x, u], tensor[:, :, u, x] = exp.fxu, exp.fxu.transpose(0, 1, 3, 2)
        tensor = tensor.reshape(horizon, n, size * size)
    if method == "newton":  # the stacked product rounds as each stage's
        hess += (lam_bar[1:, None, :] @ tensor).reshape(horizon, size, size)

    aug = np.zeros((horizon + 1, n + 1, n + 1))  # W_t; W_t[0, 0] feeds no gain: left 0
    gains = np.zeros((horizon, m, n + 1))         # [k_t | K_t]
    quu = np.zeros((horizon, m, m))
    dot = np.dot  # the BLAS kernels of `@`, at less cost per call

    failed = None
    # an overflow or invalid value is non-finite: the checks below raise for it
    with np.errstate(over="ignore", invalid="ignore"):
        w = aug[horizon]
        w[0, 1:] = w[1:, 0] = exp.ct_x
        w[1:, 1:] = 0.5 * (exp.ct_xx + exp.ct_xx.T)
        try:
            for t in reversed(range(horizon)):
                h = hess[t]
                if method == "ddp":
                    h = h + dot(w[0, 1:], tensor[t]).reshape(size, size)
                # nested left to right, as `@` associates
                q = h + dot(dot(jac_t[t], w), jac[t])
                rows = q[u, m:]  # [q_u | Q_ux]
                if m == 1:  # the pivot overflows to inf as the array form does
                    quu[t] = pivot = 0.5 * (q.item(0) + q.item(0))
                    if pivot == 0.0 or not math.isfinite(pivot):
                        raise BackwardPassError(t, "singular control curvature")
                    gain = rows / pivot
                else:
                    quu_t = q[u, u]
                    quu[t] = quu_t = 0.5 * (quu_t + quu_t.T)
                    # LAPACK never warns of ill-conditioning and sets info for a
                    # zero pivot; it would divide by an infinite one, so test that
                    *_, gain, info = sysv(quu_t, rows)
                    if info > 0 or not all(map(math.isfinite, quu_t.flat)):
                        raise BackwardPassError(t, "singular control curvature")
                gains[t] = gain
                nxt = q[m:, m:] - dot(rows.T, gain)
                # only V is symmetrized: v + v would overflow a gradient of 1e308
                w = aug[t]
                w[0, 1:] = w[1:, 0] = nxt[1:, 0]
                vt = nxt[1:, 1:]
                w[1:, 1:] = 0.5 * (vt + vt.T)
        except BackwardPassError as exc:
            failed = exc
    v, big_v = aug[:, 1:, 0].copy(), aug[:, 1:, 1:].copy()
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
        r_min = float(np.linalg.eigvalsh(exp.r)[0])
        done = 0 if failed is None else failed.timestep + 1
        quu_bad = np.linalg.eigvalsh(quu[done:])[:, 0] < r_min - PSD_SLACK
        v_bad = np.linalg.eigvalsh(big_v[done:horizon])[:, 0] < -PSD_SLACK
        for i in np.flatnonzero(quu_bad | v_bad)[-1:]:  # the last, if any
            raise BackwardPassError(done + int(i), _QUU_LOST if quu_bad[i] else _V_LOST)
        if failed is not None and np.linalg.eigvalsh(quu[done - 1])[0] < r_min - PSD_SLACK:
            raise BackwardPassError(done - 1, _QUU_LOST)
    if failed is not None:
        raise failed

    return BackwardSolution(v=v, V=big_v, k=gains[:, :, 0].copy(), K=gains[:, :, 1:].copy(),
                            quu=quu, method=method, costates=v if method == "ddp" else lam_bar)


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

