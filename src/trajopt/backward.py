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

The per-stage loop holds only the recursion and runs through every stage.
One ordered scan after it makes the checks of each stage, in the order a
stage makes them (`_FAILURES`), and raises for the highest failing stage with
the first check it fails: the first failure in sweep order, as per-stage
checks would raise it, since a stage reads only the stages above it.

`backward_for` maps each name of SWEEPS to its sweep. It seeds a Newton sweep
given no costates by `initial_multiplier_estimate`: the value gradients of an
iLQR sweep on the same expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackwardPassError, DimensionError

__all__ = [
    "SWEEPS",
    "BackwardSolution",
    "backward_ilqr",
    "backward_newton",
    "backward_ddp",
    "multipliers_from",
    "expected_reduction",
    "quu_spectrum",
    "initial_multiplier_estimate",
    "backward_for",
]

SWEEPS = ("ilqr", "newton", "ddp")
PSD_SLACK = 1e-10  # tolerated eigenvalue undershoot from rounding
_FAILURES = (  # the checks of one stage, in the order it makes them
    "iLQR control curvature lost definiteness", "singular control curvature",
    "backward recursion produced non-finite values",
    "iLQR value Hessian lost semidefiniteness")


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

    def check_gains(self, horizon, m, n, of):
        """Raise DimensionError unless k is (horizon, m) and K (horizon, m, n),
        the shapes the gains take on `of`, a nominal or an expansion."""
        if self.horizon != horizon:
            raise DimensionError(f"gain horizon does not match the {of}")
        if self.k.shape != (horizon, m) or self.K.shape != (horizon, m, n):
            raise DimensionError(f"gain dimensions do not match the {of}")


def _sweep(exp, method, lam_bar=None):
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    if method == "newton":
        lam_bar = np.asarray(lam_bar, dtype=float)
        if lam_bar.shape != (horizon + 1, n):
            raise DimensionError("multiplier sequence must have shape (T+1, n)")

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
    gain_rows, curvatures, infos = [], [], []  # [k_t | K_t], Quu_t, sysv's info
    if m > 1:  # imported here: only m >= 2 needs LAPACK, so m = 1 never loads scipy
        from scipy.linalg.lapack import dsysv as sysv
    dot = np.dot  # the BLAS kernels of `@`, at less cost per call

    # a zero pivot, an overflow or an invalid value is found by the scan below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = aug[horizon]
        w[0, 1:] = w[1:, 0] = exp.ct_x
        w[1:, 1:] = 0.5 * (exp.ct_xx + exp.ct_xx.T)
        for t in reversed(range(horizon)):
            h = hess[t]
            if method == "ddp":
                h = h + dot(w[0, 1:], tensor[t]).reshape(size, size)
            # nested left to right, as `@` associates
            q = h + dot(dot(jac_t[t], w), jac[t])
            rows = q[u, m:]  # [q_u | Q_ux]
            if m == 1:  # the pivot overflows to inf as the array form does
                pivot = 0.5 * (q.item(0) + q.item(0))
                curvatures.append(pivot)
                gain = rows / pivot
            else:
                quu_t = 0.5 * (q[u, u] + q[u, u].T)
                curvatures.append(quu_t)
                # LAPACK never warns of ill-conditioning; info > 0 is a zero pivot
                *_, gain, info = sysv(quu_t, rows)
                infos.append(info)
            gain_rows.append(gain)
            nxt = q[m:, m:] - dot(rows.T, gain)
            # only V is symmetrized: v + v would overflow a gradient of 1e308
            w = aug[t]
            w[0, 1:] = w[1:, 0] = nxt[1:, 0]
            vt = nxt[1:, 1:]
            w[1:, 1:] = 0.5 * (vt + vt.T)
    quu = np.reshape(curvatures[::-1], (horizon, m, m))
    gains = np.reshape(gain_rows[::-1], (horizon, m, n + 1))
    v, big_v = aug[:, 1:, 0].copy(), aug[:, 1:, 1:].copy()

    # one row per check of `_FAILURES`, one column per stage
    checks = np.zeros((len(_FAILURES), horizon), dtype=bool)
    quu_ok = np.isfinite(quu).all(axis=(1, 2))
    zero_pivot = quu[:, 0, 0] == 0.0 if m == 1 else np.greater(infos[::-1], 0)
    checks[1] = ~quu_ok | zero_pivot
    v_ok = np.isfinite(v[:horizon]).all(axis=1) & np.isfinite(big_v[:horizon]).all(axis=(1, 2))
    checks[2] = ~v_ok
    if method == "ilqr":
        # Impossible to violate for valid cost models (R > 0, PSD V propagation).
        # eigvalsh sees only finite blocks: a non-finite one has no spectrum.
        r_min = float(np.linalg.eigvalsh(exp.r)[0])
        quu_min = np.linalg.eigvalsh(np.where(quu_ok[:, None, None], quu, 0.0))[:, 0]
        checks[0] = quu_ok & (quu_min < r_min - PSD_SLACK)
        v_min = np.linalg.eigvalsh(np.where(v_ok[:, None, None], big_v[:horizon], 0.0))[:, 0]
        checks[3] = v_min < -PSD_SLACK
    failing = np.flatnonzero(checks.any(axis=0))
    if failing.size:
        t = int(failing[-1])
        raise BackwardPassError(t, _FAILURES[int(np.argmax(checks[:, t]))])

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
        raise DimensionError("path horizon does not match the solution")
    return sol.v + np.einsum("tij,tj->ti", sol.V, dx)


def expected_reduction(sol, exp) -> float:
    """Quadratic-model cost change for the sweep's full step.

    Equals -1/2 sum_t g_t' Quu_t^{-1} g_t with g_t the stage control gradient
    R u_t + fu' v_{t+1}; since k_t = Quu_t^{-1} g_t the sum is accumulated as
    g_t . k_t. A step with its feedforward scaled by alpha predicts
    (2 alpha - alpha^2) times this, bit for bit on `linesearch.ALPHAS`.
    Nonpositive whenever every Quu is positive definite; an indefinite sweep
    (Newton/DDP) can make it positive, which is reported as-is. Gains of
    another shape than `exp`'s raise DimensionError.
    """
    sol.check_gains(exp.horizon, exp.control_dim, exp.state_dim, "expansion")
    # stacks of matrix-vector and dot products round as each stage's would
    g = exp.ru + (exp.fu.transpose(0, 2, 1) @ sol.v[1:, :, None])[..., 0]
    total = 0.0
    for term in (g[:, None, :] @ sol.k[:, :, None])[:, 0, 0].tolist():
        total += term
    return -0.5 * total


def quu_spectrum(sol) -> np.ndarray:
    """Minimum eigenvalue of each stage's control curvature block."""
    return np.linalg.eigvalsh(sol.quu)[:, 0]


def initial_multiplier_estimate(exp) -> np.ndarray:
    """Costate seed for the first Newton sweep: value gradients of an iLQR
    sweep on the same expansion, the stacked subproblem's multiplier estimate
    at zero deviation."""
    return multipliers_from(backward_ilqr(exp))


def backward_for(method, exp, costates=None):
    """The backward sweep of one method in SWEEPS on `exp`.

    Newton contracts the given costates, seeded by `initial_multiplier_estimate`
    when there are none yet; the other sweeps ignore them. The sweep carries
    what it contracted in `costates`. A name not in SWEEPS raises ValueError.
    """
    if method not in SWEEPS:
        raise ValueError(f"unknown sweep '{method}'")
    if method == "ilqr":
        return backward_ilqr(exp)
    if method == "ddp":
        return backward_ddp(exp)
    if costates is None:
        costates = initial_multiplier_estimate(exp)
    return backward_newton(exp, costates)
