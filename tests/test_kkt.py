"""Stacked QP assembly, banded KKT solves, and equivalence."""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack

from trajopt import (DimensionError, KktError, backward_ddp, backward_for,
                     backward_ilqr, backward_newton, check_derivatives, expand_along,
                     make_benchmark, rollout, verify_equivalence)
from trajopt import kkt
from trajopt.artifacts import write_verification_json
from trajopt.backward import initial_multiplier_estimate
from trajopt.kkt import RESIDUAL_SCALE, StackedQP, assemble_qp, solve_kkt
from trajopt.models import random_linear

from conftest import dense_qp, random_nominal


def test_assemble_single_stage_scalar_transcription():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 1, seed=0)
    exp = expand_along(model, cost, traj)
    hessian, gradient, constraints = dense_qp(assemble_qp(exp))
    # variables: (dx_1 (2), du_0 (1))
    expected_h = np.zeros((3, 3))
    expected_h[:2, :2] = exp.ct_xx
    expected_h[2:, 2:] = exp.r
    assert np.array_equal(hessian, expected_h)
    assert np.array_equal(gradient, np.concatenate([exp.ct_x, exp.ru[0]]))
    expected_a = np.zeros((2, 3))
    expected_a[:, :2] = -np.eye(2)
    expected_a[:, 2:] = exp.fu[0]
    assert np.array_equal(constraints, expected_a)
    # single stage: dx_0 = 0 removes every dynamics-Hessian block
    lam = np.ones((2, 2))
    assert np.array_equal(dense_qp(assemble_qp(exp, lam))[0], hessian)


def test_assemble_newton_adds_symmetric_hessian_blocks():
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 3, seed=1)
    exp = expand_along(model, cost, traj)
    rng = np.random.default_rng(2)
    lam = rng.normal(size=(4, 4))
    hessian = dense_qp(assemble_qp(exp, lam))[0]
    assert np.array_equal(hessian, hessian.T)
    n, m = 4, 1
    nx = 3 * n
    for t in (1, 2):
        wxx = np.einsum("i,ijk->jk", lam[t + 1], exp.fxx[t])
        wxu = np.einsum("i,ijk->jk", lam[t + 1], exp.fxu[t])
        ix = slice((t - 1) * n, t * n)
        iu = slice(nx + t * m, nx + (t + 1) * m)
        assert np.allclose(hessian[ix, ix], exp.lxx[t] + wxx, atol=1e-14)
        assert np.allclose(hessian[ix, iu], wxu, atol=1e-14)


def test_assemble_pendulum_entrywise_recomputation():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 3, seed=4)
    exp = expand_along(model, cost, traj)
    hessian, gradient, constraints = dense_qp(assemble_qp(exp))
    n, m, horizon = 2, 1, 3
    size = (n + m) * horizon

    hess = np.zeros((size, size))
    grad = np.zeros(size)
    cons = np.zeros((horizon * n, size))
    # independent assembly, state-major then control-major layout
    for t in range(1, horizon):
        hess[(t - 1) * n:t * n, (t - 1) * n:t * n] = exp.lxx[t]
        grad[(t - 1) * n:t * n] = exp.lx[t]
    hess[(horizon - 1) * n:horizon * n, (horizon - 1) * n:horizon * n] = exp.ct_xx
    grad[(horizon - 1) * n:horizon * n] = exp.ct_x
    for t in range(horizon):
        iu = slice(horizon * n + t * m, horizon * n + (t + 1) * m)
        hess[iu, iu] = exp.r
        grad[iu] = exp.ru[t]
        rows = slice(t * n, (t + 1) * n)
        cons[rows, t * n:(t + 1) * n] = -np.eye(n)
        if t >= 1:
            cons[rows, (t - 1) * n:t * n] = exp.fx[t]
        cons[rows, iu] = exp.fu[t]

    assert np.array_equal(hessian, hess)
    assert np.array_equal(gradient, grad)
    assert np.array_equal(constraints, cons)


def test_solve_unconstrained_identity_hessian():
    # one stage of three controls and no state: a window of unknowns
    # (du_0,) only, with no constraint
    g = np.array([1.0, -2.0, 0.5])
    sol = solve_kkt(StackedQP(windows=np.eye(3)[None], gradient=g[None]))
    assert sol.du.shape == (1, 3) and np.allclose(sol.du, -g, atol=1e-14)
    assert sol.lam.size == sol.dx.size == 0


def test_solve_scalar_constrained_by_hand():
    # min 4 z + z^2 subject to -z = 0, the sign of the stacked constraints
    # (fx dx + fu du - dx' = 0): dz = 0 and the multiplier balances the
    # gradient, lam = 4. One stage with n = 1, m = 0: unknowns (lam, z), KKT
    # matrix [[0, -1], [-1, 2]], in the window over (dx_0, lam, z).
    window = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 2.0]])
    sol = solve_kkt(StackedQP(windows=window[None], gradient=np.array([0.0, 4.0])[None]))
    assert sol.du.size == 0
    assert sol.dx[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert sol.lam[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_kkt_reproduces_classical_lqr_solution(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    nominal = rollout(model, cost, x0, np.zeros((horizon, 1)))
    exp = expand_along(model, cost, nominal)
    du = solve_kkt(assemble_qp(exp)).du

    # independent reference: textbook Riccati gains rolled out from x0 (the
    # problem is exactly quadratic, so the one-shot QP step is the optimum)
    a, b = model.a, model.b
    q, r, qt = cost.q, cost.control_weight, cost.q_terminal
    p = qt.copy()
    gains = []
    for _ in range(horizon):
        quu = r + b.T @ p @ b
        kf = np.linalg.solve(quu, b.T @ p @ a)
        p = q + a.T @ p @ (a - b @ kf)
        gains.append(kf)
    gains.reverse()
    x = x0.copy()
    u_ref = np.zeros((horizon, 1))
    for t, kf in enumerate(gains):
        u_ref[t] = -(kf @ x)
        x = a @ x + b @ u_ref[t]
    assert np.allclose(nominal.controls + du, u_ref, atol=1e-9)


def test_solver_invariants_on_random_problems():
    model, cost, x0, _ = make_benchmark("pendulum")
    for horizon in (2, 5, 20):
        traj = random_nominal(model, cost, x0, horizon, seed=horizon)
        exp = expand_along(model, cost, traj)
        qp = assemble_qp(exp)
        sol = solve_kkt(qp)
        hessian, gradient, constraints = dense_qp(qp)
        dz = np.concatenate([sol.dx.reshape(-1), sol.du.reshape(-1)])  # dense_qp's order
        scale = 1.0 + np.max(np.abs(gradient))
        assert sol.residual <= 1e-9 * scale
        assert np.max(np.abs(constraints @ dz)) <= 1e-9 * scale
        # descent certificate
        directional = float(dz @ gradient)
        curvature = float(dz @ hessian @ dz)
        assert directional == pytest.approx(-curvature, rel=1e-9, abs=1e-9)
        assert directional < 0.0


def test_verify_equivalence_linear_is_exact(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    traj = random_nominal(model, cost, x0, horizon, seed=3)
    exp = expand_along(model, cost, traj)
    report = verify_equivalence(backward_ilqr(exp), exp, tol=1e-10)
    assert report.passed


@pytest.mark.parametrize("system,variant", [
    ("pendulum", "ilqr"), ("cartpole", "newton"), ("cartpole", "ddp")])
def test_verify_equivalence_central_oracle(system, variant):
    model, cost, x0, _ = make_benchmark(system)
    traj = random_nominal(model, cost, x0, 20, seed=14)
    exp = expand_along(model, cost, traj)
    if variant == "ilqr":
        report = verify_equivalence(backward_ilqr(exp), exp, tol=1e-8)
    elif variant == "newton":
        lam = initial_multiplier_estimate(exp)
        report = verify_equivalence(backward_newton(exp, lam), exp, lam, tol=1e-8)
    else:
        report = verify_equivalence(backward_ddp(exp), exp, tol=1e-8)
    assert report.passed, report.summary()


def test_verify_equivalence_localizes_injected_fault():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 10, seed=6)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    corrupted_k = sol.k.copy()
    corrupted_k[4] += 0.05
    bad = type(sol)(v=sol.v, V=sol.V, k=corrupted_k, K=sol.K, quu=sol.quu,
                    method="ilqr")
    report = verify_equivalence(bad, exp, tol=1e-8)
    assert report.certified == "ilqr"
    assert not report.passed
    assert report.max_rel_err > 1e-4
    worst = max(report.checks, key=lambda c: c.max_rel_err)
    assert worst.worst >= 4  # corruption propagates from stage 4 on


def _nan_value_hessian_report():
    """The report of a T = 20 pendulum iLQR sweep whose V[5] is NaN."""
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 20, seed=0))
    sol = backward_ilqr(exp)
    value_hessians = sol.V.copy()
    value_hessians[5] = np.nan
    return verify_equivalence(replace(sol, V=value_hessians), exp, tol=1e-8)


def test_verify_equivalence_fails_a_nan_value_hessian():
    # a NaN in V makes the sweep's costates lam_t = v_t + V_t dx_t NaN from
    # t = 5; the worst error is NaN, and no comparison lets it pass
    report = _nan_value_hessian_report()
    assert not report.passed
    assert np.isnan(report.max_rel_err)
    assert [(c.name, c.worst) for c in report.failures()] == [("lam", 5)]


def test_verification_json_writes_a_nan_error_as_null(tmp_path):
    # the report of the V[5] NaN sweep stays strict JSON: the failed check's
    # error is null, not the bare token NaN
    report = _nan_value_hessian_report()
    out = tmp_path / "verify.json"
    write_verification_json(out, [("pendulum", report)])

    def strict(token):
        raise ValueError(f"non-JSON constant {token}")

    payload = json.loads(out.read_text(), parse_constant=strict)
    lam = payload[2]
    assert (lam["check"], lam["max_rel_err"], lam["worst"], lam["pass"]) == ("lam", None, 5, False)
    assert [entry["pass"] for entry in payload] == [c.passed for c in report.checks]
    assert all(isinstance(entry["max_rel_err"], float) for entry in payload[:2])


@pytest.mark.parametrize(("scale", "sign", "message"), [
    (2.0, 1.0, "descent certificate identity violated"),
    (-1.0, -1.0, "stacked QP step failed to be a descent direction"),
], ids=["identity", "ascent"])
def test_the_descent_certificate_rejects_a_bad_oracle_step(monkeypatch, scale, sign, message):
    # iLQR's oracle step z = (du, dx) has g'z = -z'H z < 0. Doubled, it
    # breaks that identity; negated, with z'H z read negated too, it keeps
    # the identity and ascends
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 6, seed=6))
    ksol = solve_kkt(assemble_qp(exp))
    matvec = kkt._matvec
    monkeypatch.setattr(kkt, "solve_kkt",
                        lambda qp: replace(ksol, du=scale * ksol.du, dx=scale * ksol.dx))
    monkeypatch.setattr(kkt, "_matvec", lambda qp, x: sign * matvec(qp, x))
    with pytest.raises(KktError, match=message):
        verify_equivalence(backward_ilqr(exp), exp, tol=1e-8)


def test_solve_kkt_rejects_singular_systems():
    # one stage with n = m = 1 whose window, over (dx_0, du_0, lam_1, dx_1), is zero
    qp = StackedQP(windows=np.zeros((1, 4, 4)), gradient=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(KktError, match="singular KKT matrix"):
        solve_kkt(qp)


@pytest.mark.parametrize(("change", "message"), [(1e-6, "KKT residual"),
                                                (np.nan, "non-finite values")])
def test_solve_kkt_rejects_a_bad_banded_solution(monkeypatch, change, message):
    # the guards after the banded solve, fed the true solution with one dx
    # entry nudged (or made NaN): dx_1's first column, after (du_0, lam_1) in
    # stage row 0 of gbsv's flat solution
    model, cost, x0, _ = make_benchmark("pendulum")
    qp = assemble_qp(expand_along(model, cost, random_nominal(model, cost, x0, 5, seed=3)))
    n, m = 2, 1
    entry = m + n
    assert qp.gradient.shape == (5, 2 * n + m) and qp.windows.shape[1] == 3 * n + m
    assert RESIDUAL_SCALE * (1.0 + np.abs(qp.gradient).max()) < 1e-6
    dgbsv = lapack.dgbsv

    def nudged(*args, **kwargs):
        lu, pivots, solution, info = dgbsv(*args, **kwargs)
        solution[entry] += change
        return lu, pivots, solution, info

    monkeypatch.setattr(lapack, "dgbsv", nudged)  # where solve_kkt imports it from
    with pytest.raises(KktError, match=message):
        solve_kkt(qp)


def test_oracle_certifies_every_sweep_at_benchmark_horizons():
    instances = [make_benchmark(system)[:3] for system in ("pendulum", "cartpole")]
    instances.append(random_linear(np.random.default_rng(0)))
    assert instances[-1][0].control_dim == 2
    for model, cost, x0 in instances:
        for horizon in (100, 200):
            traj = random_nominal(model, cost, x0, horizon, seed=horizon)
            exp = expand_along(model, cost, traj)
            for method in ("ilqr", "newton", "ddp"):
                report = verify_equivalence(backward_for(method, exp), exp, tol=1e-8)
                assert (report.certified, report.horizon) == (method, horizon)
                assert report.passed, report.summary()


def test_verification_json_schema(tmp_path):
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 5, seed=2)
    exp = expand_along(model, cost, traj)
    report = verify_equivalence(backward_ilqr(exp), exp, tol=1e-8)
    derivatives = check_derivatives(model, cost)
    out = tmp_path / "verify.json"
    write_verification_json(out, [("pendulum", report), ("pendulum", derivatives)])
    payload = json.loads(out.read_text())
    assert payload == [
        {"system": "pendulum", "certified": "ilqr", "T": 5, "check": c.name,
         "max_rel_err": c.max_rel_err, "worst": c.worst, "tol": 1e-8, "pass": True}
        for c in report.checks] + [
        {"system": "pendulum", "certified": "derivatives", "T": None, "check": c.name,
         "max_rel_err": c.max_rel_err, "worst": c.worst, "tol": 1e-7, "pass": True}
        for c in derivatives.checks]
    assert [entry["check"] for entry in payload[:3]] == ["dx", "du", "lam"]
    assert report.max_rel_err == max(c.max_rel_err for c in report.checks)
    assert all(0 <= entry["worst"] <= 5 for entry in payload[:3])


_FOREIGN_COSTATES = "costates differ from those the sweep contracted"
_BAD_TOL = "^tol must be positive and finite$"


@pytest.mark.parametrize(("call", "error", "message"), [
    (lambda exp, sol, lam: assemble_qp(exp, sol.v[1:]), DimensionError,
     r"multiplier sequence must have shape \(T\+1, n\)"),
    # a caller's costates must be the ones the sweep contracted
    (lambda exp, sol, lam: verify_equivalence(backward_newton(exp, lam), exp, 2 * lam),
     ValueError, _FOREIGN_COSTATES),
    (lambda exp, sol, lam: verify_equivalence(sol, exp, lam), ValueError, _FOREIGN_COSTATES),
    # a NaN or nonpositive tol would fail every report in silence, an
    # infinite one would pass every sweep, a wrong one included
    (lambda exp, sol, lam: verify_equivalence(sol, exp, tol=0.0), ValueError, _BAD_TOL),
    (lambda exp, sol, lam: verify_equivalence(sol, exp, tol=-1e-8), ValueError, _BAD_TOL),
    (lambda exp, sol, lam: verify_equivalence(sol, exp, tol=np.nan), ValueError, _BAD_TOL),
    (lambda exp, sol, lam: verify_equivalence(sol, exp, tol=np.inf), ValueError, _BAD_TOL),
    # a bool tol would run as the int it subclasses, and pass every sweep at 1
    (lambda exp, sol, lam: verify_equivalence(sol, exp, tol=True), ValueError, _BAD_TOL),
], ids=["assemble-costates", "verify-newton-other-costates", "verify-ilqr-costates",
        "verify-tol-zero", "verify-tol-negative", "verify-tol-nan", "verify-tol-inf",
        "verify-tol-bool"])
def test_oracle_rejects_bad_inputs(call, error, message):
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 6, seed=6))
    with pytest.raises(error, match=message):
        call(exp, backward_ilqr(exp), initial_multiplier_estimate(exp))
