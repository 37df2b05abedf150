"""The three backward sweeps, multipliers, and the expected-reduction model."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from trajopt import (BackwardPassError, DimensionError, LinearModel,
                     QuadraticCost, SolverConfig, backward_ddp, backward_for,
                     backward_ilqr, backward_newton, expand_along,
                     expected_reduction, linear_rollout, make_benchmark,
                     multipliers_from, quu_spectrum, rollout, solve)
from trajopt.artifacts import write_gain_profile_csv
from trajopt.expansion import ExpansionSequence
from trajopt.kkt import assemble_qp, solve_kkt

from conftest import dense_qp, random_nominal


def _riccati_reference(a, b, q, r, qt, horizon):
    """Textbook finite-horizon Riccati recursion for the regulator gains."""
    p = qt.copy()
    gains = []
    for _ in range(horizon):
        quu = r + b.T @ p @ b
        k_fb = np.linalg.solve(quu, b.T @ p @ a)
        p = q + a.T @ p @ a - a.T @ p @ b @ k_fb
        gains.append(k_fb)
    return list(reversed(gains))


def _stack_path(dx, du):
    return np.concatenate([dx[1:].reshape(-1), du.reshape(-1)])


def test_lqr_stationary_nominal_gives_classical_riccati_gains(lqr_instance):
    model, cost, _, horizon = lqr_instance
    traj = rollout(model, cost, np.zeros(2), np.zeros((horizon, 1)))
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    assert np.max(np.abs(sol.k)) == 0.0
    reference = _riccati_reference(model.a, model.b, cost.q,
                                   cost.control_weight, cost.q_terminal, horizon)
    for t in range(horizon):
        assert np.allclose(sol.K[t], reference[t], atol=1e-12)


def test_single_step_feedforward_formula():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 1, seed=6)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    fu = exp.fu[0]
    quu = exp.r + fu.T @ exp.ct_xx @ fu
    expected = np.linalg.solve(quu, exp.ru[0] + fu.T @ exp.ct_x)
    assert np.allclose(sol.k[0], expected, atol=1e-14)
    assert np.allclose(sol.quu[0], quu, atol=1e-14)


def test_newton_with_zero_multipliers_equals_ilqr_exactly():
    model, cost, x0, _ = make_benchmark("cartpole")
    traj = random_nominal(model, cost, x0, 15, seed=3)
    exp = expand_along(model, cost, traj)
    ilqr = backward_ilqr(exp)
    newton = backward_newton(exp, np.zeros((16, 4)))
    assert np.array_equal(ilqr.k, newton.k)
    assert np.array_equal(ilqr.K, newton.K)
    assert np.array_equal(ilqr.v, newton.v)
    assert np.array_equal(ilqr.V, newton.V)
    assert np.array_equal(ilqr.quu, newton.quu)


def test_each_sweep_carries_the_costates_it_contracted():
    model, cost, x0, _ = make_benchmark("cartpole")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 12, seed=7))
    lam = np.random.default_rng(8).normal(size=(13, 4))
    assert backward_ilqr(exp).costates is None
    newton = backward_newton(exp, lam)
    assert np.array_equal(newton.costates, lam)
    ddp = backward_ddp(exp)
    assert ddp.costates is ddp.v
    # Newton fed DDP's costates is DDP, bit for bit
    twin = backward_newton(exp, ddp.costates)
    for name in ("v", "V", "k", "K", "quu"):
        assert np.array_equal(getattr(twin, name), getattr(ddp, name)), name


def test_all_methods_coincide_on_linear_dynamics(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    traj = random_nominal(model, cost, x0, horizon, seed=12)
    exp = expand_along(model, cost, traj)
    ilqr = backward_ilqr(exp)
    newton = backward_newton(exp, np.ones((horizon + 1, 2)))
    ddp = backward_ddp(exp)
    for other in (newton, ddp):
        assert np.array_equal(ilqr.k, other.k)
        assert np.array_equal(ilqr.K, other.K)
        assert np.array_equal(ilqr.V, other.V)


def test_ddp_equals_newton_at_stationary_nominal():
    # Run iLQR close to a stationary point; there the value gradients agree
    # with the costates and the DDP sweep must reproduce the Newton sweep
    # seeded with them.
    model, cost, x0, horizon = make_benchmark("pendulum")
    result = solve(model, cost, x0, np.zeros((horizon, 1)),
                   SolverConfig(method="ilqr", grad_tol=1e-7, max_iters=500))
    assert result.converged
    exp = expand_along(model, cost, result.trajectory)
    costates = backward_ilqr(exp).v
    ddp = backward_ddp(exp)
    newton = backward_newton(exp, costates)
    assert np.max(np.abs(ddp.k - newton.k)) <= 1e-6
    assert np.max(np.abs(ddp.K - newton.K)) <= 1e-6
    v_scale = 1.0 + np.max(np.abs(newton.V))
    assert np.max(np.abs(ddp.V - newton.V)) <= 1e-6 * v_scale


def test_ddp_first_sweep_goes_indefinite_on_cartpole_somewhere():
    model, cost, x0, horizon = make_benchmark("cartpole")
    found = False
    for seed in range(20):
        traj = random_nominal(model, cost, x0, horizon, seed, amplitude=5.0)
        spectrum = quu_spectrum(backward_ddp(expand_along(model, cost, traj)))
        if spectrum.min() < 0:
            found = True
            break
    assert found, "no seed produced an indefinite DDP control curvature"


def test_multipliers_on_zero_path_are_the_value_gradients():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 10, seed=1)
    sol = backward_ilqr(expand_along(model, cost, traj))
    lam = multipliers_from(sol)
    assert np.array_equal(lam, sol.v)
    assert lam is not sol.v


def test_multiplier_terminal_identity():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 10, seed=1)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    dx, _ = linear_rollout(exp, sol)
    lam = multipliers_from(sol, dx)
    expected_terminal = exp.ct_x + exp.ct_xx @ dx[-1]
    assert np.allclose(lam[-1], expected_terminal, atol=1e-12)


def test_multipliers_match_kkt_equality_multipliers(lqr_instance):
    model, cost, x0, horizon = lqr_instance
    traj = random_nominal(model, cost, x0, horizon, seed=2)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    dx, _ = linear_rollout(exp, sol)
    lam = multipliers_from(sol, dx)
    ksol = solve_kkt(assemble_qp(exp))
    lam_qp = ksol.multipliers.reshape(horizon, 2)
    assert np.max(np.abs(lam[1:] - lam_qp)) <= 1e-8 * max(1, np.max(np.abs(lam_qp)))


def _tiny_expansion(fx, fu, r, ru, ct_x, ct_xx, lx=None, lxx=None):
    horizon = len(fx)
    n = np.asarray(fx[0]).shape[0]
    m = np.asarray(fu[0]).shape[1]
    return ExpansionSequence(
        fx=np.asarray(fx, float), fu=np.asarray(fu, float),
        fxx=np.zeros((horizon, n, n, n)), fxu=np.zeros((horizon, n, n, m)),
        lx=np.zeros((horizon, n)) if lx is None else np.asarray(lx, float),
        lxx=np.zeros((horizon, n, n)) if lxx is None else np.asarray(lxx, float),
        ru=np.asarray(ru, float), r=np.asarray(r, float),
        ct_x=np.asarray(ct_x, float), ct_xx=np.asarray(ct_xx, float))


def test_expected_reduction_hand_case():
    # Single scalar stage with control gradient 2 and curvature 4:
    # -(1 - 1/2) * 2 * (1/4) * 2 = -0.5 at a full step.
    exp = _tiny_expansion(
        fx=[[[1.0]]], fu=[[[0.0]]], r=[[4.0]], ru=[[2.0]],
        ct_x=[0.0], ct_xx=[[0.0]])
    sol = backward_ilqr(exp)
    assert sol.k[0, 0] == pytest.approx(0.5)
    assert expected_reduction(sol, exp) == pytest.approx(-0.5, abs=1e-15)


def test_expected_reduction_trivial_cases():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 10, seed=4)
    exp = expand_along(model, cost, traj)
    sol = backward_ilqr(exp)
    # a step alpha predicts (2 alpha - alpha^2) times the full step's change: 0 at 0
    assert 0.0 * expected_reduction(sol, exp) == 0.0
    zeroed = type(sol)(v=sol.v, V=sol.V, k=np.zeros_like(sol.k), K=sol.K,
                       quu=sol.quu, method=sol.method)
    # with zero feedforward the directional term vanishes at any alpha
    assert expected_reduction(zeroed, exp) == 0.0


@pytest.mark.parametrize("variant", ["ilqr", "newton"])
def test_expected_reduction_matches_dense_quadratic_model(variant):
    # The quadratic-model change along the alpha-scaled path equals the
    # closed form -(alpha - alpha^2/2) sum g'Quu^{-1}g exactly.
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 6, seed=9)
    exp = expand_along(model, cost, traj)
    if variant == "ilqr":
        sol = backward_ilqr(exp)
        qp = assemble_qp(exp)
    else:
        lam = 0.1 * np.ones((7, 2))
        sol = backward_newton(exp, lam)
        qp = assemble_qp(exp, lam)
    hessian, gradient, _ = dense_qp(qp)
    for alpha in (0.25, 0.5, 1.0):
        z = _stack_path(*linear_rollout(exp, replace(sol, k=alpha * sol.k)))
        model_change = float(gradient @ z + 0.5 * z @ hessian @ z)
        assert model_change == pytest.approx(
            (2.0 * alpha - alpha * alpha) * expected_reduction(sol, exp), abs=1e-10)


def test_expected_reduction_monotone_in_alpha_when_definite():
    model, cost, x0, _ = make_benchmark("cartpole")
    for seed in range(5):
        traj = random_nominal(model, cost, x0, 30, seed=seed)
        exp = expand_along(model, cost, traj)
        sol = backward_ilqr(exp)
        alphas = np.linspace(0.0, 1.0, 21)
        values = [(2.0 * a - a * a) * expected_reduction(sol, exp) for a in alphas]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_quu_spectrum_scalar_control_returns_entries():
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 12, seed=3)
    sol = backward_ilqr(expand_along(model, cost, traj))
    assert np.allclose(quu_spectrum(sol), sol.quu[:, 0, 0])


def _two_input_linear():
    rng = np.random.default_rng(4)
    model = LinearModel(np.eye(3) + 0.1 * rng.normal(size=(3, 3)),
                        rng.normal(size=(3, 2)))
    cost = QuadraticCost(np.eye(3), np.diag([0.1, 0.3]), 10.0 * np.eye(3),
                         np.zeros(3))
    return model, cost, np.ones(3)


@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp"])
def test_quu_spectrum_equals_the_per_stage_loop(method):
    instances = [make_benchmark("pendulum")[:3], make_benchmark("cartpole")[:3],
                 _two_input_linear()]
    for model, cost, x0 in instances:
        traj = random_nominal(model, cost, x0, 15, seed=6)
        sol = backward_for(method, expand_along(model, cost, traj))
        loop = np.array([np.linalg.eigvalsh(quu_t)[0] for quu_t in sol.quu])
        assert np.array_equal(quu_spectrum(sol), loop)


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_ilqr_quu_floor_and_value_psd_over_seeds(system):
    model, cost, x0, _ = make_benchmark(system)
    r_min = np.linalg.eigvalsh(cost.control_weight)[0]
    for seed in range(20):
        traj = random_nominal(model, cost, x0, 40, seed=seed)
        sol = backward_ilqr(expand_along(model, cost, traj))
        assert quu_spectrum(sol).min() >= r_min - 1e-10
        for t in range(sol.v.shape[0]):
            assert np.linalg.eigvalsh(sol.V[t])[0] >= -1e-10


def test_backward_error_names_timestep_on_singular_curvature():
    # R + fu' V fu hits exactly zero at the last stage
    exp = _tiny_expansion(
        fx=[[[1.0]], [[1.0]]], fu=[[[1.0]], [[1.0]]], r=[[1.0]],
        ru=[[0.5], [0.5]], ct_x=[1.0], ct_xx=[[-1.0]])
    with pytest.raises(BackwardPassError) as excinfo:
        backward_ddp(exp)
    assert excinfo.value.timestep == 1


@pytest.mark.parametrize("fu", [[[1.0]], [[1.0, 0.0]]], ids=["m1", "m2"])
@pytest.mark.parametrize("ct_xx", [-0.5, -1.0], ids=["indefinite", "singular"])
def test_ilqr_quu_guard_fires_at_the_last_stage(fu, ct_xx):
    # a negative terminal Hessian pulls Quu = R + fu' C_xx fu below R; at -1 it
    # is also singular, and the guard still comes before the solve
    m = len(fu[0])
    exp = _tiny_expansion(
        fx=[[[1.0]], [[1.0]]], fu=[fu, fu], r=np.eye(m), ru=np.full((2, m), 0.5),
        ct_x=[1.0], ct_xx=[[ct_xx]])
    with pytest.raises(BackwardPassError,
                       match="control curvature lost definiteness") as excinfo:
        backward_ilqr(exp)
    assert excinfo.value.timestep == 1


def test_ilqr_quu_guard_tolerates_rounding_and_no_more():
    # C_xx pulls Quu_1 = R + fu' C_xx fu below min eig R = 1: 1e-11 is within
    # the rounding slack PSD_SLACK = 1e-10, and 1e-9 is not
    def expansion(ct_xx):
        return _tiny_expansion(fx=[[[1.0]], [[1.0]]], fu=[[[1.0]], [[1.0]]], r=[[1.0]],
                               ru=[[0.5], [0.5]], ct_x=[1.0], ct_xx=[[ct_xx]])

    assert backward_ilqr(expansion(-1e-11)).quu[1, 0, 0] == 1.0 - 1e-11
    with pytest.raises(BackwardPassError,
                       match="control curvature lost definiteness") as excinfo:
        backward_ilqr(expansion(-1e-9))
    assert excinfo.value.timestep == 1


@pytest.mark.parametrize("lxx_2", [-10.0, -1.5], ids=["indefinite", "singular"])
def test_ilqr_value_guard_raises_before_a_later_quu_failure(lxx_2):
    # lxx[2] = -10 makes V_2 = -9.5, and with it Quu_1 = R + V_2 < R; -1.5
    # makes V_2 = -1 and Quu_1 = 0, so stage 1 is singular. Either
    # way the value check at stage 2 comes first in sweep order and must win.
    exp = _tiny_expansion(
        fx=[[[1.0]]] * 3, fu=[[[1.0]]] * 3, r=[[1.0]], ru=[[0.5]] * 3,
        ct_x=[0.0], ct_xx=[[1.0]], lxx=[[[0.0]], [[0.0]], [[lxx_2]]])
    with pytest.raises(BackwardPassError,
                       match="value Hessian lost semidefiniteness") as excinfo:
        backward_ilqr(exp)
    assert excinfo.value.timestep == 2


OVERFLOWS = {
    # k_1 = 1e300 / 1e-300 overflows and reaches v_1 as 0 * inf, through fu = 0
    "gain": dict(fu=[[[0.0]], [[0.0]]], r=[[1e-300]], ru=[[0.0], [1e300]],
                 ct_x=[1.0], lx=None),
    # q_x = 1e308 + 1e308 overflows at R = 1, where stage 0 (its Quu the NaN
    # of 0 * inf in the block product, so it is singular) must not trip
    # the Quu guard
    "gradient": dict(fu=[[[1.0]], [[1.0]]], r=[[1.0]], ru=[[0.0], [0.0]],
                     ct_x=[1e308], lx=[[0.0], [1e308]]),
}


@pytest.mark.parametrize("method", ["ilqr", "ddp"])
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_raises_non_finite_values(method, case):
    exp = _tiny_expansion(fx=[[[1.0]], [[1.0]]], ct_xx=[[1.0]], **OVERFLOWS[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the sweep raises for an overflow, never warns
        with pytest.raises(BackwardPassError, match="non-finite values") as excinfo:
            backward_for(method, exp)
    assert excinfo.value.timestep == 1


def _one_state_expansion(m, fu, lx, ct_x, ct_xx, lxx=None):
    """n = 1, fx = 1, R = I and zero control gradient; stage t's input row
    is fu[t] on the first of the m inputs, which alone act on the state."""
    horizon = len(fu)
    rows = np.zeros((horizon, 1, m))
    rows[:, 0, 0] = fu
    return _tiny_expansion(
        fx=np.ones((horizon, 1, 1)), fu=rows, r=np.eye(m), ru=np.zeros((horizon, m)),
        ct_x=[ct_x], ct_xx=[[ct_xx]], lx=np.reshape(lx, (horizon, 1)),
        lxx=None if lxx is None else np.reshape(lxx, (horizon, 1, 1)))


def _sweep_error(method, exp):
    """(timestep, message) of the sweep's BackwardPassError, raised with no
    warning before it; the zero costates make the Newton sweep iLQR's twin."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BackwardPassError) as excinfo:
            backward_for(method, exp, np.zeros((exp.horizon + 1, 1)))
    return excinfo.value.timestep, str(excinfo.value)


NON_FINITE = "backward recursion produced non-finite values"


@pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp"])
def test_non_finite_value_hessian_beats_the_singular_curvature_below_it(method, m):
    # l_xx + C_xx = 1e308 + 8e307 overflows V_2 (v_2 stays 0); Quu_1 then
    # reads inf and stage 1 is singular, but stage 2 came first
    exp = _one_state_expansion(m, fu=[1.0, 1.0, 0.0], lx=[0.0] * 3, ct_x=0.0,
                               ct_xx=8e307, lxx=[0.0, 0.0, 1e308])
    assert _sweep_error(method, exp) == (2, f"{NON_FINITE} (timestep 2)")


@pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp"])
@pytest.mark.parametrize("stage", [2, 0])
def test_a_non_finite_value_gradient_alone_is_found(method, m, stage):
    # with fu = 0 every Quu is R and V_t = 1: l_x + C_x = 1e308 + 1e308
    # overflows v_t alone. Below stage 2 the block product reads it into
    # Quu_1 as 0 * inf, and stage 1 is singular at m = 1 and m = 2
    # alike; at stage 0 the loop ends without a failure.
    lx = np.zeros(4)
    lx[stage] = 1e308
    exp = _one_state_expansion(m, fu=np.zeros(4), lx=lx, ct_x=1e308, ct_xx=1.0)
    assert _sweep_error(method, exp) == (stage, f"{NON_FINITE} (timestep {stage})")


@pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
def test_the_ilqr_quu_guard_beats_non_finite_values_at_its_stage(m):
    # C_xx = -0.5 pulls Quu_1 = R + fu' C_xx fu below R, and l_x + C_x =
    # 1e308 + 1e308 overflows v_1: within stage 1 the Quu guard comes first
    exp = _one_state_expansion(m, fu=[1.0, 1.0], lx=[0.0, 1e308], ct_x=1e308,
                               ct_xx=-0.5)
    assert _sweep_error("ilqr", exp) == (
        1, "iLQR control curvature lost definiteness (timestep 1)")


CURVATURE_OVERFLOWS = {
    # C_xx + C_xx' = 2e308 overflows V_2 to inf, which Quu_1 = R + fu' V_2 fu
    # reads: the terminal set-up runs under the sweep's errstate too
    "terminal": dict(fu=[[[0.0]], [[1.0]]], r=[[1.0]], ct_xx=[[1e308]]),
    # the same overflow fills a 3 x 3 Quu with inf, on which LAPACK's
    # eigenvalue solver fails to converge: the iLQR guard must not see it
    "terminal-m3": dict(fu=np.ones((2, 1, 3)), r=np.eye(3), ct_xx=[[1e308]]),
    # with fu = 0 every Quu is the finite R, but Quu + Quu' overflows to inf:
    # the m = 1 pivot, a Python float, must overflow as the m = 2 block does
    "quu-m1": dict(fu=np.zeros((2, 1, 1)), r=[[1e308]], ct_xx=[[1.0]]),
    "quu-m2": dict(fu=np.zeros((2, 1, 2)), r=[[1e308, 0.0], [0.0, 1.0]], ct_xx=[[1.0]]),
}


@pytest.mark.parametrize("method", ["ilqr", "newton", "ddp"])
@pytest.mark.parametrize("case", sorted(CURVATURE_OVERFLOWS))
def test_an_overflow_into_quu_is_singular_curvature(method, case):
    spec = CURVATURE_OVERFLOWS[case]
    m = len(spec["r"])
    exp = _tiny_expansion(fx=[[[1.0]], [[1.0]]], ru=np.zeros((2, m)), ct_x=[0.0], **spec)
    timestep, message = _sweep_error(method, exp)
    assert timestep == 1
    assert message.startswith("singular control curvature")
    assert m == 2 or message == "singular control curvature (timestep 1)"


@pytest.mark.parametrize("method", ["newton", "ddp"])
def test_an_ill_conditioned_quu_at_two_inputs_is_solved_without_a_warning(method):
    # R is one rounding step from singular: the m = 2 solve stays quiet, as
    # the m = 1 pivot only divides, and the spectrum records the conditioning
    r = [[1.0, 1.0], [1.0, 1.0 + 2e-16]]
    exp = _tiny_expansion(fx=np.ones((3, 1, 1)), fu=np.zeros((3, 1, 2)), r=r,
                          ru=np.zeros((3, 2)), ct_x=[1.0], ct_xx=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = backward_for(method, exp, np.zeros((4, 1)))
    assert np.all(np.abs(quu_spectrum(sol)) < 1e-15)
    # an exactly singular block still raises, at the first stage in sweep order
    singular = replace(exp, r=np.ones((2, 2)))
    assert _sweep_error(method, singular) == (2, "singular control curvature (timestep 2)")


def test_gain_profile_csv(tmp_path):
    model, cost, x0, _ = make_benchmark("pendulum")
    traj = random_nominal(model, cost, x0, 8, seed=0)
    sol = backward_ilqr(expand_along(model, cost, traj))
    out = tmp_path / "quu_profile.csv"
    write_gain_profile_csv(out, sol)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,min_eig_quu,k_norm,K_norm"
    assert len(lines) == 9
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(quu_spectrum(sol)[0])
    assert float(row[2]) == pytest.approx(np.linalg.norm(sol.k[0]))


def _first_stages(exp, count):
    per_stage = ("fx", "fu", "fxx", "fxu", "lx", "lxx", "ru")
    return replace(exp, **{name: getattr(exp, name)[:count] for name in per_stage})


@pytest.mark.parametrize(("call", "error", "message"), [
    # one stage broadcasts against six, three do not: both are the same fault
    (lambda exp, sol, path: expected_reduction(sol, _first_stages(exp, 1)),
     DimensionError, "gain horizon does not match the expansion"),
    (lambda exp, sol, path: expected_reduction(sol, _first_stages(exp, 3)),
     DimensionError, "gain horizon does not match the expansion"),
    (lambda exp, sol, path: multipliers_from(sol, path[0][1:]),
     DimensionError, "path horizon does not match the solution"),
    (lambda exp, sol, path: backward_newton(exp, sol.v[1:]), DimensionError,
     r"multiplier sequence must have shape \(T\+1, n\)"),
    (lambda exp, sol, path: backward_newton(exp, sol.v[:, :1]), DimensionError,
     r"multiplier sequence must have shape \(T\+1, n\)"),
], ids=["reduction-one-stage", "reduction-horizon", "multipliers-path", "newton-horizon",
        "newton-width"])
def test_backward_rejects_bad_inputs(call, error, message):
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 6, seed=5))
    sol = backward_ilqr(exp)
    with pytest.raises(error, match=message):
        call(exp, sol, linear_rollout(exp, sol))


@pytest.mark.parametrize(("system", "other"), [("pendulum", "cartpole"), ("cartpole", "pendulum")])
def test_expected_reduction_rejects_gains_of_another_state_dimension(system, other):
    model, cost, x0, _ = make_benchmark(system)
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 6, seed=5))
    model, cost, x0, _ = make_benchmark(other)
    foreign = backward_ilqr(expand_along(model, cost, random_nominal(model, cost, x0, 6, seed=5)))
    with pytest.raises(DimensionError, match="gain dimensions do not match the expansion"):
        expected_reduction(foreign, exp)


@pytest.mark.parametrize("method", ["DDP", "hybrid", ""])
def test_backward_for_rejects_a_method_it_has_no_sweep_for(method):
    model, cost, x0, _ = make_benchmark("pendulum")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 4, seed=0))
    with pytest.raises(ValueError, match=f"unknown sweep '{method}'"):
        backward_for(method, exp)
