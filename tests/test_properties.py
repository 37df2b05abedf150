"""Properties over random problems (hypothesis).

`lq_problems` draws a `LinearModel` and a `QuadraticCost` with n in 1..4,
m in {1, 2, 3} and T in 1..40: PSD Q and Q_terminal of random rank, PD R,
and dynamics scaled to spectral norm at most 1.1. The batched paths must
reproduce the per-point and per-stage arithmetic exactly, and every sweep
must match the banded KKT oracle. `expansions` draws local models with no
system behind them, n in 2..5, m in 1..3 and T in 1..60, with nonzero fxx
and fxu; there too every sweep must match the oracle, which makes it the
check of the sweeps' control cross terms at m >= 2.

`nominals` draws random nominals of pendulums and cart-poles with random
physical parameters, and of such linear systems with m = 2 and m = 3. On
them the four per-stage loops (the sweeps, the forward pass, the linearized
rollout and the adjoint gradient) must equal, bit for bit, the plain
per-stage references kept below. The sweep's reference is the same
recursion in (du, 1, dx) coordinates: `@` products, a per-stage contraction
of the Hessian tensor with the weight, one solve of the u-rows and one
finiteness check per stage. The other references evaluate a control law per
step and step the models on numpy scalars. The linearized rollout and the
adjoint call `np.dot`, so their references also pin that it rounds as `@`.
The forward pass's feedback and the linear model's step sum each row left
to right in Python floats, so their references sum element by element in
that order.
On the pendulum and cart-pole nominals, the slope that `solve` gives the line
search, -sum_t g_t'k_t from the sweep, must equal the directional derivative
of the linearized rollout along the adjoint gradient to 1e-9.

With one or two faults injected into random expansions (an indefinite stage
or terminal Hessian, a zero m = 1 pivot, a gradient of 1e308), every sweep
must raise the error of a reference that checks each stage as it goes, from
t = T - 1 down: the first failure in sweep order, with the first check that
stage fails.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dsysv

from trajopt import (BackwardPassError, CartPoleModel, DivergenceError, LinearModel,
                     PendulumModel, QuadraticCost, backward_for, cost_gradient_adjoint,
                     directional_derivative, expand_along, expected_reduction,
                     forward_pass, linear_rollout, make_benchmark, rollout, total_cost,
                     verify_equivalence)
from trajopt import kkt
from trajopt.expansion import ExpansionSequence
from trajopt.linesearch import ALPHAS
from trajopt.trajectory import STATE_MAGNITUDE_LIMIT

from conftest import dense_kkt, random_nominal

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)
SWEEPS = st.sampled_from(["ilqr", "newton", "ddp"])


def _lq(draw, rng, n, m):
    a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    a /= max(1.0, np.linalg.norm(a, 2) / 1.1)
    model = LinearModel(a, rng.normal(size=(n, m)))

    def psd(rank):
        f = rng.normal(size=(n, rank))
        return f @ f.T

    g = rng.normal(size=(m, m))
    cost = QuadraticCost(psd(draw(st.integers(0, n))), g @ g.T + 0.1 * np.eye(m),
                         psd(draw(st.integers(0, n))), rng.normal(size=n))
    return model, cost


@st.composite
def lq_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 3]))
    horizon = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model, cost = _lq(draw, rng, n, m)
    traj = rollout(model, cost, rng.normal(size=n),
                   rng.uniform(-1.0, 1.0, size=(horizon, m)))
    return model, cost, traj, rng


@st.composite
def nominals(draw, systems=("pendulum", "cartpole", "linear-m2", "linear-m3"),
             min_horizon=1, max_horizon=40):
    system = draw(st.sampled_from(systems))
    horizon = draw(st.integers(min_horizon, max_horizon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if system == "pendulum":  # mass, length, gravity, damping, dt
        model = PendulumModel(*rng.uniform([0.5, 0.5, 5.0, 0.0, 0.01],
                                           [2.0, 2.0, 15.0, 0.5, 0.1]))
        cost = make_benchmark(system)[1]
    elif system == "cartpole":  # cart mass, pole mass, pole com, gravity, dt
        model = CartPoleModel(*rng.uniform([0.5, 0.05, 0.2, 5.0, 0.005],
                                           [2.0, 0.5, 1.0, 15.0, 0.05]))
        cost = make_benchmark(system)[1]
    else:
        model, cost = _lq(draw, rng, draw(st.integers(1, 4)), int(system[-1]))
    controls = rng.uniform(model.control_low, model.control_high,
                           size=(horizon, model.control_dim))
    traj = rollout(model, cost, rng.uniform(model.state_low, model.state_high), controls)
    return model, cost, traj, rng


@st.composite
def expansions(draw):
    """(exp, costates): a local model with no system behind it, n in 2..5,
    m in 1..3 and T in 1..60, with nonzero fxx and fxu at every stage, and
    Newton costates whose stage scales spread over two decades."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fx = np.eye(n) + 0.3 * rng.normal(size=(horizon, n, n))
    fx /= np.maximum(1.0, np.linalg.norm(fx, 2, axis=(1, 2)) / 1.1)[:, None, None]
    f = rng.normal(size=(horizon, n, n, n))

    def psd(*shape):
        g = rng.normal(size=shape)
        return g @ np.swapaxes(g, -1, -2)

    exp = ExpansionSequence(
        fx=fx, fu=rng.normal(size=(horizon, n, m)),
        fxx=0.1 * (f + f.transpose(0, 1, 3, 2)),
        fxu=0.1 * rng.normal(size=(horizon, n, n, m)),
        lx=rng.normal(size=(horizon, n)), lxx=psd(horizon, n, n),
        ru=rng.normal(size=(horizon, m)), r=psd(m, m) + 0.1 * np.eye(m),
        ct_x=rng.normal(size=n), ct_xx=psd(n, n))
    scales = 10.0 ** rng.uniform(-1.0, 1.0, size=(horizon + 1, 1))
    return exp, rng.normal(size=(horizon + 1, n)) * scales


def _costates(rng, traj):
    """Newton costates, one per state, at a scale drawn over four decades:
    as large as real value gradients, so a contraction's last bit does not
    vanish into Q_xx."""
    return rng.normal(size=traj.states.shape) * 10.0 ** rng.uniform(0.0, 4.0)


def _reference_q(exp, method, costates, t, v_next, big_v_next):
    """Q = H_t + J_t'WJ_t over the stage unknowns z = (du, 1, dx), W = [[0, v'],
    [v, V]] the value at t+1."""
    n, m = exp.state_dim, exp.control_dim
    size = m + 1 + n
    u, x = slice(0, m), slice(m + 1, size)
    w = np.zeros((n + 1, n + 1))
    w[0, 1:] = w[1:, 0] = v_next
    w[1:, 1:] = big_v_next
    jac = np.zeros((n + 1, size))
    jac[0, m] = 1.0
    jac[1:, u], jac[1:, x] = exp.fu[t], exp.fx[t]
    h = np.zeros((size, size))
    h[u, u] = exp.r
    h[u, m] = h[m, u] = exp.ru[t]
    h[x, m] = h[m, x] = exp.lx[t]
    h[x, x] = exp.lxx[t]
    if method != "ilqr":
        tensor = np.zeros((n, size, size))
        tensor[:, x, x] = exp.fxx[t]
        tensor[:, x, u] = exp.fxu[t]
        tensor[:, u, x] = exp.fxu[t].transpose(0, 2, 1)
        weight = v_next if method == "ddp" else costates[t + 1]
        h = h + (weight @ tensor.reshape(n, -1)).reshape(size, size)
    return h + jac.T @ w @ jac


def _reference_sweep(exp, method, costates):
    """(v, V, k, K, Quu) of one sweep, stage by stage."""
    horizon, n, m = exp.horizon, exp.state_dim, exp.control_dim
    v, big_v = np.zeros((horizon + 1, n)), np.zeros((horizon + 1, n, n))
    k, gains = np.zeros((horizon, m)), np.zeros((horizon, m, n))
    quu = np.zeros((horizon, m, m))
    v[horizon] = exp.ct_x
    big_v[horizon] = 0.5 * (exp.ct_xx + exp.ct_xx.T)
    for t in reversed(range(horizon)):
        q = _reference_q(exp, method, costates, t, v[t + 1], big_v[t + 1])
        quu[t] = quu_t = 0.5 * (q[:m, :m] + q[:m, :m].T)
        rows = q[:m, m:]
        sol = rows / quu_t[0, 0] if m == 1 else dsysv(quu_t, rows)[2]
        k[t], gains[t] = sol[:, 0], sol[:, 1:]
        nxt = q[m:, m:] - rows.T @ sol
        v[t] = nxt[1:, 0]
        big_v[t] = 0.5 * (nxt[1:, 1:] + nxt[1:, 1:].T)
        assert np.isfinite(v[t]).all() and np.isfinite(big_v[t]).all()
    return v, big_v, k, gains, quu


def _reference_failure(exp, method, costates):
    """(timestep, message) of the first failure of a sweep that checks each
    stage as it goes, from t = T - 1 down, or None. A stage checks, in turn:
    the iLQR Quu guard (min eig Quu >= min eig R - 1e-10, on a finite Quu),
    singular curvature (a non-finite Quu, a zero m = 1 pivot, sysv's info >
    0), finite v_t and V_t, and the iLQR V guard (min eig V_t >= -1e-10)."""
    m = exp.control_dim
    r_min = np.linalg.eigvalsh(exp.r)[0]
    v, big_v = exp.ct_x, 0.5 * (exp.ct_xx + exp.ct_xx.T)
    for t in reversed(range(exp.horizon)):
        q = _reference_q(exp, method, costates, t, v, big_v)
        quu, rows = 0.5 * (q[:m, :m] + q[:m, :m].T), q[:m, m:]
        finite = np.isfinite(quu).all()
        if method == "ilqr" and finite and np.linalg.eigvalsh(quu)[0] < r_min - 1e-10:
            return t, f"iLQR control curvature lost definiteness (timestep {t})"
        if not finite or (quu[0, 0] == 0.0 if m == 1 else dsysv(quu, rows)[3] > 0):
            return t, f"singular control curvature (timestep {t})"
        nxt = q[m:, m:] - rows.T @ (rows / quu[0, 0] if m == 1 else dsysv(quu, rows)[2])
        v, big_v = nxt[1:, 0], 0.5 * (nxt[1:, 1:] + nxt[1:, 1:].T)
        if not (np.isfinite(v).all() and np.isfinite(big_v).all()):
            return t, f"backward recursion produced non-finite values (timestep {t})"
        if method == "ilqr" and np.linalg.eigvalsh(big_v)[0] < -1e-10:
            return t, f"iLQR value Hessian lost semidefiniteness (timestep {t})"
    return None


FAULTS = ["lxx", "ct_xx", "pivot", "gradient"]


def _inject(exp, fault, stage, scale):
    """`exp` with one fault, at stage `stage` where it has one; `scale` sizes
    the indefinite Hessians."""
    n = exp.state_dim
    if fault == "lxx":  # an indefinite stage cost Hessian
        lxx = exp.lxx.copy()
        lxx[stage] -= scale * np.eye(n)
        return replace(exp, lxx=lxx)
    if fault == "ct_xx":  # an indefinite terminal Hessian
        return replace(exp, ct_xx=exp.ct_xx - scale * np.eye(n))
    if fault == "pivot":  # Quu_{T-1} = R + fu' C_xx fu with a zero (0, 0) entry
        fu, ct_xx = exp.fu.copy(), np.zeros((n, n))
        fu[-1] = 0.0
        fu[-1, 0, 0] = 1.0
        ct_xx[0, 0] = -exp.r[0, 0]
        return replace(exp, fu=fu, ct_xx=ct_xx)
    lx = exp.lx.copy()  # a gradient of 1e308, which may overflow in the stages below
    lx[stage] = np.where(lx[stage] < 0.0, -1e308, 1e308)
    return replace(exp, lx=lx)


def _reference_step(model, x, u):
    """One Euler step on numpy scalars."""
    if isinstance(model, PendulumModel):
        th, w = x
        ml2 = model.mass * model.length ** 2
        acc = (-(model.gravity / model.length) * np.sin(th)
               - model.damping / ml2 * w + u[0] / ml2)
        return np.array([th + model.dt * w, w + model.dt * acc])
    if isinstance(model, CartPoleModel):
        p, v, th, w = x
        a_cart, a_pole = model._accel(th, w, u[0])
        dt = model.dt
        return np.array([p + dt * v, v + dt * a_cart, th + dt * w, w + dt * a_pole])
    ab, xu = np.hstack([model.a, model.b]), np.concatenate([x, u])
    nxt = np.zeros(len(x))
    for i in range(len(x)):
        for j in range(len(xu)):
            nxt[i] += ab[i, j] * xu[j]
    return nxt


def _reference_forward_pass(model, cost, nominal, sol, alpha):
    """(states, controls, cost) of the closed-loop rollout, or the timestep
    at which it diverges."""
    states = np.zeros_like(nominal.states)
    controls = np.zeros_like(nominal.controls)
    states[0] = nominal.states[0]
    for t in range(nominal.horizon):
        feedforward = nominal.controls[t] - alpha * sol.k[t]
        for i in range(len(feedforward)):
            feedback = 0.0
            for j in range(len(states[t])):
                feedback += sol.K[t, i, j] * (states[t, j] - nominal.states[t, j])
            controls[t, i] = feedforward[i] - feedback
        nxt = _reference_step(model, states[t], controls[t])
        if not np.abs(nxt).max() <= STATE_MAGNITUDE_LIMIT:
            return t + 1
        states[t + 1] = nxt
    return states, controls, total_cost(cost, states, controls)


def _reference_linear_rollout(exp, sol, alpha):
    dx = np.zeros((exp.horizon + 1, exp.state_dim))
    du = np.zeros((exp.horizon, exp.control_dim))
    for t in range(exp.horizon):
        du[t] = -alpha * sol.k[t] - sol.K[t] @ dx[t]
        dx[t + 1] = exp.fx[t] @ dx[t] + exp.fu[t] @ du[t]
    return dx, du


def _reference_gradient(exp):
    grad = np.zeros((exp.horizon, exp.control_dim))
    nu = exp.ct_x.copy()
    for t in reversed(range(exp.horizon)):
        grad[t] = exp.ru[t] + exp.fu[t].T @ nu
        nu = exp.lx[t] + exp.fx[t].T @ nu
    return grad


def _equal(arrays, references):
    return all(np.array_equal(a, b) for a, b in zip(arrays, references, strict=True))


def _forward_pass_equals_the_reference(model, cost, nominal, sol, alpha):
    reference = _reference_forward_pass(model, cost, nominal, sol, alpha)
    try:
        result = forward_pass(model, cost, nominal, sol, alpha)
    except DivergenceError as exc:
        return exc.timestep == reference
    return (_equal((result.states, result.controls), reference[:2])
            and result.cost == reference[2])


@PROPERTY_SETTINGS
@given(lq_problems())
def test_every_sweep_matches_the_kkt_oracle(problem):
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    costates = rng.normal(size=traj.states.shape)
    for method in ("ilqr", "newton", "ddp"):
        report = verify_equivalence(backward_for(method, exp, costates), exp, tol=1e-8)
        assert report.passed, report.summary()


@PROPERTY_SETTINGS
@given(expansions())
def test_every_sweep_matches_the_kkt_oracle_on_random_expansions(drawn):
    # the only draws with m >= 2 and a nonzero fxu: the oracle certifies the
    # sweep's control cross terms, which no model with m >= 2 exercises
    exp, costates = drawn
    for method in ("ilqr", "newton", "ddp"):
        report = verify_equivalence(backward_for(method, exp, costates), exp, tol=1e-8)
        assert report.passed, report.summary()


def _windows_act_as_the_dense_kkt_matrix(qp, rng):
    """The oracle's products and solve against the dense matrix its windows
    sum to: `_matvec` to 1e-12 of the largest |K||x| entry, `solve_kkt` to
    1e-9 of the largest entry of np.linalg.solve's solution."""
    dense = dense_kkt(qp)
    x = rng.normal(size=qp.gradient.shape)  # stage rows, which dense_kkt flattens
    error = np.max(np.abs(kkt._matvec(qp, x).reshape(-1) - dense @ x.reshape(-1)))
    assert error <= 1e-12 * np.max(np.abs(dense) @ np.abs(x.reshape(-1)))
    ksol = kkt.solve_kkt(qp)
    solution = np.hstack([ksol.du, ksol.lam, ksol.dx]).reshape(-1)
    reference = np.linalg.solve(dense, -qp.gradient.reshape(-1))
    assert np.max(np.abs(solution - reference)) <= 1e-9 * max(1.0, np.max(np.abs(reference)))


@PROPERTY_SETTINGS
@given(expansions(), SWEEPS, st.integers(0, 2**32 - 1))
def test_the_oracle_windows_multiply_and_solve_as_the_dense_matrix(drawn, method, seed):
    # weighted as each sweep's check weights them: none for iLQR, the drawn
    # costates for Newton, the sweep's value gradients for DDP
    exp, costates = drawn
    weights = backward_for(method, exp, costates).costates
    _windows_act_as_the_dense_kkt_matrix(kkt.assemble_qp(exp, weights),
                                         np.random.default_rng(seed))


def test_the_oracle_windows_act_as_the_dense_matrix_on_a_long_cartpole_ddp_sweep():
    model, cost, x0, _ = make_benchmark("cartpole")
    exp = expand_along(model, cost, random_nominal(model, cost, x0, 200, seed=200))
    qp = kkt.assemble_qp(exp, backward_for("ddp", exp).costates)
    assert qp.windows.shape[0] == 200
    _windows_act_as_the_dense_kkt_matrix(qp, np.random.default_rng(0))


@PROPERTY_SETTINGS
@given(lq_problems())
def test_batched_stage_cost_equals_per_point_calls(problem):
    _, cost, traj, _ = problem
    batch = cost.stage_cost(traj.states[:-1], traj.controls)
    points = []
    for x, u in zip(traj.states[:-1], traj.controls):
        point = cost.stage_cost(x, u)
        assert type(point) is float
        e = x - cost.goal
        assert point == 0.5 * float(e @ cost.q @ e) + 0.5 * float(u @ cost.control_weight @ u)
        points.append(point)
    assert batch.shape == (traj.horizon,)
    assert batch.tolist() == points


@PROPERTY_SETTINGS
@given(lq_problems())
def test_total_cost_is_the_left_to_right_sum(problem):
    _, cost, traj, _ = problem
    j = 0.0
    for x, u in zip(traj.states[:-1], traj.controls):
        j += cost.stage_cost(x, u)
    j += cost.terminal_cost(traj.states[-1])
    assert total_cost(cost, traj.states, traj.controls) == j == traj.cost


@PROPERTY_SETTINGS
@given(lq_problems())
def test_expected_reduction_equals_the_per_stage_loop(problem):
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    sol = backward_for("newton", exp, rng.normal(size=traj.states.shape))
    total = 0.0
    for t in range(sol.horizon):
        g = exp.ru[t] + exp.fu[t].T @ sol.v[t + 1]
        total += float(g @ sol.k[t])
    assert expected_reduction(sol, exp) == -0.5 * total
    # each trial step's prediction, bit for bit the alpha-scaled closed form
    for alpha in ALPHAS:
        assert ((2.0 * alpha - alpha * alpha) * expected_reduction(sol, exp)
                == -(alpha - 0.5 * alpha * alpha) * total)


@PROPERTY_SETTINGS
@given(nominals(("pendulum", "cartpole"), max_horizon=60))
def test_the_sweeps_slope_is_the_linearized_rollouts(problem):
    # The step z* solves min g'z + 1/2 z'Hz s.t. Az = 0, so g'z* = -z*'Hz*:
    # the slope `solve` hands the line search, -sum_t g_t'k_t, must be the
    # directional derivative measured independently, by the full step's
    # linearized rollout along the adjoint gradient. Newton gets the seeded
    # costates of `initial_multiplier_estimate`.
    model, cost, traj, _ = problem
    exp = expand_along(model, cost, traj)
    grad = cost_gradient_adjoint(exp)
    for method in ("ilqr", "newton", "ddp"):
        sol = backward_for(method, exp)
        assert directional_derivative(exp, sol, grad) == pytest.approx(
            2.0 * expected_reduction(sol, exp), rel=1e-9, abs=0.0), method


@PROPERTY_SETTINGS
@given(nominals(), nominals(("cartpole",), min_horizon=2))
def test_every_sweep_equals_the_per_stage_reference(problem, cartpole):
    # every draw adds a cart-pole nominal of two or more stages: n = 4 and
    # nonzero fxx and fxu, where a one-ulp contraction fault shows
    for model, cost, traj, rng in (problem, cartpole):
        exp = expand_along(model, cost, traj)
        costates = _costates(rng, traj)
        for method in ("ilqr", "newton", "ddp"):
            sol = backward_for(method, exp, costates)
            assert _equal((sol.v, sol.V, sol.k, sol.K, sol.quu),
                          _reference_sweep(exp, method, costates)), method


@PROPERTY_SETTINGS
@given(nominals(), st.floats(0.0, 1.0, exclude_min=True), SWEEPS)
def test_forward_pass_equals_the_per_step_control_law(problem, alpha, method):
    model, cost, traj, rng = problem
    sol = backward_for(method, expand_along(model, cost, traj), _costates(rng, traj))
    assert _forward_pass_equals_the_reference(model, cost, traj, sol, alpha)


@PROPERTY_SETTINGS
@given(nominals(), st.floats(0.0, 1.0), SWEEPS)
def test_linear_rollout_equals_the_per_stage_reference(problem, alpha, method):
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    sol = backward_for(method, exp, _costates(rng, traj))
    assert _equal(linear_rollout(exp, replace(sol, k=alpha * sol.k)),
                  _reference_linear_rollout(exp, sol, alpha))


@PROPERTY_SETTINGS
@given(nominals())
def test_adjoint_gradient_equals_the_per_stage_reference(problem):
    model, cost, traj, _ = problem
    exp = expand_along(model, cost, traj)
    assert np.array_equal(cost_gradient_adjoint(exp), _reference_gradient(exp))


@PROPERTY_SETTINGS
@given(nominals(("pendulum", "cartpole"), max_horizon=60),
       st.floats(0.0, 1.0, exclude_min=True))
def test_every_loop_equals_its_reference_on_nonlinear_nominals(problem, alpha):
    # nonzero fxx and fxu: the Newton and DDP contractions and the m = 1
    # pivot are compared on every draw
    model, cost, traj, rng = problem
    exp = expand_along(model, cost, traj)
    costates = _costates(rng, traj)
    assert np.array_equal(cost_gradient_adjoint(exp), _reference_gradient(exp))
    for method in ("ilqr", "newton", "ddp"):
        sol = backward_for(method, exp, costates)
        assert _equal((sol.v, sol.V, sol.k, sol.K, sol.quu),
                      _reference_sweep(exp, method, costates)), method
        assert _equal(linear_rollout(exp, replace(sol, k=alpha * sol.k)),
                      _reference_linear_rollout(exp, sol, alpha)), method
        assert _forward_pass_equals_the_reference(model, cost, traj, sol, alpha), method


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(expansions(), st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 59),
                                        st.floats(0.0, 2.0)), min_size=1, max_size=2))
def test_every_sweep_raises_for_the_first_failure_a_per_stage_sweep_meets(drawn, faults):
    # one or two faults at random stages; the sweep must raise (never warn) for
    # the first failure in sweep order, with the first check that stage fails
    exp, costates = drawn
    for fault, stage, exponent in faults:
        exp = _inject(exp, fault, stage % exp.horizon, 10.0 ** exponent)
    for method in ("ilqr", "newton", "ddp"):
        with np.errstate(all="ignore"):
            expected = _reference_failure(exp, method, costates)
        try:
            backward_for(method, exp, costates)
            found = None
        except BackwardPassError as exc:
            found = exc.timestep, str(exc)
        assert found == expected, method
