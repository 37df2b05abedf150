"""Model dynamics, analytic derivatives, and the finite-difference verifier."""

import math

import numpy as np
import pytest

from trajopt import (CartPoleModel, DimensionError, LinearModel, PendulumModel,
                     QuadraticCost, check_derivatives, make_benchmark, rollout)
from trajopt.models import BENCHMARKS, CARTPOLE_DEFAULTS, PENDULUM_DEFAULTS, SystemModel


def test_pendulum_downward_equilibrium_is_fixed_point():
    model = PendulumModel(damping=0.0)
    nxt = model.step([0.0, 0.0], [0.0])
    assert np.array_equal(nxt, [0.0, 0.0])


def test_pendulum_upright_equilibrium_is_fixed_point():
    model = PendulumModel(damping=0.0)
    nxt = model.step([np.pi, 0.0], [0.0])
    assert np.allclose(nxt, [np.pi, 0.0], atol=1e-12)


def test_pendulum_hand_euler_step():
    # theta_dot picks up dt * (-g sin(pi/2)) = -0.05 * 9.81 = -0.4905
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81, damping=0.0, dt=0.05)
    nxt = model.step([np.pi / 2, 0.0], [0.0])
    assert np.allclose(nxt, [np.pi / 2, -0.4905], atol=1e-12)


def test_pendulum_jacobian_entry_at_origin():
    model = PendulumModel(mass=1.0, length=1.0, gravity=9.81, damping=0.0, dt=0.05)
    fx, _, _, _ = model.derivatives([0.0, 0.0], [0.0])
    assert fx[1, 0] == pytest.approx(-0.4905, abs=1e-12)


def _row_sums(a, b, x, u):
    """A x + B u as `LinearModel._step` rounds it: row i of [A | B] times
    (x, u), each product added left to right to 0.0, with no fused
    multiply-add (BLAS's `A @ x` may fuse or reorder)."""
    xu = np.concatenate([x, u])
    nxt = np.zeros(len(x))
    for i, row in enumerate(np.hstack([a, b])):
        for c, v in zip(row, xu):
            nxt[i] += c * v
    return nxt


def test_linear_model_derivatives_are_the_matrices():
    a = np.array([[0.9, 0.2], [0.0, 1.1]])
    b = np.array([[0.5], [1.0]])
    model = LinearModel(a, b)
    x = np.array([0.3, -0.7])
    u = np.array([0.2])
    assert np.array_equal(model.step(x, u), _row_sums(a, b, x, u))
    assert np.allclose(model.step(x, u), a @ x + b @ u, rtol=0.0, atol=1e-15)
    fx, fu, fxx, fxu = model.derivatives(x, u)
    assert np.array_equal(fx, a)
    assert np.array_equal(fu, b)
    assert not fxx.any()
    assert not fxu.any()


def test_linear_model_rollout_equals_the_matrix_products():
    # `_step` sums in Python floats; the states round as the row sums do,
    # point by point, and stay within rounding of A @ x + B @ u
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 4)) / 2.0, rng.normal(size=(4, 2))
    model = LinearModel(a, b)
    x0, controls = rng.normal(size=4), rng.normal(size=(30, 2))
    states = [x0]
    for u in controls:
        states.append(_row_sums(a, b, states[-1], u))
    traj = rollout(model, QuadraticCost(np.eye(4), np.eye(2), np.eye(4), np.zeros(4)),
                   x0, controls)
    assert np.array_equal(traj.states, np.array(states))
    products = [a @ x + b @ u for x, u in zip(traj.states[:-1], controls)]
    assert np.allclose(traj.states[1:], products, rtol=1e-14, atol=1e-14)


def _contract_model(name):
    if name == "pendulum":
        return PendulumModel()
    if name == "cartpole":
        return CartPoleModel()
    m = int(name[-1])  # "linear-m1" .. "linear-m3"
    rng = np.random.default_rng(m)
    return LinearModel(np.eye(3) + 0.2 * rng.normal(size=(3, 3)), rng.normal(size=(3, m)))


CONTRACT_MODELS = ["pendulum", "cartpole", "linear-m1", "linear-m2", "linear-m3"]


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_raw_step_takes_and_returns_lists_of_floats(name):
    model = _contract_model(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(model.state_low, model.state_high).tolist()
        u = rng.uniform(model.control_low, model.control_high).tolist()
        nxt = model._step(x, u)
        assert type(nxt) is list and len(nxt) == model.state_dim
        assert all(type(c) is float for c in nxt)


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_step_is_the_checked_array_form_of_the_raw_step(name):
    model = _contract_model(name)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.uniform(model.state_low, model.state_high)
        u = rng.uniform(model.control_low, model.control_high)
        nxt = model.step(x, u)
        assert nxt.shape == (model.state_dim,) and nxt.dtype == np.float64
        assert nxt.tobytes() == np.array(model._step(x.tolist(), u.tolist())).tobytes()


@pytest.mark.parametrize("raw", [lambda x, u: np.array(x), lambda x, u: x[:1]],
                         ids=["array", "short-list"])
def test_step_and_rollout_refuse_a_raw_step_that_breaks_its_contract(raw):
    # a rollout sends its first point through `step`, which checks `_step`
    model = LinearModel(np.eye(2), np.eye(2)[:, :1])
    model._step = raw
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    message = "_step must return a list of 2 floats"
    with pytest.raises(DimensionError, match=message):
        model.step([0.0, 0.0], [0.0])
    with pytest.raises(DimensionError, match=message):
        rollout(model, cost, [0.0, 0.0], np.zeros((3, 1)))


def test_math_sin_and_cos_round_as_numpy_float64():
    # the models step on Python floats through `math`; the derivatives and the
    # property tests' reference step use numpy: the two must agree bit for bit
    rng = np.random.default_rng(13)
    angles = np.concatenate([rng.uniform(-scale, scale, size=20_000)
                             for scale in (1.0, 1e2, 1e4, 1e6, 1e8)])
    values = angles.tolist()
    assert np.array([math.sin(a) for a in values]).tobytes() == np.sin(angles).tobytes()
    assert np.array([math.cos(a) for a in values]).tobytes() == np.cos(angles).tobytes()


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_control_affine_three_point_collinearity(system):
    # f(x, u0 + 2d) - f(x, u0) must equal 2 (f(x, u0 + d) - f(x, u0))
    model, _, _, _ = make_benchmark(system)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(model.state_low, model.state_high)
        u0 = rng.uniform(model.control_low, model.control_high)
        d = rng.uniform(-1.0, 1.0, size=model.control_dim)
        f0 = model.step(x, u0)
        f1 = model.step(x, u0 + d)
        f2 = model.step(x, u0 + 2 * d)
        assert np.allclose(f2 - f0, 2 * (f1 - f0), atol=1e-9)


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_hessian_symmetry_and_cost_definiteness(system):
    model, cost, _, _ = make_benchmark(system)
    rng = np.random.default_rng(11)
    r = cost.control_weight
    assert np.array_equal(r, r.T)
    assert np.linalg.eigvalsh(r)[0] > 0
    for _ in range(25):
        x = rng.uniform(model.state_low, model.state_high)
        u = rng.uniform(model.control_low, model.control_high)
        _, _, fxx, _ = model.derivatives(x, u)
        for i in range(model.state_dim):
            assert np.allclose(fxx[i], fxx[i].T, atol=1e-14)
        _, lxx, _, _ = cost.stage_derivatives(x, u)
        _, ct_xx = cost.terminal_derivatives(x)
        assert np.linalg.eigvalsh(lxx)[0] >= -1e-12
        assert np.linalg.eigvalsh(ct_xx)[0] >= -1e-12


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_analytic_derivatives_match_finite_differences(system):
    model, cost, _, _ = make_benchmark(system)
    report = check_derivatives(model, cost, seed=0)
    assert report.passed, report.summary()


class _DampedDoubleIntegrator(SystemModel):
    """p_ddot = u - c p_dot: a custom model that supplies only its Euler step
    on floats and the partials of its rates on arrays."""

    state_dim, control_dim = 2, 1

    def __init__(self, c=0.3, dt=0.1):
        self.c, self.dt = c, dt
        self.state_low, self.state_high = -np.ones(2), np.ones(2)
        self.control_low, self.control_high = -np.ones(1), np.ones(1)

    def _step(self, x, u):
        p, v = x
        return [p + self.dt * v, v + self.dt * (u[0] - self.c * v)]

    def _rate_partials(self, x, u):
        batch = x.shape[:-1]
        return (np.broadcast_to([[0.0, 1.0], [0.0, -self.c]], batch + (2, 2)),
                np.broadcast_to([[0.0], [1.0]], batch + (2, 1)),
                np.zeros(batch + (2, 2, 2)), np.zeros(batch + (2, 2, 1)))


def test_a_custom_model_of_step_and_rate_partials_passes_the_derivative_check():
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    report = check_derivatives(_DampedDoubleIntegrator(), cost, seed=0)
    assert report.passed, report.summary()


def test_the_euler_assembly_of_a_custom_model_is_exact_at_a_batch():
    model = _DampedDoubleIntegrator()
    dt, c = model.dt, model.c
    rng = np.random.default_rng(6)
    fx, fu, fxx, fxu = model.derivatives(rng.uniform(-1.0, 1.0, (2, 3, 2)),
                                         rng.uniform(-1.0, 1.0, (2, 3, 1)))
    assert fx.shape == (2, 3, 2, 2) and fu.shape == (2, 3, 2, 1)
    assert np.array_equal(fx, np.broadcast_to([[1.0, dt], [0.0, 1.0 - dt * c]], fx.shape))
    assert np.array_equal(fu, np.broadcast_to([[0.0], [dt]], fu.shape))
    assert np.array_equal(fxx, np.zeros((2, 3, 2, 2, 2)))
    assert np.array_equal(fxu, np.zeros((2, 3, 2, 2, 1)))


def test_check_derivatives_linear_model_is_machine_exact():
    model = LinearModel(np.array([[1.0, 0.3], [0.1, 0.9]]), np.array([[0.0], [1.0]]))
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    report = check_derivatives(model, cost, seed=1)
    assert report.passed
    assert max(c.max_rel_err for c in report.checks) <= 1e-9
    fx_check = next(c for c in report.checks if c.name == "fx")
    assert fx_check.max_rel_err < 1e-10


class _CorruptedPendulum(PendulumModel):
    """A pendulum with one derivative entry off by `error`."""

    def __init__(self, name, index, error):
        super().__init__()
        self.fault = name, index, error

    def _derivatives(self, x, u):
        derivatives = super()._derivatives(x, u)
        name, index, error = self.fault
        derivatives[("fx", "fu", "fxx", "fxu").index(name)][index] += error
        return derivatives


def test_check_derivatives_flags_injected_jacobian_fault():
    model = _CorruptedPendulum("fx", (..., 0, 1), 0.1)
    _, cost, _, _ = make_benchmark("pendulum")
    report = check_derivatives(model, cost, seed=0)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["fx"]


def test_check_derivatives_flags_a_second_derivative_off_by_1e_6():
    # a relative error near 1e-6, ten times DERIVATIVE_TOL and a tenth of 1e-5
    model = _CorruptedPendulum("fxx", (..., 1, 0, 0), 1e-6)
    _, cost, _, _ = make_benchmark("pendulum")
    report = check_derivatives(model, cost, seed=0)
    assert [c.name for c in report.failures()] == ["fxx"]
    assert 1e-7 < report.failures()[0].max_rel_err < 1e-5


def test_quadratic_cost_derivatives_at_special_points():
    q = np.diag([2.0, 0.5])
    cost = QuadraticCost(q, 0.1 * np.eye(1), 100 * q, goal=np.array([np.pi, 0.0]))
    lx, lxx, ru, r = cost.stage_derivatives([np.pi, 0.0], [0.0])
    assert np.array_equal(lx, np.zeros(2))          # gradient vanishes at the goal
    assert np.array_equal(lxx, q)
    assert np.array_equal(ru, np.zeros(1))          # zero control, zero gradient
    assert np.array_equal(r, 0.1 * np.eye(1))
    ct_x, ct_xx = cost.terminal_derivatives([np.pi, 0.0])
    assert np.array_equal(ct_x, np.zeros(2))
    assert np.array_equal(ct_xx, 100 * q)


def test_quadratic_cost_centered_at_zero():
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2), np.zeros(2))
    assert cost.stage_cost([0.0, 0.0], np.zeros(1)) == 0.0
    lx, lxx, _, _ = cost.stage_derivatives([0.0, 0.0], [0.3])
    assert np.array_equal(lx, np.zeros(2))
    assert np.array_equal(lxx, np.eye(2))


@pytest.mark.parametrize("method", ["stage_cost", "stage_derivatives"])
def test_quadratic_cost_rejects_a_column_vector_state(method):
    # a (n, 1) state would broadcast against the goal into an (n, n) batch
    _, cost, _, _ = make_benchmark("pendulum")
    with pytest.raises(DimensionError):
        getattr(cost, method)([[0.3], [0.1]], np.zeros(1))
    with pytest.raises(DimensionError):
        getattr(cost, method)(np.zeros((5, 2, 1)), np.zeros((5, 1)))


@pytest.mark.parametrize("method", ["terminal_cost", "terminal_derivatives"])
def test_quadratic_cost_rejects_a_terminal_state_of_the_wrong_shape(method):
    # one state of shape (n,), as the stage methods check their trailing width
    _, cost, _, _ = make_benchmark("pendulum")
    for x in (np.zeros(1), np.zeros(3), [[0.3], [0.1]], np.zeros((5, 2)), 0.0):
        with pytest.raises(DimensionError, match="terminal cost takes one state"):
            getattr(cost, method)(x)


@pytest.mark.parametrize("method", ["stage_cost", "stage_derivatives"])
def test_quadratic_cost_rejects_a_wrong_control_width(method):
    _, cost, _, _ = make_benchmark("cartpole")
    for u in (np.zeros(2), np.zeros((7, 2)), np.zeros((4, 0)), np.float64(0.0)):
        with pytest.raises(DimensionError):
            getattr(cost, method)(np.zeros(u.shape[:-1] + (4,)), u)


def test_dimension_and_finiteness_contracts():
    model = PendulumModel()
    with pytest.raises(DimensionError):
        model.step([0.0, 0.0, 0.0], [0.0])
    with pytest.raises(DimensionError):
        model.step([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DimensionError):
        model.step([np.nan, 0.0], [0.0])
    with pytest.raises(DimensionError):
        model.derivatives([0.0, np.inf], [0.0])
    # step takes one point; derivatives takes a batch with one leading shape
    with pytest.raises(DimensionError):
        model.step(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        model.derivatives(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        model.derivatives(np.zeros((3, 2)), np.zeros(1))


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_batched_derivatives_match_pointwise_calls(system):
    model, cost, _, _ = make_benchmark(system)
    rng = np.random.default_rng(9)
    x = rng.uniform(model.state_low, model.state_high, size=(2, 3, model.state_dim))
    u = rng.uniform(model.control_low, model.control_high, size=(2, 3, model.control_dim))

    def evaluate(x, u):  # everything but the constant R
        return model.derivatives(x, u) + cost.stage_derivatives(x, u)[:3]

    batched = evaluate(x, u)
    for i, j in np.ndindex(2, 3):
        for whole, single in zip(batched, evaluate(x[i, j], u[i, j])):
            assert np.array_equal(whole[i, j], single)


def test_cost_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        QuadraticCost(np.eye(2), np.zeros((1, 1)), np.eye(2), np.zeros(2))  # R singular
    with pytest.raises(ValueError):
        QuadraticCost(-np.eye(2), np.eye(1), np.eye(2), np.zeros(2))  # Q indefinite
    with pytest.raises(ValueError):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        QuadraticCost(q, np.eye(1), np.eye(2), np.zeros(2))  # asymmetric


def test_make_benchmark_rejects_mismatched_vectors():
    with pytest.raises(DimensionError):
        make_benchmark("pendulum", q_diag=(1.0, 1.0, 1.0))
    with pytest.raises(DimensionError):
        make_benchmark("cartpole", x0=(0.0, 0.0))
    with pytest.raises(ValueError):
        make_benchmark("spring")


def test_both_defaults_tables_declare_the_same_typed_keys():
    # the CLI parses each problem key by the type of its default
    assert [BENCHMARKS[name][1] for name in ("pendulum", "cartpole")] == [
        PENDULUM_DEFAULTS, CARTPOLE_DEFAULTS]
    assert list(PENDULUM_DEFAULTS) == list(CARTPOLE_DEFAULTS)
    for key, value in PENDULUM_DEFAULTS.items():
        assert type(value) is type(CARTPOLE_DEFAULTS[key]), key
        if isinstance(value, tuple):
            assert {type(v) for v in value + CARTPOLE_DEFAULTS[key]} == {float}, key


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_make_benchmark_overrides_each_key_and_fills_the_rest(system):
    model_cls, defaults = BENCHMARKS[system]
    model, cost, x0, horizon = make_benchmark(system, horizon=40, r_scale=None)
    assert type(model) is model_cls and model.dt == defaults["timestep"]
    assert horizon == 40 and type(horizon) is int
    assert np.array_equal(x0, defaults["x0"]) and np.array_equal(cost.goal, defaults["goal"])
    q = np.diag(defaults["q_diag"])
    assert np.array_equal(cost.q, q)
    assert np.array_equal(cost.q_terminal, defaults["qt_scale"] * q)
    assert np.array_equal(cost.control_weight, defaults["r_scale"] * np.eye(1))
    n = model.state_dim
    model, cost, x0, horizon = make_benchmark(
        system, horizon=7, timestep=0.01, q_diag=np.arange(1.0, n + 1), r_scale=2.0,
        qt_scale=3.0, x0=np.full(n, 0.5), goal=np.ones(n))
    assert (horizon, model.dt) == (7, 0.01)
    assert np.array_equal(cost.q, np.diag(np.arange(1.0, n + 1)))
    assert np.array_equal(cost.q_terminal, 3.0 * cost.q)
    assert np.array_equal(cost.control_weight, 2.0 * np.eye(1))
    assert np.array_equal(x0, np.full(n, 0.5)) and np.array_equal(cost.goal, np.ones(n))


@pytest.mark.parametrize("horizon", [5.5, 5.0, True, np.bool_(True), "5"],
                         ids=["fraction", "whole-float", "bool", "numpy-bool", "string"])
def test_make_benchmark_rejects_a_horizon_that_is_not_an_integer(horizon):
    # int() would truncate 5.5 to 5 and turn True into 1
    with pytest.raises(ValueError, match="horizon must be an integer"):
        make_benchmark("pendulum", horizon=horizon)


@pytest.mark.parametrize("horizon", [7, np.int64(7), np.int32(7), np.uint8(7)],
                         ids=["int", "int64", "int32", "uint8"])
def test_make_benchmark_takes_python_and_numpy_integer_horizons(horizon):
    *_, built = make_benchmark("cartpole", horizon=horizon)
    assert built == 7 and type(built) is int


# 4e-6 off symmetric: np.allclose's default rtol of 1e-5 would pass it, and the
# gradient R u would then miss that of 0.5 u'Ru by 4e-6 at u = (1, -2)
_SKEW = np.array([[1.0, 0.5], [0.5 + 4e-6, 1.0]])


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: PendulumModel(dt=0.0), ValueError, "timestep must be positive"),
    (lambda: CartPoleModel(dt=-0.02), ValueError, "timestep must be positive"),
    (lambda: PendulumModel(dt=float("nan")), ValueError, "timestep must be finite, got nan"),
    (lambda: CartPoleModel(dt=float("inf")), ValueError, "timestep must be finite, got inf"),
    (lambda: LinearModel(np.zeros((2, 3)), np.zeros((2, 1))), DimensionError,
     "A must be square"),
    (lambda: LinearModel(np.eye(2), np.zeros((3, 1))), DimensionError, r"B must be \(n, m\)"),
    (lambda: LinearModel(np.eye(2), np.zeros(2)), DimensionError, r"B must be \(n, m\)"),
    (lambda: QuadraticCost(np.eye(3), np.eye(1), np.eye(2), np.zeros(2)), DimensionError,
     r"Q and Q_terminal must be \(n, n\)"),
    (lambda: QuadraticCost(np.eye(2), np.eye(2), np.eye(3), np.zeros(2)), DimensionError,
     r"Q and Q_terminal must be \(n, n\)"),
    (lambda: QuadraticCost(np.eye(2), np.ones((1, 2)), np.eye(2), np.zeros(2)),
     DimensionError, "R must be square"),
    (lambda: QuadraticCost(np.eye(2), _SKEW, np.eye(2), np.zeros(2)), ValueError,
     "^R must be symmetric$"),
    (lambda: QuadraticCost(_SKEW, np.eye(1), np.eye(2), np.zeros(2)), ValueError,
     "^Q must be symmetric$"),
    (lambda: QuadraticCost(np.eye(2), np.eye(1), _SKEW, np.zeros(2)), ValueError,
     "^Q_terminal must be symmetric$"),
    (lambda: make_benchmark("pendulum", horizon=0), ValueError,
     "horizon must be at least 1"),
    (lambda: make_benchmark("cartpole", timestep=0.0), ValueError,
     "timestep must be positive"),
    (lambda: make_benchmark("pendulum", timestep=float("nan")), ValueError,
     "timestep must be finite"),
    (lambda: make_benchmark("cartpole", timestep=float("inf")), ValueError,
     "timestep must be finite"),
    (lambda: make_benchmark("spring"), ValueError, "unknown system 'spring'"),
    (lambda: make_benchmark("pendulum", dt=0.1), TypeError,
     "unexpected keyword argument 'dt'"),
    # non-finite weights and goals, each refused before any arithmetic: inf
    # times the zeros of a diagonal weight would warn first
    (lambda: QuadraticCost(np.diag([np.inf, 1.0]), np.eye(1), np.eye(2), np.zeros(2)),
     ValueError, "Q, R, Q_terminal and goal must be finite"),
    (lambda: QuadraticCost(np.eye(2), [[np.nan]], np.eye(2), np.zeros(2)),
     ValueError, "Q, R, Q_terminal and goal must be finite"),
    (lambda: QuadraticCost(np.eye(2), np.eye(1), np.diag([1.0, np.inf]), np.zeros(2)),
     ValueError, "Q, R, Q_terminal and goal must be finite"),
    (lambda: QuadraticCost(np.eye(2), np.eye(1), np.eye(2), [np.nan, 0.0]),
     ValueError, "Q, R, Q_terminal and goal must be finite"),
    (lambda: make_benchmark("pendulum", r_scale=np.inf), ValueError,
     "q_diag, r_scale, qt_scale, x0 and goal must be finite"),
    (lambda: make_benchmark("pendulum", q_diag=(np.inf, 1.0)), ValueError,
     "q_diag, r_scale, qt_scale, x0 and goal must be finite"),
    (lambda: make_benchmark("cartpole", qt_scale=np.inf), ValueError,
     "q_diag, r_scale, qt_scale, x0 and goal must be finite"),
    (lambda: make_benchmark("cartpole", x0=(0.0, np.nan, 0.0, 0.0)), ValueError,
     "q_diag, r_scale, qt_scale, x0 and goal must be finite"),
    (lambda: make_benchmark("pendulum", goal=(np.nan, 0.0)), ValueError,
     "q_diag, r_scale, qt_scale, x0 and goal must be finite"),
    # every physical parameter and matrix, not only the timestep: a model
    # built from a non-finite one would step to inf or NaN
    (lambda: PendulumModel(damping=float("nan")), ValueError,
     "damping must be finite, got nan"),
    (lambda: PendulumModel(mass=-np.inf), ValueError, "mass must be finite, got -inf"),
    (lambda: CartPoleModel(pole_com=np.inf), ValueError, "pole_com must be finite, got inf"),
    (lambda: CartPoleModel(gravity=float("nan")), ValueError, "gravity must be finite, got nan"),
    (lambda: LinearModel([[np.inf]], [[1.0]]), ValueError, "A must be finite"),
    (lambda: LinearModel(np.eye(2), [[0.0], [np.nan]]), ValueError, "B must be finite"),
    # every mass and length divides the dynamics; damping and gravity may be zero
    (lambda: PendulumModel(length=0.0), ValueError, "^length must be positive$"),
    (lambda: PendulumModel(mass=0.0), ValueError, "^mass must be positive$"),
    (lambda: PendulumModel(length=-1.0), ValueError, "^length must be positive$"),
    (lambda: CartPoleModel(cart_mass=0.0), ValueError, "^cart_mass must be positive$"),
    (lambda: CartPoleModel(pole_mass=-1.0), ValueError, "^pole_mass must be positive$"),
    (lambda: CartPoleModel(pole_com=0.0), ValueError, "^pole_com must be positive$"),
    # gravity must pull theta = 0 down, and damping must take energy out
    (lambda: PendulumModel(damping=-1.0), ValueError, "^damping must be nonnegative$"),
    (lambda: PendulumModel(gravity=-9.81), ValueError, "^gravity must be nonnegative$"),
    (lambda: CartPoleModel(gravity=-1.0), ValueError, "^gravity must be nonnegative$"),
    # empty dimensions: eigvalsh(...)[0] of an empty R or Q would raise a bare
    # IndexError, and an empty A or B would fail later inside `solve`
    (lambda: QuadraticCost(np.eye(2), np.zeros((0, 0)), np.eye(2), np.zeros(2)),
     DimensionError, "^state and control dimensions must be at least 1$"),
    (lambda: QuadraticCost(np.zeros((0, 0)), np.eye(1), np.zeros((0, 0)), np.zeros(0)),
     DimensionError, "^state and control dimensions must be at least 1$"),
    (lambda: LinearModel(np.zeros((0, 0)), np.zeros((0, 1))), DimensionError,
     "^state and control dimensions must be at least 1$"),
    (lambda: LinearModel(np.eye(2), np.zeros((2, 0))), DimensionError,
     "^state and control dimensions must be at least 1$"),
], ids=["pendulum-dt", "cartpole-dt", "pendulum-dt-nan", "cartpole-dt-inf", "a-not-square",
        "b-rows", "b-1d", "q-shape", "qt-shape", "r-not-square", "r-skew", "q-skew",
        "qt-skew", "horizon-0", "benchmark-dt", "benchmark-dt-nan", "benchmark-dt-inf",
        "unknown-system", "unknown-key", "q-inf", "r-nan", "qt-inf",
        "goal-nan", "benchmark-r-inf", "benchmark-q-inf", "benchmark-qt-inf",
        "benchmark-x0-nan", "benchmark-goal-nan", "pendulum-damping-nan",
        "pendulum-mass-inf", "cartpole-com-inf", "cartpole-gravity-nan", "linear-a-inf",
        "linear-b-nan", "pendulum-length-0", "pendulum-mass-0", "pendulum-length-negative",
        "cartpole-cart-mass-0", "cartpole-pole-mass-negative", "cartpole-com-0",
        "pendulum-damping-negative", "pendulum-gravity-negative", "cartpole-gravity-negative",
        "r-empty", "goal-empty", "a-empty", "b-no-columns"])
def test_models_reject_bad_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()
