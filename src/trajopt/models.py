"""Control-affine benchmark systems and quadratic costs with analytic derivatives.

The discrete dynamics are an explicit Euler step x' = x + dt r(x, u) of the
continuous rates r, made once in `SystemModel`: a model supplies its step on
Python floats (`_step`) and the analytic partials of r at a batch of points
(`_rate_partials`), and the base class assembles the Euler map's Jacobians
and second-derivative tensors from them. Euler is used deliberately: it
keeps the map exactly affine in the control whenever the rates are, which is
the structural assumption every solver in this package relies on (all
second derivatives with respect to the control vanish). Higher-order
integrators would re-introduce control nonlinearity through the stage
compositions. `kkt.check_derivatives` certifies the tensors against central
differences.
"""
from __future__ import annotations

import math
from numbers import Real
import numpy as np

from .errors import DimensionError

__all__ = [
    "SystemModel",
    "PendulumModel",
    "CartPoleModel",
    "LinearModel",
    "QuadraticCost",
    "make_benchmark",
    "random_linear",
    "BENCHMARKS",
    "PENDULUM_DEFAULTS",
    "CARTPOLE_DEFAULTS",
]


class SystemModel:
    """Base class for discrete-time dynamics x' = f(x, u), affine in u.

    A subclass supplies `_step`, which maps one state and one control, lists
    of floats, to the next state's list of floats, x + dt r(x, u), and
    `_rate_partials(x, u)`, the partials (r_x, r_u, r_xx, r_xu) of its rates
    at a batch of points, kinematic 1s such as d p_dot / d v included,
    broadcast over leading axes. `step` is the checked wrapper of `_step` on
    arrays, and a rollout checks once and steps through `_step`;
    `derivatives` assembles the Euler map's tensors from the partials. A map
    that is no Euler step (`LinearModel`) overrides `_derivatives` instead.
    """

    state_dim: int = 0
    control_dim: int = 0
    # the parameters that must be positive, and those that may also be zero
    _positive = ("timestep", "mass", "length", "cart_mass", "pole_mass", "pole_com")
    _nonnegative = ("gravity", "damping")

    # sampling box used by the finite-difference verifier and seeded sweeps
    state_low: np.ndarray
    state_high: np.ndarray
    control_low: np.ndarray
    control_high: np.ndarray

    def _validate(self, x, u):
        """x of shape (..., n) and u of shape (..., m), one leading shape, finite."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if (x.shape[-1:] != (self.state_dim,)
                or u.shape != x.shape[:-1] + (self.control_dim,)):
            raise DimensionError(
                f"state and control have shapes {x.shape} and {u.shape}, expected "
                f"(..., {self.state_dim}) and (..., {self.control_dim}) with one "
                "leading shape")
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise DimensionError("non-finite state or control input")
        return x, u

    def step(self, x, u) -> np.ndarray:
        """One checked step from one state (n,) under one control (m,), as an (n,) array."""
        x, u = self._validate(x, u)
        if x.ndim != 1:
            raise DimensionError(f"step takes one point, not a batch of {x.shape[:-1]}")
        nxt = self._step(x.tolist(), u.tolist())
        if not (isinstance(nxt, list) and len(nxt) == self.state_dim):
            raise DimensionError(f"_step must return a list of {self.state_dim} floats")
        return np.array(nxt)

    def derivatives(self, x, u):
        """Analytic derivatives of the discrete map at a batch of points.

        For x of shape (*B, n) and u of shape (*B, m), returns (fx, fu, fxx, fxu):
        fx (*B, n, n) and fu (*B, n, m) are the Jacobians wrt state and control;
        fxx (*B, n, n, n) holds d^2 f_i / dx dx in fxx[..., i, :, :] (symmetric
        in the last two axes) and fxu (*B, n, n, m) holds d^2 f_i / dx du. The
        control-control block is identically zero for control-affine maps and
        is therefore not returned.
        """
        x, u = self._validate(x, u)
        return self._derivatives(x, u)

    @classmethod
    def _parameters(cls, **values):
        """The named parameters as float arrays, finite, and positive or nonnegative if listed."""
        arrays = {name: np.asarray(value, dtype=float) for name, value in values.items()}
        for name, value in arrays.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
            if name in cls._positive and not value > 0:
                raise ValueError(f"{name} must be positive")
            if name in cls._nonnegative and not value >= 0:
                raise ValueError(f"{name} must be nonnegative")
        return arrays.values()

    def _derivatives(self, x, u):
        """The Euler map's (fx, fu, fxx, fxu): I + dt r_x and dt times the rest."""
        r_x, r_u, r_xx, r_xu = self._rate_partials(x, u)
        dt = self.dt
        return np.eye(self.state_dim) + dt * r_x, dt * r_u, dt * r_xx, dt * r_xu


class PendulumModel(SystemModel):
    """Torque-driven pendulum, state [theta, theta_dot].

    theta = 0 hangs down, theta = pi is upright. The continuous dynamics are

        theta_ddot = -(g/l) sin(theta) - b/(m l^2) theta_dot + u/(m l^2)

    discretized with an explicit Euler step of length dt.
    """

    state_dim = 2
    control_dim = 1

    def __init__(self, mass=1.0, length=1.0, gravity=9.81, damping=0.1, dt=0.05):
        self.dt, self.mass, self.length, self.gravity, self.damping = map(
            float, self._parameters(timestep=dt, mass=mass, length=length,
                                    gravity=gravity, damping=damping))
        self.state_low = np.array([-2 * np.pi, -8.0])
        self.state_high = np.array([2 * np.pi, 8.0])
        self.control_low = np.array([-5.0])
        self.control_high = np.array([5.0])

    def _step(self, x, u):
        th, w = x
        ml2 = self.mass * self.length ** 2
        acc = (-(self.gravity / self.length) * math.sin(th)
               - self.damping / ml2 * w + u[0] / ml2)
        return [th + self.dt * w, w + self.dt * acc]

    def _rate_partials(self, x, u):
        th = x[..., 0]
        ml2 = self.mass * self.length ** 2
        gl = self.gravity / self.length

        r_x = np.zeros(th.shape + (2, 2))
        r_x[..., 0, 1] = 1.0
        r_x[..., 1, 0] = -gl * np.cos(th)
        r_x[..., 1, 1] = -self.damping / ml2
        r_u = np.zeros(th.shape + (2, 1))
        r_u[..., 1, 0] = 1.0 / ml2
        r_xx = np.zeros(th.shape + (2, 2, 2))
        r_xx[..., 1, 0, 0] = gl * np.sin(th)
        return r_x, r_u, r_xx, np.zeros(th.shape + (2, 2, 1))


class CartPoleModel(SystemModel):
    """Cart-pole, state [p, p_dot, theta, theta_dot], force on the cart.

    The pole is a point mass at distance `pole_com` from the pivot; theta = 0
    hangs down and theta = pi balances upright. With s = sin(theta),
    c = cos(theta) and D = M + m s^2:

        p_ddot     = (F + m s (L w^2 + g c)) / D
        theta_ddot = (-F c - m L w^2 s c - (M + m) g s) / (L D)

    These are control-affine (F enters linearly, D is control-free), so the
    Euler map keeps all control-control second derivatives at zero.
    """

    state_dim = 4
    control_dim = 1

    def __init__(self, cart_mass=1.0, pole_mass=0.1, pole_com=0.5,
                 gravity=9.81, dt=0.02):
        self.dt, self.cart_mass, self.pole_mass, self.pole_com, self.gravity = map(
            float, self._parameters(timestep=dt, cart_mass=cart_mass, pole_mass=pole_mass,
                                    pole_com=pole_com, gravity=gravity))
        self.state_low = np.array([-2.0, -3.0, -2 * np.pi, -6.0])
        self.state_high = np.array([2.0, 3.0, 2 * np.pi, 6.0])
        self.control_low = np.array([-10.0])
        self.control_high = np.array([10.0])

    def _accel(self, th, w, force):
        M, m = self.cart_mass, self.pole_mass
        L, g = self.pole_com, self.gravity
        s, c = math.sin(th), math.cos(th)  # round as numpy's float64 sin and cos
        den = M + m * s * s
        a_cart = (force + m * s * (L * w * w + g * c)) / den
        a_pole = (-force * c - m * L * w * w * s * c - (M + m) * g * s) / (L * den)
        return a_cart, a_pole

    def _step(self, x, u):
        p, v, th, w = x
        a_cart, a_pole = self._accel(th, w, u[0])
        dt = self.dt
        return [p + dt * v, v + dt * a_cart, th + dt * w, w + dt * a_pole]

    def _rate_partials(self, x, u):
        M, m = self.cart_mass, self.pole_mass
        L, g = self.pole_com, self.gravity
        th, w = x[..., 2], x[..., 3]
        force = u[..., 0]

        s, c = np.sin(th), np.cos(th)
        s2 = 2.0 * s * c          # sin(2 theta)
        c2 = c * c - s * s        # cos(2 theta)
        den = M + m * s * s
        dden = m * s2             # d den / d theta
        ddden = 2.0 * m * c2      # d^2 den / d theta^2

        # cart acceleration a1 = n1 / den
        n1 = force + m * L * w * w * s + m * g * s * c
        n1_t = m * L * w * w * c + m * g * c2
        n1_w = 2.0 * m * L * w * s
        n1_tt = -m * L * w * w * s - 2.0 * m * g * s2
        n1_tw = 2.0 * m * L * w * c
        n1_ww = 2.0 * m * L * s
        a1 = n1 / den
        a1_t = (n1_t - a1 * dden) / den
        a1_w = n1_w / den
        a1_f = 1.0 / den
        a1_tt = (n1_tt - 2.0 * a1_t * dden - a1 * ddden) / den
        a1_tw = (n1_tw - a1_w * dden) / den
        a1_ww = n1_ww / den
        a1_tf = -dden / (den * den)

        # pole acceleration a2 = n2 / (L den)
        n2 = -force * c - m * L * w * w * s * c - (M + m) * g * s
        n2_t = force * s - m * L * w * w * c2 - (M + m) * g * c
        n2_w = -m * L * w * s2
        n2_tt = force * c + 2.0 * m * L * w * w * s2 + (M + m) * g * s
        n2_tw = -2.0 * m * L * w * c2
        n2_ww = -m * L * s2
        a2 = n2 / (L * den)
        a2_t = (n2_t / L - a2 * dden) / den
        a2_w = n2_w / (L * den)
        a2_f = -c / (L * den)
        a2_tt = (n2_tt / L - 2.0 * a2_t * dden - a2 * ddden) / den
        a2_tw = (n2_tw / L - a2_w * dden) / den
        a2_ww = n2_ww / (L * den)
        a2_tf = (s + c * dden / den) / (L * den)

        r_x = np.zeros(th.shape + (4, 4))
        r_x[..., 0, 1] = r_x[..., 2, 3] = 1.0
        r_x[..., 1, 2], r_x[..., 1, 3], r_x[..., 3, 2], r_x[..., 3, 3] = a1_t, a1_w, a2_t, a2_w
        r_u = np.zeros(th.shape + (4, 1))
        r_u[..., 1, 0], r_u[..., 3, 0] = a1_f, a2_f
        r_xx = np.zeros(th.shape + (4, 4, 4))
        r_xx[..., 1, 2, 2], r_xx[..., 1, 3, 3] = a1_tt, a1_ww
        r_xx[..., 1, 2, 3] = r_xx[..., 1, 3, 2] = a1_tw
        r_xx[..., 3, 2, 2], r_xx[..., 3, 3, 3] = a2_tt, a2_ww
        r_xx[..., 3, 2, 3] = r_xx[..., 3, 3, 2] = a2_tw
        r_xu = np.zeros(th.shape + (4, 4, 1))
        r_xu[..., 1, 2, 0], r_xu[..., 3, 2, 0] = a1_tf, a2_tf
        return r_x, r_u, r_xx, r_xu


class LinearModel(SystemModel):
    """Exactly linear dynamics x' = A x + B u, used for golden-case tests."""

    def __init__(self, a, b):
        a, b = self._parameters(A=a, B=b)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError("A must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise DimensionError("B must be (n, m)")
        if b.size == 0:  # n = 0 or m = 0
            raise DimensionError("state and control dimensions must be at least 1")
        self.a = a
        self.b = b
        self._rows = np.hstack([a, b]).tolist()  # the rows of [A | B], for _step
        self.state_dim = a.shape[0]
        self.control_dim = b.shape[1]
        self.state_low = -np.ones(self.state_dim)
        self.state_high = np.ones(self.state_dim)
        self.control_low = -np.ones(self.control_dim)
        self.control_high = np.ones(self.control_dim)

    def _step(self, x, u):
        # row i of [A | B] times (x, u), summed left to right as `_feedback` sums
        xu, out = x + u, []
        for row in self._rows:
            acc = 0.0
            for c, v in zip(row, xu):
                acc += c * v
            out.append(acc)
        return out

    def _derivatives(self, x, u):
        batch, n, m = x.shape[:-1], self.state_dim, self.control_dim
        return (np.broadcast_to(self.a, batch + (n, n)).copy(),
                np.broadcast_to(self.b, batch + (n, m)).copy(),
                np.zeros(batch + (n, n, n)), np.zeros(batch + (n, n, m)))


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------

class QuadraticCost:
    """0.5 (x-goal)'Q(x-goal) + 0.5 u'Ru per stage, Qt-weighted terminal.

    Purely quadratic with no state-control coupling, so the total cost of any
    trajectory is bounded below by zero: the physically attainable minimum.
    The weights and the goal must be finite, the control weight R symmetric
    positive definite so control updates are always well posed, and the state
    Hessians Q and Q_terminal positive semidefinite; the constructor rejects
    anything else.
    """

    def __init__(self, q, r, q_terminal, goal):
        q = np.asarray(q, dtype=float)
        r = np.asarray(r, dtype=float)
        qt = np.asarray(q_terminal, dtype=float)
        goal = np.asarray(goal, dtype=float).reshape(-1)
        n = goal.shape[0]
        if q.shape != (n, n) or qt.shape != (n, n):
            raise DimensionError("Q and Q_terminal must be (n, n)")
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionError("R must be square")
        if n == 0 or r.size == 0:  # an empty spectrum has no smallest eigenvalue
            raise DimensionError("state and control dimensions must be at least 1")
        if not all(np.isfinite(a).all() for a in (q, r, qt, goal)):
            raise ValueError("Q, R, Q_terminal and goal must be finite")
        for name, mat in (("Q", q), ("R", r), ("Q_terminal", qt)):
            if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(r)[0] <= 0:
            raise ValueError("R must be positive definite")
        if np.linalg.eigvalsh(q)[0] < -1e-12 or np.linalg.eigvalsh(qt)[0] < -1e-12:
            raise ValueError("Q and Q_terminal must be positive semidefinite")
        self.q = q
        self.control_weight = r
        self.q_terminal = qt
        self.goal = goal

    def _deviation(self, x, u):
        """(x - goal, u) as float arrays, once their trailing dimensions are
        checked, so a column vector cannot broadcast into a batch."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[-1:] != self.goal.shape or u.shape[-1:] != self.control_weight.shape[:1]:
            raise DimensionError(f"cost takes x (*B, {self.goal.shape[0]}) and u "
                                 f"(*B, {self.control_weight.shape[0]}), "
                                 f"not {x.shape} and {u.shape}")
        return x - self.goal, u

    def stage_cost(self, x, u):
        """0.5 e'Qe + 0.5 u'Ru at x (*B, n), u (*B, m): a float at one point,
        a (*B) array at a batch, each entry rounding as at one point."""
        e, u = self._deviation(x, u)
        cost = (0.5 * ((e[..., None, :] @ self.q) @ e[..., None])[..., 0, 0]
                + 0.5 * ((u[..., None, :] @ self.control_weight) @ u[..., None])[..., 0, 0])
        return float(cost) if cost.ndim == 0 else cost

    def _terminal_deviation(self, x):
        """x - goal for one terminal state x of shape (n,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.goal.shape:
            raise DimensionError(f"terminal cost takes one state x ({self.goal.shape[0]},), "
                                 f"not {x.shape}")
        return x - self.goal

    def terminal_cost(self, x) -> float:
        e = self._terminal_deviation(x)
        return 0.5 * float(e @ self.q_terminal @ e)

    def stage_derivatives(self, x, u):
        """Return (l_x, l_xx, R u, R) at a batch of points x (*B, n), u (*B, m):
        l_x is (*B, n), l_xx (*B, n, n), R u (*B, m) and R (m, m)."""
        e, u = self._deviation(x, u)
        # a stack of matrix-vector products rounds as each point's Q e does
        return ((self.q @ e[..., None])[..., 0],
                np.broadcast_to(self.q, e.shape[:-1] + self.q.shape).copy(),
                (self.control_weight @ u[..., None])[..., 0], self.control_weight)

    def terminal_derivatives(self, x):
        """Return (C_x, C_xx) at the terminal state x."""
        return self.q_terminal @ self._terminal_deviation(x), self.q_terminal.copy()


# ---------------------------------------------------------------------------
# Benchmark defaults
# ---------------------------------------------------------------------------

PENDULUM_DEFAULTS = {
    "horizon": 100,
    "timestep": 0.05,
    "q_diag": (1.0, 0.1),
    "r_scale": 0.1,
    "qt_scale": 100.0,
    "x0": (0.0, 0.0),
    "goal": (np.pi, 0.0),
}

CARTPOLE_DEFAULTS = {
    "horizon": 200,
    "timestep": 0.02,
    "q_diag": (2.0, 0.5, 10.0, 0.5),
    "r_scale": 0.1,
    "qt_scale": 100.0,
    "x0": (0.0, 0.0, 0.0, 0.0),
    "goal": (0.0, 0.0, np.pi, 0.0),
}


BENCHMARKS = {"pendulum": (PendulumModel, PENDULUM_DEFAULTS),
              "cartpole": (CartPoleModel, CARTPOLE_DEFAULTS)}


def is_a(value, kind=Real):
    """isinstance(value, kind), a real number by default; a bool is no int and no number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def checked_count(name, value):
    """value as an int of at least 1; else ValueError, not int()'s 5 from 5.5 or 1 from True."""
    if not is_a(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(value)


def make_benchmark(system, **overrides):
    """Build (model, cost, x0, horizon) for a benchmark named in BENCHMARKS.

    The keywords are the keys of its defaults table; a key left out or given
    as None takes its default.
    """
    if system not in BENCHMARKS:
        raise ValueError(f"unknown system '{system}'")
    model_cls, defaults = BENCHMARKS[system]
    for key in overrides:
        if key not in defaults:
            raise TypeError(f"make_benchmark() got an unexpected keyword argument '{key}'")
    p = {key: value if overrides.get(key) is None else overrides[key]
         for key, value in defaults.items()}

    horizon = checked_count("horizon", p["horizon"])
    q_diag, x0, goal = (np.asarray(p[key], float) for key in ("q_diag", "x0", "goal"))
    r_scale, qt_scale = float(p["r_scale"]), float(p["qt_scale"])

    model = model_cls(dt=float(p["timestep"]))
    if q_diag.shape != (model.state_dim,):
        raise DimensionError("q_diag length must match the state dimension")
    if x0.shape != (model.state_dim,) or goal.shape != (model.state_dim,):
        raise DimensionError("x0 and goal length must match the state dimension")
    if not all(np.isfinite(v).all() for v in (q_diag, r_scale, qt_scale, x0, goal)):
        raise ValueError("q_diag, r_scale, qt_scale, x0 and goal must be finite")

    q = np.diag(q_diag)
    r = r_scale * np.eye(model.control_dim)
    cost = QuadraticCost(q, r, qt_scale * q, goal)
    return model, cost, x0, horizon


def random_linear(rng):
    """(model, cost, x0) of a seeded linear-quadratic instance with n = 4 and
    m = 2, so the sweeps take their multi-input branch: near-identity A of
    spectral norm at most 1, so states stay bounded over any horizon, PD R
    and PSD Q."""
    n, m = 4, 2
    a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    a /= max(1.0, np.linalg.norm(a, 2))
    b = 0.5 * rng.standard_normal((n, m))
    q = np.diag(rng.uniform(0.5, 2.0, size=n))
    half = rng.standard_normal((m, m))
    cost = QuadraticCost(q, 0.1 * (np.eye(m) + half @ half.T), 10.0 * q, np.zeros(n))
    return LinearModel(a, b), cost, rng.uniform(-1.0, 1.0, size=n)
