"""The benchmark's workloads and the runner that times and checks their ops.

Each workload is built from one input slot (see outcomes.SLOTS), for which a
reference outcome of every op is stored. A workload runs as a closed loop in
one thread: `run_round(runner, inputs)` issues every op of one round in
order, each after the previous one returned, and passes the library only the
generated inputs. Every round of a run repeats the same ops, so each round's
outcomes are checked against the same reference and each op is timed once per
round. `inputs()` gives each round fresh copies of its input arrays, made
before the round is timed, so no input object is passed twice; by content the
inputs do repeat from round to round.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from time import perf_counter

import numpy as np
from trajopt import backward, expansion, kkt, solver, trajectory
from trajopt.models import LinearModel, QuadraticCost, make_benchmark

from outcomes import CERTIFY_TOL, mismatches, summarize


class Runner:
    """Times each op, checks its outcome and counts the solver's work.

    With `reference=None` the runner records outcomes instead of checking
    them. With a tracer, each op runs inside the tracer's root span; with a
    speed probe, the probe's samples taken inside an op are not its time.
    """

    def __init__(self, reference=None, tracer=None, probe=None):
        self.reference = reference
        self.tracer = tracer
        self.probe = probe
        self.recorded = {}
        # (start, end, seconds, work) of each completed op: its wall time (at
        # the probe's reference speed, when there is a probe) and its outer
        # iterations (1 for a certified sweep, the certify workload's unit)
        self.ops = []
        self.counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._last_op_ok = True

    def op(self, key, fn, *args):
        """Run one op; return its result, or None when it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.tracer.call(fn, *args) if self.tracer else fn(*args)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            self._last_op_ok = False
            self._fail(key, f"raised {type(exc).__name__}: {exc}")
            return None
        end = perf_counter()
        seconds = self.probe.scaled(start, end) if self.probe else end - start
        work = 1 if isinstance(result, kkt.VerificationReport) else result.iterations
        self.ops.append((start, end, seconds, work))
        self._count(result)
        self._last_op_ok = True
        self.check(key, summarize(result))
        return result

    def check(self, key, outcome):
        """Check an outcome; a mismatch fails the op that produced it."""
        if self.reference is None:
            self.recorded[key] = outcome
            return
        found = mismatches(outcome, self.reference.get(key))
        if found and self._last_op_ok:
            self._last_op_ok = False
            self._fail(key, "; ".join(found))

    def _fail(self, key, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{key}: {message}")

    def _count(self, result):
        if isinstance(result, kkt.VerificationReport):
            return
        self.counts["iterations"] += result.iterations
        for record in result.records:
            self.counts["accepted"] += record.status == "OK" and record.alpha > 0
            self.counts["non_descent"] += record.status == "NON_DESCENT"
            self.counts["floor_hit"] += record.status == "FLOOR_HIT"
        for _, rows in result.trial_logs:
            self.counts["trials"] += len(rows)
            self.counts["diverged"] += sum(math.isinf(cost) for _, cost, _ in rows)


class Swingup:
    """Long first-order solves far from a solution.

    One round: cart-pole iLQR from zero controls (T=200), then pendulum iLQR
    from seeded random controls in [-1, 1] (T=100). The per-iteration kernels
    (expansion, iLQR sweep, line search) dominate, and the independent
    pendulum inputs are what a batched solve could share. No Newton or DDP
    sweep and no oracle runs here.
    """

    PENDULUM_SOLVES = 4

    def __init__(self, slot):
        rng = np.random.default_rng(slot)
        self.config = solver.SolverConfig(method="ilqr")
        cartpole = make_benchmark("cartpole")
        pendulum = make_benchmark("pendulum")
        self.problems = [("cartpole/zero", cartpole[:3], np.zeros((cartpole[3], 1)))]
        for i in range(self.PENDULUM_SOLVES):
            controls = rng.uniform(-1.0, 1.0, size=(pendulum[3], 1))
            self.problems.append((f"pendulum/random{i}", pendulum[:3], controls))
        self.models = [cartpole[0], pendulum[0]]

    def warmup(self):
        _, (model, cost, x0), controls = self.problems[1]
        solver.solve(model, cost, x0, controls, self.config)

    def inputs(self):
        return [(key, (model, cost, x0.copy()), controls.copy())
                for key, (model, cost, x0), controls in self.problems]

    def run_round(self, runner, inputs):
        for key, (model, cost, x0), controls in inputs:
            runner.op(key, solver.solve, model, cost, x0, controls, self.config)


class Mpc:
    """Receding-horizon control: many short solves near a solution.

    Each episode starts from a seeded perturbation of the benchmark's initial
    state, solves at T=50 with max_iters=20, applies the first control with
    `model.step`, and warm-starts the next solve from the solution shifted by
    one step. Per-solve fixed costs (the first rollout, the extra iLQR sweep
    of `initial_multiplier_estimate`) and the Hessian-contracted Newton and
    DDP sweeps carry real weight. The loop is sequential by construction.
    """

    HORIZON = 50
    MAX_ITERS = 20
    X0_SPREAD = 0.1
    EPISODES = (("pendulum", ("ilqr", "newton", "ddp", "hybrid"), 60),
                ("cartpole", ("ilqr", "ddp"), 40))

    def __init__(self, slot):
        rng = np.random.default_rng(slot)
        self.episodes = []
        for system, methods, steps in self.EPISODES:
            model, cost, x0, _ = make_benchmark(system, horizon=self.HORIZON)
            for method in methods:
                start = x0 + rng.uniform(-self.X0_SPREAD, self.X0_SPREAD, size=model.state_dim)
                config = solver.SolverConfig(method=method, max_iters=self.MAX_ITERS)
                self.episodes.append((f"{system}/{method}", model, cost, start, steps, config))
        self.models = [episode[1] for episode in self.episodes]

    def warmup(self):
        _, model, cost, x0, _, config = self.episodes[0]
        solver.solve(model, cost, x0, np.zeros((self.HORIZON, model.control_dim)), config)

    def inputs(self):
        return [(key, model, cost, start.copy(), steps, config)
                for key, model, cost, start, steps, config in self.episodes]

    def run_round(self, runner, inputs):
        for key, model, cost, x, steps, config in inputs:
            controls = np.zeros((self.HORIZON, model.control_dim))
            closed_loop_cost = 0.0
            for step in range(steps):
                result = runner.op(f"{key}/{step}", solver.solve, model, cost, x, controls, config)
                if result is None:
                    break
                plan = result.trajectory.controls
                closed_loop_cost += cost.stage_cost(x, plan[0])
                x = model.step(x, plan[0])
                controls = np.concatenate([plan[1:], plan[-1:]])
            else:
                runner.check(f"{key}/closed_loop",
                             {"state": x.tolist(), "cost": closed_loop_cost})


class Certify:
    """Oracle certification at the oracle's horizon cap, T=50.

    For each seeded random nominal of three instances (pendulum, cart-pole,
    and a seeded random linear system with n=4 and m=2, which takes the
    multi-input branch of the sweep's Quu solve), the iLQR, Newton (from
    `initial_multiplier_estimate` costates) and DDP sweeps are certified
    against the dense KKT solve. Nominals, expansions and sweeps are built in
    set-up, so each op is one `verify_equivalence` and loads the `kkt` layer.
    """

    HORIZON = 50
    NOMINALS = 25
    METHODS = ("ilqr", "newton", "ddp")

    def __init__(self, slot):
        rng = np.random.default_rng(slot)
        instances = [(system, *make_benchmark(system, horizon=self.HORIZON)[:3])
                     for system in ("pendulum", "cartpole")]
        instances.append(("linear", *random_linear(rng)))
        self.cases = []
        for name, model, cost, x0 in instances:
            for i in range(self.NOMINALS):
                controls = rng.uniform(-1.0, 1.0, size=(self.HORIZON, model.control_dim))
                nominal = trajectory.rollout(model, cost, x0, controls)
                exp = expansion.expand_along(model, cost, nominal)
                for method in self.METHODS:
                    self.cases.append((f"{name}/{i}/{method}", *sweep(exp, method)))
        self.models = []

    def warmup(self):
        _, sol, exp, costates = self.cases[0]
        kkt.verify_equivalence(sol, exp, costates, CERTIFY_TOL)

    def inputs(self):
        return copy.deepcopy(self.cases)

    def run_round(self, runner, inputs):
        for key, sol, exp, costates in inputs:
            runner.op(key, kkt.verify_equivalence, sol, exp, costates, CERTIFY_TOL)


def random_linear(rng, n=4, m=2):
    """A seeded linear-quadratic instance: near-identity A, PD R, PSD Q."""
    a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    b = 0.5 * rng.standard_normal((n, m))
    q = np.diag(rng.uniform(0.5, 2.0, size=n))
    half = rng.standard_normal((m, m))
    r = 0.1 * (np.eye(m) + half @ half.T)
    cost = QuadraticCost(q, r, 10.0 * q, np.zeros(n))
    return LinearModel(a, b), cost, rng.uniform(-1.0, 1.0, size=n)


def sweep(exp, method):
    """(sweep, expansion, costates) for certifying `method` on `exp`."""
    if method == "newton":
        costates = solver.initial_multiplier_estimate(exp)
        return backward.backward_newton(exp, costates), exp, costates
    if method == "ilqr":
        return backward.backward_ilqr(exp), exp, None
    return backward.backward_ddp(exp), exp, None


WORKLOADS = {"swingup": Swingup, "mpc": Mpc, "certify": Certify}
