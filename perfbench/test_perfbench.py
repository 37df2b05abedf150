"""Tests of the benchmark's own code: the outcome check and the tracer."""

import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import trajopt  # noqa: E402

from outcomes import load_reference, mismatches, summarize  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS, Certify, Runner, Swingup  # noqa: E402


def trajopt_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "trajopt" or name.startswith("trajopt.")}


@pytest.fixture(scope="module")
def pendulum_solve():
    workload = Swingup(0)
    _, (model, cost, x0), controls = workload.problems[1]
    return trajopt.solve(model, cost, x0, controls, workload.config)


def test_outcome_check_accepts_its_own_reference(pendulum_solve):
    outcome = summarize(pendulum_solve)
    assert outcome["reason"] == "gradient"
    assert mismatches(outcome, dict(outcome)) == []
    nudged = dict(outcome, final_cost=outcome["final_cost"] * (1 + 1e-13))
    assert mismatches(nudged, outcome) == []
    assert mismatches(outcome, None) == ["no reference outcome"]


@pytest.mark.parametrize("field, tampered", [
    ("reason", "non_descent"),  # a gradient stop where non_descent was expected
    ("iterations", 35),
    ("final_cost", None),
])
def test_outcome_check_flags_a_tampered_reference(pendulum_solve, field, tampered):
    outcome = summarize(pendulum_solve)
    reference = dict(outcome)
    reference[field] = outcome["final_cost"] * (1 + 1e-6) if tampered is None else tampered
    assert mismatches(outcome, reference)


def test_runner_counts_a_tampered_reference_as_a_failed_op():
    workload = Certify(0)
    workload.cases = workload.cases[:6]
    reference = load_reference("certify", 0)
    runner = Runner(reference)
    workload.run_round(runner, workload.inputs())
    assert (runner.attempted, runner.failed) == (6, 0)

    tampered = copy.deepcopy(reference)
    tampered["pendulum/1/ddp"]["passed"] = False
    runner = Runner(tampered)
    workload.run_round(runner, workload.inputs())
    assert (runner.attempted, runner.failed) == (6, 1)
    assert runner.errors[0].startswith("pendulum/1/ddp")


def test_tracer_records_spans_and_restores_trajopt():
    before = trajopt_namespaces()
    workload = Swingup(0)
    model = workload.models[1]
    _, (_, cost, x0), controls = workload.problems[1]
    tracer = Tracer()
    tracer.install(workload.models)
    try:
        assert trajopt.solver.expand_along is not before["trajopt.solver"]["expand_along"]
        assert "step" in vars(model)
        config = trajopt.SolverConfig(max_iters=2)
        tracer.call(trajopt.solver.solve, model, cost, x0, controls, config)
    finally:
        tracer.restore()

    assert trajopt_namespaces() == before
    for m in workload.models:
        assert not set(METHODS.values()) & set(vars(m))
    assert not tracer.missing
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["expansion.expand_along.calls"] == (2, "count")
    assert metrics["backward.ilqr.calls"] == (2, "count")
    assert metrics["models.step.calls"][0] > 0
    spans = tracer.arrays()
    assert spans["parent"][0] == -1 and (spans["parent"][1:] >= 0).all()
    assert (spans["end"] >= spans["start"]).all()
    shares = [v for k, (v, _) in metrics.items() if k.endswith("self_share")]
    assert 0.9 < sum(shares) - metrics["kkt.solve_kkt.self_share"][0] <= 1.0 + 1e-9


def test_tracer_reports_a_vanished_name_as_missing(monkeypatch):
    monkeypatch.delattr(trajopt.linesearch, "directional_derivative")
    workload = Swingup(0)
    _, (model, cost, x0), controls = workload.problems[1]
    tracer = Tracer()
    tracer.install(workload.models)
    try:
        tracer.call(trajopt.trajectory.rollout, model, cost, x0, controls)
    finally:
        tracer.restore()
    assert tracer.missing == {"linesearch.directional_derivative"}
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["linesearch.directional_derivative.calls"] == (None, "count")
    assert metrics["backward.ilqr.calls"] == (0, "count")
    assert metrics["trajectory.rollout.ms"][0] > 0


def test_spans_outside_an_op_are_not_recorded():
    workload = Swingup(0)
    tracer = Tracer()
    tracer.install(workload.models)
    try:
        workload.models[1].step(np.zeros(2), np.zeros(1))
    finally:
        tracer.restore()
    assert len(tracer.start) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_round_gets_fresh_copies_of_its_inputs(name):
    workload = WORKLOADS[name](0)
    first, second = workload.inputs(), workload.inputs()
    arrays = [[a for a in flatten(inputs) if isinstance(a, np.ndarray)] for inputs in (first, second)]
    assert arrays[0] and len(arrays[0]) == len(arrays[1])
    for a, b in zip(*arrays):
        assert a is not b and np.array_equal(a, b)


def flatten(value):
    """Every object inside nested tuples, lists and dataclasses."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from flatten(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from flatten(getattr(value, field.name))
    else:
        yield value


def test_speed_probe_scales_each_piece_at_the_speed_around_it():
    probe = SpeedProbe()  # filled by hand: the kernel runs twice as slow after t=10 s
    for k in range(1, 400):
        probe.at.append(k * 0.05)
        probe.took.append(REFERENCE_S * (1 if k <= 200 else 2))
    # 20 samples fall in each of these intervals
    assert probe.scaled(2.01, 3.01) == pytest.approx(1.0 - 20 * REFERENCE_S)
    assert probe.scaled(12.01, 13.01) == pytest.approx((1.0 - 40 * REFERENCE_S) / 2)
    # a long interval follows the change of speed: 10 s at full speed, then 5 s
    # at half speed (one factor for the whole interval would give about 15 s)
    assert probe.scaled(0.01, 15.01) == pytest.approx(10 + 2.5, abs=0.1)
