"""Benchmark of the trajopt library: swingup, mpc and certify workloads.

    python3 perfbench/run.py --workload swingup --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out perfbench/out/base.json

One run builds the workload from its seed, sets it up SETUPS times (each time
generating the inputs and running one untimed warm-up op), then repeats whole
rounds of ops, each on fresh copies of its inputs, for about --seconds,
checking every op against the stored reference. With --trace 0 it reports the end-to-end metrics, with every time
scaled to a reference machine speed (see speed.py). With --trace 1 untraced
and traced rounds alternate, and it reports per-layer metrics from raw wall
times and the tracing overhead. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. `--workload all` runs
each workload in its own process, one after another, and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("swingup", "mpc", "certify")
SETUPS = 3  # set-ups per run; setup_s reports their median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the results, with machine details, here")
    return parser.parse_args(argv)


def pin_threads():
    """One thread for BLAS: the workloads are single-threaded closed loops.

    Must run before numpy is imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def import_library():
    """Put the checkout's own sources first on the path and import them."""
    if not (SRC / "trajopt" / "__init__.py").is_file():
        sys.exit(f"error: no trajopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trajopt
    if Path(trajopt.__file__).resolve().parent != SRC / "trajopt":
        sys.exit(f"error: imported trajopt from {trajopt.__file__}, not from {SRC}")


def measure(workload, runner, budget_s, probe=None):
    """Run whole rounds, each on fresh inputs, while the next one is expected
    to end within the budget (at least one); return each round's wall time,
    at the probe's reference speed when there is a probe."""
    rounds, began = [], perf_counter()
    while not rounds or (perf_counter() - began) * (1 + 1 / len(rounds)) <= budget_s:
        inputs = workload.inputs()
        start = perf_counter()
        workload.run_round(runner, inputs)
        end = perf_counter()
        rounds.append(probe.scaled(start, end) if probe else end - start)
    return rounds


def measure_traced(workload, plain, traced, tracer, budget_s):
    """Alternate untraced and traced rounds, installing the tracer for each
    traced one; return the traced rounds' wall times and the tracing
    overhead, the median over pairs of traced over untraced time, less 1."""
    untraced, rounds = [], []
    while not rounds or sum(untraced) + sum(rounds) + untraced[-1] + rounds[-1] <= budget_s:
        untraced += measure(workload, plain, 0.0)
        tracer.install(workload.models)
        try:
            rounds += measure(workload, traced, 0.0)
        finally:
            tracer.restore()
    return rounds, statistics.median(t / u for t, u in zip(rounds, untraced)) - 1.0


def end_to_end(runner, rounds, setup_s):
    """Every timing at the probe's reference speed (see speed.py)."""
    import numpy as np
    seconds = np.array([op[2] for op in runner.ops])
    work = sum(op[3] for op in runner.ops)
    op_ms_p50, op_ms_p90 = np.percentile(seconds * 1e3, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(seconds) / sum(rounds), "1/s"),
        "op_ms_p50": (float(op_ms_p50), "ms"),
        "op_ms_p90": (float(op_ms_p90), "ms"),
        "iter_ms": (seconds.sum() * 1e3 / work, "ms"),
        "iterations": (work / len(rounds), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def timed(probe, fn, *args):
    """Call fn; return its result and its wall time at the probe's reference
    speed."""
    start = perf_counter()
    result = fn(*args)
    return result, probe.scaled(start, perf_counter())


def per_layer(tracer, runner, rounds, overhead):
    counts, n = runner.counts, len(rounds)
    metrics = tracer.layer_metrics(n)
    metrics.update({
        "linesearch.trials_per_iter":
            (counts["trials"] / counts["iterations"] if counts["iterations"] else 0.0, "trials/iter"),
        "linesearch.accept_ratio":
            (counts["accepted"] / counts["trials"] if counts["trials"] else 0.0, "ratio"),
        "linesearch.diverged": (counts["diverged"] / n, "count"),
        "solver.non_descent": (counts["non_descent"] / n, "count"),
        "solver.floor_hit": (counts["floor_hit"] / n, "count"),
        "tracer.overhead": (overhead * 100.0, "%"),
    })
    return metrics


def run_one(args):
    started = perf_counter()
    pin_threads()
    from speed import SpeedProbe
    probe = SpeedProbe()
    with probe:
        workloads, slot, reference, workload, setup_s = set_up(args, probe, started)
        if not args.trace:
            runner = workloads.Runner(reference, probe=probe)
            rounds = measure(workload, runner, args.seconds, probe)
            metrics, runners = end_to_end(runner, rounds, setup_s), (runner,)
    if args.trace:  # raw wall times, with no probe sample inside a span
        from tracer import Tracer
        tracer = Tracer()
        runners = workloads.Runner(reference), workloads.Runner(reference, tracer)
        rounds, overhead = measure_traced(workload, *runners, tracer, args.seconds)
        metrics = per_layer(tracer, runners[1], rounds, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    failed = sum(r.failed for r in runners)
    for error in [e for r in runners for e in r.errors]:
        print(f"outcome mismatch: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runners),
        "failed": failed,
        "metrics": {name: metric_entry(value, unit) for name, (value, unit) in metrics.items()},
    }
    import machine
    details = machine.details(ROOT)
    print(f"machine: {json.dumps(details)}")
    if args.trace:
        kind = f"traced rounds, each after an untraced one, {sum(rounds):.2f} s wall"
    else:
        speed = statistics.median(probe.factor(start, end) for start, end, *_ in runners[0].ops)
        kind = (f"rounds, {sum(rounds):.2f} s at the reference speed, "
                f"times multiplied by {speed:.2f} to get there")
    print(f"{args.workload}: seed {args.seed} (input slot {slot}), {len(rounds)} {kind}, "
          f"{sum(len(r.ops) for r in runners)} ops")
    print_metrics(args.workload, result)
    if args.out:
        write_results(args.out, details, args, {args.workload: result})
    print(json.dumps(result))


def set_up(args, probe, started):
    """Load once, then build the workload SETUPS times; setup_s is the load
    time plus the median build time, at the reference speed."""
    (workloads, slot, reference), load_s = timed(probe, load, args.workload, args.seed)
    # from the script's start to the probe's first sample (importing numpy)
    load_s += (probe.at[0] - started) * probe.factor(started, probe.at[0])
    builds = []
    for _ in range(SETUPS):
        workload, seconds = timed(probe, build, workloads.WORKLOADS[args.workload], slot)
        builds.append(seconds)
    return workloads, slot, reference, workload, load_s + statistics.median(builds)


def load(name, seed):
    """The one-time part of set-up: import the library and the benchmark,
    and read the reference outcomes of the seed's input slot."""
    import_library()
    import outcomes
    import workloads
    slot = seed % outcomes.SLOTS
    return workloads, slot, outcomes.load_reference(name, slot)


def build(factory, slot):
    """One set-up: generate the inputs and run one untimed warm-up op."""
    workload = factory(slot)
    workload.warmup()
    return workload


def metric_entry(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def print_metrics(workload, result):
    for name, entry in result["metrics"].items():
        value = "missing" if entry.get("missing") else f"{entry['value']:.6g}"
        print(f"  {workload:8s} {name:40s} {value:>12s} {entry['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {workload:8s} {'failed_frac':40s} {frac:>12.6g} ({result['failed']} of {result['attempted']} ops)")


def write_results(path, details, args, results):
    for result in results.values():
        result["failed_frac"] = result["failed"] / result["attempted"]
    payload = {"machine": details, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "results": results}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def run_all(args):
    """Run every workload in its own process and gather the results."""
    results = {}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {child.returncode}")
        print("\n".join(line for line in lines[:-1] if line.startswith(f"{name}: ")))
        results[name] = json.loads(lines[-1])
    pin_threads()
    import machine
    details = machine.details(ROOT)
    print(f"machine: {json.dumps(details)}")
    for name, result in results.items():
        print_metrics(name, result)
    if args.out:
        write_results(args.out, details, args, results)
    return all(result["correct"] for result in results.values())


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return 0 if run_all(args) else 1
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
