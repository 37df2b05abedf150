"""Command-line experiment runner.

Two subcommands:

  run      solve once per configured method, all from one initial guess, and
           write each run's artifacts; with several methods, also merge their
           iteration traces into plot-ready CSV tables
  verify   run the derivative checks and the KKT-oracle equivalence suite

Configuration comes from a plain key=value file (--config), overridable with
repeated --set key=value flags and the direct --system/--method/--seed/--out
flags; nothing else, the environment included, sets a key. The keys are the
fields of ExperimentConfig, the benchmark problem keys and the fields of the
flat SolverConfig. Unknown keys are rejected. All CSV output uses 17
significant digits so doubles round-trip losslessly; identical configuration
and seed reproduce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import artifacts
from .backward import SWEEPS, backward_for
from .errors import ConfigError, DimensionError, TrajoptError
from .expansion import expand_along
from .kkt import check_derivatives, verify_equivalence
from .models import BENCHMARKS, make_benchmark, random_linear
from .solver import METHODS, SolverConfig, solve
from .trajectory import rollout

__all__ = [
    "ExperimentConfig",
    "build_config",
    "parse_kv_file",
    "cmd_run",
    "cmd_verify",
    "main",
]

SYSTEMS = tuple(BENCHMARKS)
VERIFY_HORIZONS = (1, 2, 5, 20, 100, 200)
VERIFY_KEYS = ("seed", "out", "init_amplitude")  # verify fixes every other key


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's settings. The solver settings, line search's
    included, live in `solver`, so their fields and defaults are those of
    SolverConfig. `problem` holds the benchmark keys that were set; the
    others take the defaults of `models.BENCHMARKS`.

    Construction checks `init`, `init_amplitude`, `seed` and that no method
    is repeated, and builds what the other settings configure: the
    SolverConfig of each method and the benchmark problem. A bad setting
    raises their ValueError or DimensionError."""

    system: str = "pendulum"
    method: str = "ilqr"
    problem: dict = field(default_factory=dict, hash=False)  # unhashable, so left out of the hash
    init: str = "zero"
    init_amplitude: float = 1.0
    seed: int = 0
    out: str = "runs"
    warm_start: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.init not in ("zero", "random"):
            raise ValueError(f"unknown init '{self.init}'")
        if not 0 <= self.init_amplitude < np.inf:  # NaN fails too
            raise ValueError("init_amplitude must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        methods = self.methods()
        for method in methods:
            self.solver_config(method)
            if methods.count(method) > 1:  # one run directory per method
                raise ValueError(f"method '{method}' is repeated")
        make_benchmark(self.system, **self.problem)

    def solver_config(self, method) -> SolverConfig:
        return replace(self.solver, method=method)

    def methods(self):
        if self.method == "all":
            return list(METHODS)
        return self.method.split(",")


def _parse_float_list(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got '{text}'") from exc


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got '{text}'")


def _typed(parser, label):
    def parse(text):
        try:
            return parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {label}: '{text}'") from exc
    return parse


_TYPE_PARSERS = {str: str, int: int, float: float, bool: _parse_bool, tuple: _parse_float_list}


def _keys(cls, skip=()):
    """key -> (cls, parser) for each field of `cls`, the parser chosen by
    the type of the field's default."""
    return {f.name: (cls, _typed(_TYPE_PARSERS[type(f.default)], f.name))
            for f in fields(cls) if f.name not in skip}


# Every configuration key, from the dataclass field that holds it or the
# benchmark defaults table, its parser chosen by the type of its default (the
# defaults tables share their keys and value types).
_KEYS = {
    **_keys(ExperimentConfig, skip=("problem", "solver")),
    **{key: ("problem", _typed(_TYPE_PARSERS[type(value)], key))
       for key, value in BENCHMARKS[SYSTEMS[0]][1].items()},
    **_keys(SolverConfig, skip=("method",)),
}


def parse_kv_file(path):
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    pairs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def build_config(pairs) -> ExperimentConfig:
    """Parse raw string pairs into a typed configuration, which checks
    itself as it is built, before any run starts; a bad key, value or
    setting is a ConfigError."""
    values = {ExperimentConfig: {}, "problem": {}, SolverConfig: {}}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key '{key}'")
        owner, parse = _KEYS[key]
        values[owner][key] = parse(raw)
    try:
        return ExperimentConfig(problem=values["problem"],
                                solver=SolverConfig(**values[SolverConfig]),
                                **values[ExperimentConfig])
    except (ValueError, DimensionError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_run(cfg) -> int:
    """Solve each configured method from one shared initial guess and write
    its artifacts: to `cfg.out` for one method, else to its <method>
    subdirectory, with the merged tables of all the runs in `cfg.out`.

    With `warm_start` the shared guess is a near-solution: plain iLQR down
    to a loose gradient tolerance, from whose controls every method restarts.
    """
    model, cost, x0, horizon = make_benchmark(cfg.system, **cfg.problem)
    controls0 = np.zeros((horizon, model.control_dim))
    if cfg.init == "random":  # seeded uniform draws in [-a, a] per entry
        controls0 = np.random.default_rng(cfg.seed).uniform(
            -cfg.init_amplitude, cfg.init_amplitude, size=controls0.shape)
    if cfg.warm_start:
        warm = solve(model, cost, x0, controls0,
                     replace(cfg.solver_config("ilqr"), grad_tol=1e-2))
        controls0 = warm.trajectory.controls

    methods = cfg.methods()
    results = []
    for method in methods:
        outdir = os.path.join(cfg.out, method) if len(methods) > 1 else cfg.out
        os.makedirs(outdir, exist_ok=True)
        start = time.perf_counter()
        result = solve(model, cost, x0, controls0, cfg.solver_config(method))
        wall = time.perf_counter() - start
        results.append((method, result))

        artifacts.write_gain_profile_csv(os.path.join(outdir, "quu_profile.csv"),
                                         result.first_sweep)
        artifacts.write_iterations_csv(os.path.join(outdir, "iterations.csv"), result.records)
        artifacts.write_trials_csv(os.path.join(outdir, "trials.csv"), result.trial_logs)
        artifacts.write_trajectory_csv(os.path.join(outdir, "trajectory.csv"),
                                       result.trajectory, cost)
        artifacts.write_summary_json(os.path.join(outdir, "summary.json"), result,
                                     method=method, wall_time=wall,
                                     system=cfg.system, seed=cfg.seed)
        print(f"{cfg.system}/{method}: converged={result.converged} "
              f"reason={result.reason} iterations={result.iterations} "
              f"final_cost={result.final_cost:.6g}")

    if len(methods) > 1:
        artifacts.write_merged_csv(os.path.join(cfg.out, "merged.csv"), results)
        artifacts.write_prediction_csv(os.path.join(cfg.out, "prediction_table.csv"), results)
    return 0


def cmd_verify(cfg) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    reports = []  # (system, report) pairs
    # both benchmarks and a seeded linear system with two inputs
    instances = [(system, *make_benchmark(system)[:3]) for system in SYSTEMS]
    instances.append(("linear-m2", *random_linear(rng)))

    for system, model, cost, x0 in instances:
        found = [check_derivatives(model, cost, seed=cfg.seed)]
        for horizon in VERIFY_HORIZONS:
            controls = rng.uniform(-cfg.init_amplitude, cfg.init_amplitude,
                                   size=(horizon, model.control_dim))
            traj = rollout(model, cost, x0, controls)
            exp = expand_along(model, cost, traj)
            found += [verify_equivalence(backward_for(label, exp), exp, tol=1e-8)
                      for label in SWEEPS]
        for report in found:
            print(f"[{system}] {report.summary()}")
            reports.append((system, report))

    artifacts.write_verification_json(os.path.join(cfg.out, "verify_report.json"), reports)
    all_ok = all(report.passed for _, report in reports)
    print("verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _add_common_flags(sub):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--system", help=" or ".join(SYSTEMS))
    sub.add_argument("--method", help=f"{', '.join(METHODS)}, all, or a comma list")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--out", help="output directory root")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override any configuration key (repeatable)")


def _collect_pairs(args):
    pairs = {}
    if args.config:
        pairs.update(parse_kv_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    for key in ("system", "method", "seed", "out"):
        if getattr(args, key) is not None:
            pairs[key] = str(getattr(args, key))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trajopt",
        description="Trajectory optimization benchmark runner")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        _add_common_flags(subparsers.add_parser(name))

    args = parser.parse_args(argv)
    try:
        pairs = _collect_pairs(args)
        ignored = sorted(set(pairs) - set(VERIFY_KEYS))
        if args.command == "verify" and ignored:
            raise ConfigError(f"verify takes only {', '.join(VERIFY_KEYS)}, "
                              f"not {', '.join(ignored)}")
        cfg = build_config(pairs)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    dispatch = {"run": cmd_run, "verify": cmd_verify}
    try:
        return dispatch[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except TrajoptError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
