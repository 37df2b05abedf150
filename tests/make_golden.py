"""Rewrite `tests/golden/solves.txt`, the committed outcomes of full solves.

    PYTHONPATH=src python tests/make_golden.py

The file's first line names the machine it was written on (Python, numpy,
BLAS, platform). Every later line is one run of the seeded solves in
`conftest.py`:

    system method start reason iterations trials model_steps final_cost hash

`trials` counts the line-search trials of every iteration, `final_cost` is
printed to 17 significant digits and `hash` is a short sha256 of the
records, the trial logs, the states and the controls, so a rounding-level
change anywhere in a solve moves its line. The seed sweeps name their runs
`ilqr` (the joined run), `ilqr-1e-2` (the warm run to grad 1e-2), and
`ilqr` and `ddp` from the start `warm-seed<N>x1` (warm's controls).

`test_golden.py` solves the same runs and compares them with the file.
Rewriting it is an intended change of numerics: say in CHANGES.md which
lines moved and why. A different numpy or BLAS that moves the file is a
reproducibility finding to record, not a file to rewrite quietly.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden" / "solves.txt"


def machine():
    """The header's text: the versions and platform the runs rounded on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name', 'unknown')} {blas.get('version', '')}, "
            f"{platform.platform()}")


def golden_line(system, method, start, result):
    digest = hashlib.sha256()
    digest.update(repr(result.records).encode())
    digest.update(repr(result.trial_logs).encode())
    digest.update(result.trajectory.states.tobytes())
    digest.update(result.trajectory.controls.tobytes())
    trials = sum(len(row) for _, row in result.trial_logs)
    return (f"{system} {method} {start} {result.reason} {result.iterations} {trials} "
            f"{result.model_steps} {result.final_cost:.17g} {digest.hexdigest()[:12]}")


def golden_lines(seed_sweeps, cold_solves, ddp_cartpole_sweep):
    """One line per run of the three seeded fixtures, in a fixed order."""
    lines = []
    for system, runs in seed_sweeps.items():
        for run in runs:
            start = f"seed{run.seed}x1"
            lines.append(golden_line(system, "ilqr", start, run.ilqr))
            lines.append(golden_line(system, "ilqr-1e-2", start, run.warm))
            if run.tail is not None:
                lines.append(golden_line(system, "ilqr", f"warm-{start}", run.tail))
                lines.append(golden_line(system, "ddp", f"warm-{start}", run.ddp))
    for (system, method, start), (result, _) in cold_solves.items():
        lines.append(golden_line(system, method, start, result))
    for seed, _, result in ddp_cartpole_sweep:
        lines.append(golden_line("cartpole", "ddp", f"seed{seed}x5", result))
    return lines


def main():
    from conftest import solve_cold_starts, solve_ddp_cartpole_sweep, solve_seed_sweeps

    lines = golden_lines(solve_seed_sweeps(), solve_cold_starts(), solve_ddp_cartpole_sweep())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join([f"# {machine()}", *lines]) + "\n")
    print(f"wrote {len(lines)} runs to {GOLDEN}")


if __name__ == "__main__":
    main()
