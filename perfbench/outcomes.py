"""Outcome check: every op's result against a stored reference.

A solve is summarized by its stop reason, iteration count and final cost; a
certification by whether the sweep matched the KKT oracle. An MPC episode
adds its closed-loop end state and cost. The reason must match exactly, so an
expected `non_descent` or `floor_hit` passes while a change that turns one
into `gradient` (a hidden regularization, say) is flagged. Costs and states
may differ only by rounding.

References live in `reference/<workload>.json`, one set per input slot, and
are written by `make_reference.py` at a commit whose numerics are trusted.
Storing them for every possible seed is impossible, so a run's seed selects
one of SLOTS input slots; the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from trajopt.kkt import VerificationReport
from trajopt.solver import SolveResult

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ROUNDING_RTOL = 1e-9   # final costs and closed-loop states: rounding-level only
CERTIFY_TOL = 1e-8     # largest relative error a certified sweep may show
ROUNDED = ("final_cost", "cost", "state")
SLOTS = 8  # a run's seed folds onto this many input sets, each with a reference


def summarize(result) -> dict:
    """The fields of one op's result that the reference pins down."""
    if isinstance(result, SolveResult):
        return {"reason": result.reason, "iterations": result.iterations,
                "final_cost": float(result.final_cost)}
    if isinstance(result, VerificationReport):
        return {"passed": bool(result.passed and result.max_rel_err <= CERTIFY_TOL)}
    raise TypeError(f"no outcome summary for {type(result).__name__}")


def mismatches(outcome, expected) -> list:
    """Every way `outcome` disagrees with its reference; empty when it agrees."""
    if expected is None:
        return ["no reference outcome"]
    found = []
    for field, want in expected.items():
        got = outcome.get(field)
        if field in ROUNDED:
            if got is None or not np.allclose(got, want, rtol=ROUNDING_RTOL, atol=ROUNDING_RTOL):
                found.append(f"{field} {got!r} != reference {want!r}")
        elif got != want:
            found.append(f"{field} {got!r} != reference {want!r}")
    return found


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, slot) -> dict:
    """The reference outcomes, keyed by op, for one input slot."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["slots"][str(slot)]


def write_reference(workload, slots):
    """Write {slot: {key: outcome}} with one line per slot."""
    lines = [f'    "{slot}": {json.dumps(outcomes, separators=(",", ":"))}'
             for slot, outcomes in sorted(slots.items())]
    text = ('{\n  "workload": "%s",\n  "slots": {\n%s\n  }\n}\n'
            % (workload, ",\n".join(lines)))
    reference_path(workload).parent.mkdir(exist_ok=True)
    reference_path(workload).write_text(text)
