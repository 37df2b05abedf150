"""The seeded full solves match their committed golden, `golden/solves.txt`.

A line of the golden holds a run's stop reason, counts, final cost to 17
digits and a hash of its records, trial logs, states and controls, so a
change of numerics, even at the rounding level, fails here and names each
run that moved. `make_golden.py` rewrites the file after an intended change.
"""

from make_golden import GOLDEN, golden_lines, machine


def test_full_solves_match_the_golden(seed_sweeps, cold_solves, ddp_cartpole_sweep):
    header, *expected = GOLDEN.read_text().splitlines()
    actual = golden_lines(seed_sweeps, cold_solves, ddp_cartpole_sweep)

    def by_run(lines):  # keyed on (system, method, start)
        return {tuple(line.split()[:3]): line for line in lines}

    old, new = by_run(expected), by_run(actual)
    assert len(old) == len(expected) and len(new) == len(actual)
    moved = [f"  golden {old.get(run)}\n  now    {new.get(run)}"
             for run in dict.fromkeys([*old, *new]) if old.get(run) != new.get(run)]
    written_on = header.removeprefix("# ")
    assert not moved, (f"{len(moved)} of {len(old)} golden solves moved (golden: {written_on}; "
                       f"here: {machine()}):\n" + "\n".join(moved))
