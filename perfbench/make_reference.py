"""Regenerate the stored reference outcomes, one round per input slot.

    python3 perfbench/make_reference.py

The references pin down what the solver computes, so regenerate them only
when a change of numerics is intended and reviewed as such; a change that
claims a speed-up must pass against the references it found.
"""

from __future__ import annotations

import argparse
import sys

from run import NAMES, import_library, pin_threads


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    pin_threads()
    import_library()
    from outcomes import SLOTS, write_reference
    from workloads import WORKLOADS, Runner

    for name in NAMES:
        slots = {}
        for slot in range(SLOTS):
            runner = Runner()
            workload = WORKLOADS[name](slot)
            workload.run_round(runner, workload.inputs())
            if runner.failed:
                sys.exit(f"error: {name} slot {slot}: " + "; ".join(runner.errors))
            slots[slot] = runner.recorded
            print(f"{name} slot {slot}: {runner.attempted} ops, {dict(runner.counts)}")
        write_reference(name, slots)
    return 0


if __name__ == "__main__":
    sys.exit(main())
