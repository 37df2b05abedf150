"""Measure how strongly each workload's time follows the speed kernel's.

    python3 perfbench/calibrate.py

Runs whole rounds of every workload (seed 0) in turn, for SECONDS, in one
process, while the speed probe samples the kernel (see speed.py). For each
workload it prints the slope of log(round time) over log(median kernel time
in the round), and the coefficient of variation of the round times, raw and
divided by the kernel time. Scaling by the kernel time suits a workload whose
slope is near 1. The slope means something only when the machine's speed
varied during the run.
"""

from __future__ import annotations

import argparse
import sys
from statistics import median
from time import perf_counter

from run import NAMES, import_library, pin_threads

SECONDS = 330.0


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    pin_threads()
    import_library()
    import numpy as np
    from speed import SpeedProbe
    from workloads import WORKLOADS, Runner

    workloads = {name: WORKLOADS[name](0) for name in NAMES}
    for workload in workloads.values():
        workload.warmup()
    rounds = {name: [] for name in NAMES}  # (raw round time, median kernel time)
    with SpeedProbe() as probe:
        began = perf_counter()
        while perf_counter() - began < SECONDS:
            for name, workload in workloads.items():
                inputs = workload.inputs()
                first, start = len(probe.took), perf_counter()
                workload.run_round(Runner(), inputs)
                end, last = perf_counter(), len(probe.took)
                samples = probe.took[first:last]
                rounds[name].append((end - start - sum(samples), median(samples)))

    def cv(times):
        return times.std() / times.mean()

    for name, rows in rounds.items():
        raw, kernel = np.array(rows).T
        slope = np.polyfit(np.log(kernel), np.log(raw), 1)[0]
        print(f"{name}: {len(raw)} rounds, kernel {kernel.min() * 1e3:.3f}-{kernel.max() * 1e3:.3f} ms "
              f"(median {np.median(kernel) * 1e3:.3f}), "
              f"slope {slope:.2f}; round-time CV raw {cv(raw):.1%}, scaled {cv(raw / kernel):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
