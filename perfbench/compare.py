"""Compare two result files written by `run.py --out`.

    python3 perfbench/compare.py base.json new.json

Prints one row per (workload, metric): the base value, the new value and the
change. For end-to-end metrics the verdict uses the direction and bound fixed
in BENCHMARK.json; one pair of files shows no run-to-run spread, so compare
medians over several seeds before calling a change a regression or a gain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_specs():
    if not BENCHMARK.is_file():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def verdict(spec, base, new):
    if spec is None or base is None or new is None or base == 0:
        return ""
    change = (new - base) / abs(base)
    worse = change if spec["better"] == "lower" else -change
    if "bound" not in spec:
        return "better" if worse < 0 else "worse" if worse > 0 else "same"
    if abs(worse) <= spec["bound"]:
        return "within bound"
    return f"{'worse' if worse > 0 else 'better'} by more than {spec['bound']:.0%}"


def rows(base, new, specs):
    for workload in sorted(set(base["results"]) | set(new["results"])):
        old = base["results"].get(workload, {}).get("metrics", {})
        cur = new["results"].get(workload, {}).get("metrics", {})
        for name in list(old) + [n for n in cur if n not in old]:
            a = old.get(name, {}).get("value")
            b = cur.get(name, {}).get("value")
            unit = (old.get(name) or cur.get(name))["unit"]
            change = f"{(b - a) / abs(a):+.1%}" if a not in (None, 0) and b is not None else "n/a"
            yield workload, name, unit, a, b, change, verdict(specs.get(name), a, b)


def fmt(value):
    return "missing" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    for side, data in (("base", base), ("new", new)):
        m = data["machine"]
        print(f"{side}: commit {m['commit']}, {m['cores']} cores, {m['cpu_model']}, "
              f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']}")
    print(f"{'workload':9s} {'metric':40s} {'unit':12s} {'base':>12s} {'new':>12s} {'change':>8s}  verdict")
    for workload, name, unit, a, b, change, note in rows(base, new, load_specs()):
        print(f"{workload:9s} {name:40s} {unit:12s} {fmt(a):>12s} {fmt(b):>12s} {change:>8s}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
