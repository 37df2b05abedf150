"""Span tracer that wraps the library's public functions from outside.

`install()` replaces each traced function, in every `trajopt` module that
binds it, with a wrapper that records a span, and shadows `step` and
`derivatives` on the given model instances. The library calls its layers
through these module-level names, so every call lands in a span without a
line of the library changing. `restore()` puts every original back.

A span is (name, start, end, parent span, op id). Spans live in flat arrays
in memory and are only recorded inside an op span, so work the benchmark does
between ops (applying an MPC control to the plant) stays untraced. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (trajopt module, function) for every module-level name wrapped
FUNCTIONS = {
    "expansion.expand_along": ("expansion", "expand_along"),
    "backward.ilqr": ("backward", "backward_ilqr"),
    "backward.newton": ("backward", "backward_newton"),
    "backward.ddp": ("backward", "backward_ddp"),
    "backward.quu_spectrum": ("backward", "quu_spectrum"),
    "backward.expected_reduction": ("backward", "expected_reduction"),
    "linesearch.line_search": ("linesearch", "line_search"),
    "linesearch.forward_pass": ("linesearch", "forward_pass"),
    "linesearch.directional_derivative": ("linesearch", "directional_derivative"),
    "trajectory.rollout": ("trajectory", "rollout"),
    "trajectory.linear_rollout": ("trajectory", "linear_rollout"),
    "trajectory.total_cost": ("trajectory", "total_cost"),
    "kkt.cost_gradient_adjoint": ("kkt", "cost_gradient_adjoint"),
    "kkt.assemble_qp": ("kkt", "assemble_qp"),
    "kkt.solve_kkt": ("kkt", "solve_kkt"),
    "kkt.verify_equivalence": ("kkt", "verify_equivalence"),
    "solver.solve": ("solver", "solve"),
    "solver.initial_multiplier_estimate": ("solver", "initial_multiplier_estimate"),
}
# span name -> method shadowed on each model instance
METHODS = {"models.step": "step", "models.derivatives": "derivatives"}

OP = "op"  # the root span of one op, opened by `call`

# span name -> the statistics reported for it
SPAN_STATS = {
    "expansion.expand_along": ("calls", "ms", "self_share"),
    "backward.ilqr": ("calls", "ms"),
    "backward.newton": ("calls", "ms"),
    "backward.ddp": ("calls", "ms"),
    "backward.quu_spectrum": ("ms",),
    "backward.expected_reduction": ("ms",),
    "linesearch.line_search": ("ms",),
    "linesearch.forward_pass": ("calls", "ms"),
    "linesearch.directional_derivative": ("calls",),
    "trajectory.rollout": ("ms",),
    "trajectory.linear_rollout": ("calls", "ms"),
    "trajectory.total_cost": ("ms",),
    "models.step": ("calls", "us"),
    "models.derivatives": ("calls", "us"),
    "kkt.cost_gradient_adjoint": ("ms",),
    "kkt.assemble_qp": ("ms",),
    "kkt.solve_kkt": ("ms", "self_share"),
    "kkt.verify_equivalence": ("ms",),
    "solver.solve": ("self_share",),
    "solver.initial_multiplier_estimate": ("ms",),
}
# layers with several spans also get a summed `<layer>.self_share`; the
# expansion and solver layers are reported through their one main span
SHARED_LAYERS = ("backward", "linesearch", "trajectory", "models", "kkt")

UNITS = {"calls": "count", "ms": "ms", "us": "us", "self_share": "ratio"}
SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    """Records spans around the library's layer boundaries while installed."""

    def __init__(self):
        self.names = [OP, *FUNCTIONS, *METHODS]
        self._code = {name: i for i, name in enumerate(self.names)}
        self.missing = set()
        self.op_id = -1
        self._stack = []
        self._saved = []  # (module, attribute, original) to put back
        self._shadowed = []  # (model, method) instance attributes to delete
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")

    def install(self, models=()):
        """Wrap every traced name; names that no longer exist become missing."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trajopt" or name.startswith("trajopt.")]
        for span, (module, attribute) in FUNCTIONS.items():
            original = getattr(sys.modules.get(f"trajopt.{module}"), attribute, None)
            if not callable(original):
                self.missing.add(span)
                continue
            wrapped = self._wrap(original, self._code[span])
            for mod in modules:
                if mod.__dict__.get(attribute) is original:
                    self._saved.append((mod, attribute, original))
                    setattr(mod, attribute, wrapped)
        unique = {id(model): model for model in models}.values()
        for span, method in METHODS.items():
            for model in unique:
                original = getattr(model, method, None)
                if not callable(original):
                    self.missing.add(span)
                    continue
                model.__dict__[method] = self._wrap(original, self._code[span])
                self._shadowed.append((model, method))

    def restore(self):
        """Put back every original name `install` replaced."""
        for mod, attribute, original in reversed(self._saved):
            setattr(mod, attribute, original)
        for model, method in self._shadowed:
            del model.__dict__[method]
        self._saved.clear()
        self._shadowed.clear()

    def call(self, fn, *args):
        """Run one op inside a root span."""
        self.op_id += 1
        return self._span(self._code[OP], -1, fn, args, {})

    def _span(self, code, parent, fn, args, kwargs):
        index = len(self.start)
        self.span_name.append(code)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, code):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            return self._span(code, stack[-1], fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """The recorded spans as numpy arrays."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span, with the table of span names, to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rounds):
        """Per-layer statistics: calls per round, median time per call, and
        self time as a share of the traced op wall time.

        A span that was never called reports 0 calls and 0 time; a traced
        name that no longer exists in the library reports None.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        children = np.bincount(spans["parent"][child], weights=duration[child],
                               minlength=duration.size)
        self_time = duration - children
        names = spans["name"]
        wall = float(duration[names == self._code[OP]].sum())

        out = {}
        for span, stats in SPAN_STATS.items():
            mask = names == self._code[span]
            for stat in stats:
                if span in self.missing:
                    value = None
                elif stat == "calls":
                    value = int(mask.sum()) / rounds
                elif stat == "self_share":
                    value = float(self_time[mask].sum()) / wall
                else:
                    value = float(np.median(duration[mask])) * SCALE[stat] if mask.any() else 0.0
                out[f"{span}.{stat}"] = (value, UNITS[stat])
        for layer in SHARED_LAYERS:
            codes = [self._code[s] for s in self.names if s.startswith(layer + ".")]
            share = float(self_time[np.isin(names, codes)].sum()) / wall
            out[f"{layer}.self_share"] = (share, UNITS["self_share"])
        return out
