"""Module layering: only the artifact writer and the CLI touch files, and
helpers exist once.

Parses every module of the package and fails on an `open(` call or a `json`
import outside `artifacts.py` and `cli.py`, and on the `.17g` float format
outside `artifacts.py`, the one place that formats numbers for output. It
also fails if more than one function reads STATE_MAGNITUDE_LIMIT (the one
divergence guard of the one nonlinear propagation), if `models.py`
defines `params` again, or if the per-stage loop of `backward._sweep` (or a
function of `backward.py` it calls) makes an `np.linalg` or `np.isfinite`
call: the sweep's guards and its finiteness check run batched after the loop,
never per stage. That loop holds no `raise`, `break` or `try` and no
`math.isfinite`: it runs through every stage, and one ordered scan after it
finds the first failure. Nor does it make an `np.einsum` or `np.concatenate`
call: the Hessian tensor is laid out before it. Likewise the loop of
`trajectory._propagate` makes no `.step`, `._validate` or `np.isfinite`
call: a rollout checks its inputs before the loop (its first point through
the public `step`) and steps every later point through the unchecked
`_step`. Nor does that loop make an `np.array`, `np.zeros`, `np.empty` or
`np.asarray` call or assign into a subscript: it carries each state and
control as Python values, and the arrays are stacked once after it. It uses
no numpy at all, by an `np.` attribute or by a name bound to one (`dot =
np.dot`, `from numpy import dot`): the feedback sums in Python floats. The
loop of `trajectory.linear_rollout` makes no `np.array`, `np.concatenate` or
list `.append` call: it writes each row in place, into arrays allocated
before it. No per-stage loop (the sweep, `_propagate`, `linear_rollout` and
`cost_gradient_adjoint`) uses `@`, directly or through a function of its
module: each product is an `np.dot`.
The KKT oracle's `kkt.assemble_qp` builds the stacked system with index
arithmetic and no loop over stages, and keeps the stage windows it filled,
whose entries the band solve and the checks read: it builds no block mask by
`np.tile` or `np.repeat`. `solver.solve` holds no
`try`: a line search returns each finding as an outcome, and only
`solver.py` raises `NonDescentError`. In `solver.py`, `expand_along` and
`cost_gradient_adjoint` are read only by `prepare`, `line_search` only by
`advance` and `backward_for` only by `solve`: each step of the iteration is
taken in its one phase, so no second driver forks the loop. `import trajopt`, an m = 1 solve with
each method and `trajopt run` on both benchmarks load no scipy module:
`scipy.linalg` loads when an m >= 2 sweep or the oracle first runs, and
`scipy.sparse` never, so neither the library's import time nor a swing-up's
memory carries them. The benchmark problem schema is written once, in
`models.py`: no other module names its cost keys. No module reads the
environment, so the configuration a run reports is all that set it. Only
`backward.py` reads a sweep's value gradients `.v`: every other module takes
costates from the sweep's `costates` or from `multipliers_from`, so their
sign is decided in one place. No function outside `solver.py` and `cli.py`
takes a parameter named `config`: the solver's settings stop at the solver,
and the line search takes none. Only `cli.py` and `__init__.py` import the
KKT oracle `kkt`, and `kkt` imports nothing from `solver`: no code a solve
runs depends on the oracle that checks it. `cli.py` makes no `isfinite`
call and no `in` or `not in` test against `METHODS`, `SWEEPS` or `SYSTEMS`:
the objects it builds check those values, so no value is checked twice.
The derivative check lives with the oracle in `kkt.py`: `models.py` defines
no `check_derivatives`, no `_fd_jacobian` and no `FD_` or `DERIVATIVE_`
constant. Every name in a module's `__all__` exists in that module, so a
stale export fails here and not at a caller's `from trajopt import *`.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trajopt

PACKAGE = Path(trajopt.__file__).parent
FILE_IO_MODULES = {"artifacts.py", "cli.py"}
FORMAT_MODULES = {"artifacts.py"}


def _violations(tree):
    """(kind, line) for each file-I/O call, json import and .17g format."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                yield "open", node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "json" for alias in node.names):
                yield "json", node.lineno
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "json":
                yield "json", node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".17g" in node.value:
                yield ".17g", node.lineno


def test_only_artifacts_and_cli_do_file_io_and_output_formatting():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= FILE_IO_MODULES | {"solver.py", "kkt.py"}
    found = []
    for path in modules:
        for kind, line in _violations(ast.parse(path.read_text(), str(path))):
            allowed = FORMAT_MODULES if kind == ".17g" else FILE_IO_MODULES
            if path.name not in allowed:
                found.append(f"{path.name}:{line}: {kind}")
    assert found == []


def test_the_layering_check_sees_each_kind_of_violation():
    source = ("import json\nfrom json import dumps\n"
              "def f(p, x):\n    with open(p) as fh:\n        return f'{x:.17g}'\n")
    kinds = sorted(kind for kind, _ in _violations(ast.parse(source)))
    assert kinds == [".17g", "json", "json", "open"]


def _readers(tree, name):
    """Functions that read `name`, bare or as an attribute; each read counts
    for its innermost enclosing function ("<module>" outside any)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Lambda):
                visit(child, "<lambda>")
                continue
            read = (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name)
            if read and isinstance(child.ctx, ast.Load):
                found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _defines(tree, name):
    """Whether any function, method or assignment target is called `name`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return True
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == name:
                return True
    return False


def test_one_function_reads_the_divergence_guard():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        readers += [f"{path.name}:{fn}"
                    for fn in _readers(tree, "STATE_MAGNITUDE_LIMIT")]
    assert len(readers) == 1, readers


def test_models_define_no_params():
    path = PACKAGE / "models.py"
    assert not _defines(ast.parse(path.read_text(), str(path)), "params")


def test_the_helper_checks_see_each_reader_and_definition():
    source = ("LIMIT = 1\n"
              "def a(x):\n    return x > LIMIT\n"
              "def b(m):\n    def inner(x):\n        return x > m.LIMIT\n    return inner\n"
              "class C:\n    @property\n    def params(self):\n        return {}\n")
    tree = ast.parse(source)
    assert _readers(tree, "LIMIT") == {"a", "inner"}
    assert _defines(tree, "params")
    assert _defines(ast.parse("params = {}\n"), "params")
    assert not _defines(ast.parse("f(params)\n"), "params")


DERIVATIVE_CHECK = re.compile(r"check_derivatives|_fd_jacobian|FD_\w*|DERIVATIVE_\w*")


def _derivative_check_definitions(tree):
    """(name, line) of each function, class, assigned name or assigned
    attribute, at any depth, named as a part of the derivative check."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            name = node.id if isinstance(node, ast.Name) else node.attr
        else:
            continue
        if DERIVATIVE_CHECK.fullmatch(name):
            yield name, node.lineno


def test_models_define_no_derivative_check():
    path = PACKAGE / "models.py"
    assert list(_derivative_check_definitions(ast.parse(path.read_text(), str(path)))) == []


def test_the_derivative_check_finder_sees_each_spelling():
    source = ("FD_STEP = 3e-4\nDERIVATIVE_TOL: float = 1e-7\n"
              "a, DERIVATIVE_SAMPLES = 1, 100\n"
              "def check_derivatives(model, cost):\n    return DERIVATIVE_TOL\n"
              "class C:\n    def _fd_jacobian(self, fn, z):\n        self.FD_ORDER = 4\n"
              "check_derivatives(m, c)\nFD = 1\nMY_FD_STEP = 2\nfd_step = 3\n")
    assert sorted(_derivative_check_definitions(ast.parse(source))) == [
        ("DERIVATIVE_SAMPLES", 3), ("DERIVATIVE_TOL", 2), ("FD_ORDER", 8), ("FD_STEP", 1),
        ("_fd_jacobian", 7), ("check_derivatives", 4)]


def _in_loops(tree, function, finding):
    """`finding(node)` of each node inside the `for` loops of `function`,
    directly or through the module's own functions they call, as
    "caller:finding"; a finding of None is none."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, seen = [], set()

    def scan(node, owner):
        for sub in ast.walk(node):
            what = finding(sub)
            if what is not None:
                found.append(f"{owner}:{what}")
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in defs and sub.func.id not in seen):
                seen.add(sub.func.id)
                scan(defs[sub.func.id], sub.func.id)

    for loop in ast.walk(defs[function]):
        if isinstance(loop, ast.For):
            scan(loop, function)
    return found


def _guard_call(node):
    """The name of an `np.linalg` or `np.isfinite` call, or of a call of a
    model's checked entry points `.step` and `._validate`."""
    func = node.func if isinstance(node, ast.Call) else None
    if not isinstance(func, ast.Attribute):
        return None
    if (isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
            and getattr(func.value.value, "id", None) in ("np", "numpy")
            or func.attr == "isfinite" and getattr(func.value, "id", None) in ("np", "numpy")
            or func.attr in ("step", "_validate")):
        return func.attr
    return None


def _matmul(node):
    """"@" for an `a @ b` or an `a @= b`."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    return None


def test_the_sweep_loop_makes_no_linalg_call():
    path = PACKAGE / "backward.py"
    assert _in_loops(ast.parse(path.read_text(), str(path)), "_sweep", _guard_call) == []


def _stacking_call(node):
    """The name of an `np.einsum` or `np.concatenate` (or `np.concat`) call."""
    func = node.func if isinstance(node, ast.Call) else None
    if (isinstance(func, ast.Attribute) and func.attr in ("einsum", "concatenate", "concat")
            and getattr(func.value, "id", None) in ("np", "numpy")):
        return func.attr
    return None


def _failure_exit(node):
    """The kind of a `raise`, `break` or `try`, or "isfinite" for a use of
    `math.isfinite`."""
    if isinstance(node, (ast.Raise, ast.Break, ast.Try)):
        return type(node).__name__.lower()
    if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
            and getattr(node.value, "id", None) == "math"):
        return "isfinite"
    return None


def test_the_sweep_loop_neither_raises_nor_exits():
    # the loop runs through every stage; one ordered scan after it finds the
    # first failure, so no stage decides one inside it
    path = PACKAGE / "backward.py"
    assert _in_loops(ast.parse(path.read_text(), str(path)), "_sweep", _failure_exit) == []


def test_the_exit_check_sees_each_kind():
    source = ("def stop(x):\n    raise ValueError(x)\n"
              "def f(xs):\n    try:\n        pass\n    except ValueError:\n        raise\n"
              "    for x in xs:\n        if not math.isfinite(x):\n            break\n"
              "        try:\n            stop(x)\n        finally:\n            pass\n"
              "        all(map(math.isfinite, xs))\n        np.isfinite(x)\n")
    assert _in_loops(ast.parse(source), "f", _failure_exit) == [
        "f:try", "f:break", "stop:raise", "f:isfinite", "f:isfinite"]


def test_the_sweep_loop_makes_no_einsum_or_concatenate_call():
    # the dynamics Hessians enter as one tensor prepared before the loop, and
    # the solve reads [q_u | Q_ux] as one slice of Q
    path = PACKAGE / "backward.py"
    assert _in_loops(ast.parse(path.read_text(), str(path)), "_sweep", _stacking_call) == []


def test_the_stacking_check_sees_direct_and_indirect_calls():
    source = ("def solve(a, b, c):\n    return numpy.concatenate([b, c], axis=1)\n"
              "def f(xs, t):\n    w = np.einsum('ti,tij->tj', xs, t)\n"
              "    for x in xs:\n        np.einsum('i,ijk->jk', x, t)\n"
              "        solve(x, x, x)\n        np.dot(x, t)\n"
              "        ops.einsum(x)\n        np.concat([x, x])\n")
    assert _in_loops(ast.parse(source), "f", _stacking_call) == [
        "f:einsum", "solve:concatenate", "f:concat"]


def test_the_propagation_loop_steps_unchecked():
    path = PACKAGE / "trajectory.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _in_loops(tree, "_propagate", _guard_call) == []


def _array_store(node):
    """The name of an `np.array`, `np.zeros`, `np.empty` or `np.asarray` call,
    or "[]=" for an assignment into a subscript."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return "[]="
    func = node.func if isinstance(node, ast.Call) else None
    if (isinstance(func, ast.Attribute) and func.attr in ("array", "zeros", "empty", "asarray")
            and getattr(func.value, "id", None) in ("np", "numpy")):
        return func.attr
    return None


def test_the_propagation_loop_builds_no_array():
    # the loop carries x_t and u_t as Python values; states and controls are
    # stacked once, after it
    path = PACKAGE / "trajectory.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _in_loops(tree, "_propagate", _array_store) == []


def test_the_array_check_sees_each_build_and_store():
    source = ("def grow(xs, x):\n    xs[len(xs) - 1] += x\n"
              "def f(xs, m):\n    out = np.zeros((3, 2))\n    out[0] = 1.0\n"
              "    for t, x in enumerate(xs):\n        np.array(x)\n        numpy.empty(2)\n"
              "        np.asarray(x)\n        out[t] = x\n        a[0], b = x, x\n"
              "        grow(xs, x)\n        xs.append(np.dot(x, x))\n        y = x[0]\n"
              "        np.zeros_like(x)\n")
    assert _in_loops(ast.parse(source), "f", _array_store) == [
        "f:array", "f:empty", "f:asarray", "f:[]=", "grow:[]=", "f:[]="]


def _row_build(node):
    """The name of an `np.array` or `np.concatenate` (or `np.concat`) call,
    or "append" for an `.append` call."""
    func = node.func if isinstance(node, ast.Call) else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "append" or (func.attr in ("array", "concatenate", "concat")
                                 and getattr(func.value, "id", None) in ("np", "numpy")):
        return func.attr
    return None


def test_the_linear_rollout_loop_writes_its_rows_in_place():
    # du_t and dx_{t+1} go into their rows of arrays allocated before the
    # loop; no list of rows is stacked after it
    path = PACKAGE / "trajectory.py"
    assert _in_loops(ast.parse(path.read_text(), str(path)), "linear_rollout", _row_build) == []


def test_the_row_build_check_sees_each_spelling():
    source = ("def keep(rows, x):\n    rows.append(x)\n"
              "def f(xs, out):\n    rows = np.array(xs)\n"
              "    for t, x in enumerate(xs):\n        rows.append(x)\n        np.array(x)\n"
              "        numpy.concatenate([x, x])\n        np.concat([x])\n        keep(xs, x)\n"
              "        np.asarray(x)\n        np.subtract(x, x, out=out[t])\n"
              "        x.concatenate(x)\n")
    assert _in_loops(ast.parse(source), "f", _row_build) == [
        "f:append", "f:array", "f:concatenate", "f:concat", "keep:append"]


def _numpy_names(tree):
    """Names bound in `tree` to a numpy attribute: by `dot = np.dot`, by one
    place of a tuple assignment such as `step, dot = m._step, np.dot`, or by
    `from numpy import dot`."""
    def of_numpy(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return getattr(node, "id", None) in ("np", "numpy")

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                names.update(name.id for name, value in pairs
                             if isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                             and of_numpy(value))
    return names


def _numpy_use(aliases):
    """A finding for `_in_loops`: "np.<attr>" for an attribute of numpy, or
    the name read, for a member of `aliases`."""
    def finding(node):
        if (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) in ("np", "numpy")):
            return f"{node.value.id}.{node.attr}"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in aliases:
            return node.id
        return None
    return finding


def test_the_propagation_loop_calls_no_numpy():
    # the feedback and the steps run on Python floats; numpy checks the
    # inputs before the loop and stacks the states and controls after it
    path = PACKAGE / "trajectory.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _in_loops(tree, "_propagate", _numpy_use(_numpy_names(tree))) == []


def test_the_numpy_finder_sees_each_spelling():
    source = ("from numpy import sqrt as root\n"
              "def helper(x):\n    return numpy.abs(x)\n"
              "def f(xs, m):\n    dot = np.dot\n    step, add = m._step, np.linalg.norm\n"
              "    total, mul = np.sum(xs), m.mul\n"
              "    for x in xs:\n        np.dot(x, x)\n        dot(x, x)\n        add(x)\n"
              "        root(x)\n        helper(x)\n        mul(x, x)\n        x.dot(x)\n"
              "        step(x, x)\n        dot = x\n")
    tree = ast.parse(source)
    assert _numpy_names(tree) == {"root", "dot", "add"}
    assert sorted(_in_loops(tree, "f", _numpy_use(_numpy_names(tree)))) == [
        "f:add", "f:dot", "f:np.dot", "f:root", "helper:numpy.abs"]


def test_the_loop_check_sees_direct_and_indirect_linalg_calls():
    source = ("def helper(a):\n    return numpy.linalg.solve(a, a)\n"
              "def check(a):\n    return np.isfinite(a).all()\n"
              "def advance(m, x):\n    return m.step(x, x)\n"
              "def f(xs, m):\n    np.linalg.norm(xs)\n    np.isfinite(xs)\n"
              "    m.step(xs, xs)\n    m._validate(xs, xs)\n"
              "    for x in xs:\n        np.linalg.eigvalsh(x)\n        helper(x)\n"
              "        scipy.linalg.solve(x, x)\n        np.isfinite(x)\n"
              "        math.isfinite(x[0])\n        check(x)\n"
              "        m._step(x, x)\n        m._validate(x, x)\n        advance(m, x)\n")
    assert _in_loops(ast.parse(source), "f", _guard_call) == [
        "f:eigvalsh", "helper:solve", "f:isfinite", "check:isfinite", "f:_validate",
        "advance:step"]


PER_STAGE_LOOPS = [("backward.py", "_sweep"), ("trajectory.py", "_propagate"),
                   ("trajectory.py", "linear_rollout"), ("expansion.py", "cost_gradient_adjoint")]


@pytest.mark.parametrize(("module", "function"), PER_STAGE_LOOPS)
def test_the_per_stage_loops_call_np_dot_not_matmul(module, function):
    # a small 2-D product through `@` costs more than the same BLAS call
    # through `np.dot`; the stacked products outside the loops keep `@`
    path = PACKAGE / module
    assert _in_loops(ast.parse(path.read_text(), str(path)), function, _matmul) == []


def test_the_matmul_check_sees_direct_and_indirect_products():
    source = ("def helper(a, b):\n    return a @ b\n"
              "def scaled(a):\n    return 2.0 * a\n"
              "def f(xs, a):\n    y = a @ a\n"
              "    for x in xs:\n        z = np.dot(x, a)\n        z @= a\n"
              "        helper(x, scaled(a))\n        w = x @ a\n")
    assert _in_loops(ast.parse(source), "f", _matmul) == ["f:@", "helper:@", "f:@"]


def _function(tree, name):
    """The module-level function `name` of `tree`."""
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _loops(tree, function):
    """The loops of the module-level `function`, comprehensions included,
    as "kind:line"."""
    kinds = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    # a comprehension carries no line of its own; its target does
    return [f"{type(node).__name__}:{getattr(node, 'lineno', None) or node.target.lineno}"
            for node in ast.walk(_function(tree, function)) if isinstance(node, kinds)]


def test_the_oracle_assembly_has_no_loop():
    path = PACKAGE / "kkt.py"
    assert _loops(ast.parse(path.read_text(), str(path)), "assemble_qp") == []


def test_the_loop_finder_sees_each_kind_of_loop():
    source = ("def f(xs):\n    for x in xs:\n        pass\n"
              "    while xs:\n        xs = [y for y in xs[1:]]\n"
              "def g(xs):\n    return sum(xs)\n")
    tree = ast.parse(source)
    assert _loops(tree, "f") == ["For:2", "While:4", "comprehension:5"]
    assert _loops(tree, "g") == []


def _numpy_calls(tree, function, names):
    """The name of each `np.<name>` call in the module-level `function`, for
    the members of `names`."""
    found = []
    for node in ast.walk(_function(tree, function)):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in names
                and getattr(func.value, "id", None) in ("np", "numpy")):
            found.append(func.attr)
    return found


def test_the_oracle_keeps_the_nonzeros_it_assembled():
    # the entries kept are those the assignments wrote, not a second,
    # hand-written statement of the window's block pattern
    path = PACKAGE / "kkt.py"
    assert _numpy_calls(ast.parse(path.read_text(), str(path)), "assemble_qp",
                        ("tile", "repeat")) == []


def test_the_numpy_call_finder_sees_each_spelling():
    source = ("def f(blocks, n):\n    keep = np.tile(np.repeat(blocks, n, 0), 2)\n"
              "    numpy.repeat(keep, 2)\n    keep.repeat(2)\n    tile(keep)\n"
              "def g(blocks):\n    return np.tile(blocks, 2)\n")
    assert sorted(_numpy_calls(ast.parse(source), "f", ("tile", "repeat"))) == [
        "repeat", "repeat", "tile"]


def _tries(tree, function):
    """The line of each `try` statement in the module-level `function`."""
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))
    return sorted(node.lineno for node in ast.walk(_function(tree, function))
                  if isinstance(node, kinds))


def test_the_solver_loop_has_no_exception_path():
    # a line search returns each finding, NON_DESCENT included, as an outcome
    path = PACKAGE / "solver.py"
    assert _tries(ast.parse(path.read_text(), str(path)), "solve") == []


def test_the_try_finder_sees_nested_statements():
    source = ("def f(xs):\n    for x in xs:\n        try:\n            g(x)\n"
              "        except ValueError:\n            pass\n"
              "    try:\n        pass\n    finally:\n        pass\n"
              "def g(x):\n    try:\n        pass\n    finally:\n        pass\n")
    assert _tries(ast.parse(source), "f") == [3, 7]


# each step of the solver's iteration -> the one phase that takes it
PHASES = {"expand_along": "prepare", "cost_gradient_adjoint": "prepare",
          "line_search": "advance", "backward_for": "solve"}


def _phase_readers(tree):
    """For each step of PHASES, the sorted functions that read its name."""
    return {name: sorted(_readers(tree, name)) for name in PHASES}


def test_each_step_of_the_solver_iteration_is_taken_in_its_one_phase():
    path = PACKAGE / "solver.py"
    assert _phase_readers(ast.parse(path.read_text(), str(path))) == {
        name: [phase] for name, phase in PHASES.items()}


def test_the_phase_check_sees_a_forked_loop():
    source = ("from .backward import backward_for\n"
              "def solve(state):\n    return backward_for(state)\n"
              "def solve_many(states):\n    sweep = backward_for\n"
              "    return [trajopt.backward_for(s) for s in states]\n"
              "def advance(state):\n    return line_search(state), expansion.expand_along(state)\n")
    assert _phase_readers(ast.parse(source)) == {
        "expand_along": ["advance"], "cost_gradient_adjoint": [],
        "line_search": ["advance"], "backward_for": ["solve", "solve_many"]}


def _raises(tree, name):
    """The line of each `raise` of the exception class `name`, called or not,
    bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == name or getattr(exc, "attr", None) == name:
                yield node.lineno


def test_only_the_solver_raises_non_descent():
    # a line search reports a non-descent direction as an outcome; only an
    # iLQR sweep's, which its theory rules out, is raised, by `solve`
    found = {path.name: list(_raises(ast.parse(path.read_text(), str(path)),
                                     "NonDescentError"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, lines in found.items() if lines] == ["solver.py"]


def test_the_raise_finder_sees_each_spelling():
    source = ("raise NonDescentError('x')\nraise NonDescentError\n"
              "raise errors.NonDescentError('x')\nraise ValueError('NonDescentError')\n"
              "try:\n    pass\nexcept NonDescentError:\n    raise\n"
              "err = NonDescentError('x')\n")
    assert sorted(_raises(ast.parse(source), "NonDescentError")) == [1, 2, 3]


def _scipy_modules_after(script):
    """The scipy modules loaded once `script` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = script + "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_importing_the_package_does_not_load_scipy_sparse():
    loaded = _scipy_modules_after(
        "import numpy as np, trajopt\n"
        "model, cost, x0, _ = trajopt.make_benchmark('pendulum', horizon=3)\n"
        "traj = trajopt.rollout(model, cost, x0, np.zeros((3, 1)))\n"
        "trajopt.solve_kkt(trajopt.assemble_qp(trajopt.expand_along(model, cost, traj)))")
    assert "scipy.linalg" in loaded  # the probe sees the oracle's own import
    assert "scipy.sparse" not in loaded


def test_one_input_solves_and_runs_load_no_scipy(tmp_path):
    # scipy serves only the m >= 2 sweep and the oracle: a swing-up loads none of it
    loaded = _scipy_modules_after(
        "import numpy as np, trajopt\n"
        "from trajopt import cli\n"
        "for system in ('pendulum', 'cartpole'):\n"
        "    model, cost, x0, _ = trajopt.make_benchmark(system, horizon=10)\n"
        "    for method in trajopt.solver.METHODS:\n"
        "        trajopt.solve(model, cost, x0, np.zeros((10, 1)),\n"
        "                      trajopt.SolverConfig(method=method, max_iters=3))\n"
        "    assert cli.main(['run', '--system', system, '--method', 'all', '--out',\n"
        f"                     {str(tmp_path)!r} + '/' + system, '--set', 'max_iters=2']) == 0")
    assert loaded == []


BENCHMARK_KEYS = ("q_diag", "r_scale", "qt_scale")


def _mentions(source, names):
    """The members of `names` that `source` spells out as whole words."""
    return [name for name in names if re.search(rf"\b{name}\b", source)]


def test_only_models_names_the_benchmark_keys():
    # the CLI and every other module take the problem keys from models.BENCHMARKS
    found = {path.name: _mentions(path.read_text(), BENCHMARK_KEYS)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "models.py"}
    assert "cli.py" in found
    assert {name: keys for name, keys in found.items() if keys} == {}
    assert _mentions((PACKAGE / "models.py").read_text(), BENCHMARK_KEYS) == list(BENCHMARK_KEYS)


def test_the_key_check_sees_each_spelling():
    source = ("def f(cfg, q_diag=None):\n    return cfg.r_scale\n"
              "KEY = 'qt_scale'  # not q_diagonal, nor my_r_scale\n")
    assert _mentions(source, BENCHMARK_KEYS) == ["q_diag", "r_scale", "qt_scale"]
    assert _mentions("q_diagonal = my_r_scale = qt_scales\n", BENCHMARK_KEYS) == []


def _environment_reads(tree):
    """The line of each `os.environ` / `os.getenv` use and of each import of
    `environ` or `getenv` from `os`."""
    names = ("environ", "getenv")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and getattr(node.value, "id", None) == "os"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in names for alias in node.names)):
            yield node.lineno


def test_no_module_reads_the_environment():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _environment_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_environment_check_sees_each_spelling():
    source = ("import os\nfrom os import environ\nfrom os import path, getenv\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.join('a')\n")
    assert sorted(_environment_reads(ast.parse(source))) == [2, 3, 4, 5]


def _attribute_reads(tree, name):
    """The line of each read of an attribute called `name`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno


def test_only_backward_reads_a_sweeps_value_gradients():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "backward.py"
             for line in _attribute_reads(ast.parse(path.read_text(), str(path)), "v")]
    assert found == []


def test_the_value_gradient_check_sees_each_read():
    source = ("lam = sol.v.copy()\nw = -sol.v[1:]\nf(sweep.v)\n"
              "v = sol.V\nsol.vv = v\nout.v = lam\n")
    assert sorted(_attribute_reads(ast.parse(source), "v")) == [1, 2, 3]


def _taking(tree, name):
    """The name of each function or lambda with a parameter called `name`,
    of any kind: positional, keyword-only or variadic."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(p is not None and p.arg == name for p in params):
                yield getattr(node, "name", "<lambda>")


def test_only_the_solver_and_the_cli_take_a_config():
    found = {path.name: sorted(_taking(ast.parse(path.read_text(), str(path)), "config"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["solver.py"]  # the finder sees the solver's own
    assert {name: fns for name, fns in found.items()
            if fns and name not in ("solver.py", "cli.py")} == {}


def test_only_the_forward_pass_takes_a_step_length():
    # the linearized step and its prediction describe the full step; a step
    # alpha scales them as their docstrings state
    found = {(path.name, fn) for path in sorted(PACKAGE.glob("*.py"))
             for fn in _taking(ast.parse(path.read_text(), str(path)), "alpha")}
    assert found == {("linesearch.py", "forward_pass")}


def test_the_config_finder_sees_each_spelling():
    source = ("def a(model, config):\n    pass\n"
              "def b(model, *, config=None):\n    pass\n"
              "def c(config, /):\n    pass\n"
              "def d(model, cfg):\n    return config\n"
              "e = lambda *config: config\n")
    assert sorted(_taking(ast.parse(source), "config")) == ["<lambda>", "a", "b", "c"]


def _imports_of(tree, name):
    """The line of each import of the package's module `name`: relative or
    absolute, of the module itself or of a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "" if node.level else "trajopt"
            module = node.module or ""
            if (module == (f"{package}.{name}" if package else name)
                    or module == package and any(a.name == name for a in node.names)):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name == f"trajopt.{name}" for a in node.names):
                yield node.lineno


def test_only_the_cli_imports_the_oracle():
    found = {path.name: list(_imports_of(ast.parse(path.read_text(), str(path)), "kkt"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"cli.py", "__init__.py"}
    kkt = PACKAGE / "kkt.py"
    assert list(_imports_of(ast.parse(kkt.read_text(), str(kkt)), "solver")) == []


def test_the_import_finder_sees_each_spelling():
    source = ("from .kkt import solve_kkt\nfrom . import kkt\n"
              "from trajopt.kkt import x\nimport trajopt.kkt\n"
              "from trajopt import kkt as oracle\nfrom .kkt_extra import y\n"
              "import kkt\nfrom .solver import kkt_rows\nimport trajopt.kkt_extra\n")
    assert sorted(_imports_of(ast.parse(source), "kkt")) == [1, 2, 3, 4, 5]


SCHEMA_NAMES = ("METHODS", "SWEEPS", "SYSTEMS")


def _second_checks(tree):
    """(kind, line) for each `isfinite` call, of any module or bare, and each
    `in` or `not in` test whose right side names METHODS, SWEEPS or SYSTEMS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "isfinite":
                yield "isfinite", node.lineno
        elif isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and any(
                        getattr(n, "id", getattr(n, "attr", None)) in SCHEMA_NAMES
                        for n in ast.walk(right)):
                    yield "membership", node.lineno


def test_the_cli_checks_no_value_a_library_object_checks():
    path = PACKAGE / "cli.py"
    assert list(_second_checks(ast.parse(path.read_text(), str(path)))) == []


def test_the_second_check_finder_sees_each_spelling():
    source = ("import math\nfrom numpy import isfinite\n"
              "a = math.isfinite(x)\nb = np.isfinite(x).all()\nc = isfinite(x)\n"
              "d = m in METHODS\ne = s not in cli.SYSTEMS\nf = m in (*SWEEPS, 'all')\n"
              "g = 0 < m in set(METHODS)\nh = METHODS in m\ni = k in KEYS\n"
              "j = m == METHODS\nfor m in METHODS:\n    pass\nk = math.isfinite\n")
    assert sorted(_second_checks(ast.parse(source))) == [
        ("isfinite", 3), ("isfinite", 4), ("isfinite", 5), ("membership", 6),
        ("membership", 7), ("membership", 8), ("membership", 9)]


EXPORTING = sorted(p.stem for p in PACKAGE.glob("*.py") if "__all__" in p.read_text())


@pytest.mark.parametrize("stem", EXPORTING)
def test_every_exported_name_exists(stem):
    assert {"__init__", "kkt"} <= set(EXPORTING)
    module = importlib.import_module("trajopt" if stem == "__init__" else f"trajopt.{stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
