"""Module layering: only the artifact writer and the CLI touch files.

Parses every module of the package and fails on an `open(` call or a `json`
import outside `artifacts.py` and `cli.py`, and on the `.17g` float format
outside `artifacts.py`, the one place that formats numbers for output.
"""

import ast
from pathlib import Path

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
