"""The mutant catalogue of `mutants.py` stays applicable: each mutant's old
text occurs exactly once in its file, its new text differs, and the test
named to kill it exists. `run_mutants.py` runs the catalogue itself."""

import ast
import re
from pathlib import Path

import pytest

import trajopt
from mutants import MUTANTS

PACKAGE = Path(trajopt.__file__).parent
TESTS = Path(__file__).parent


@pytest.mark.parametrize(("name", "old", "new", "killer"), MUTANTS,
                         ids=[f"{name[:-3]}-" + re.sub(r"\W+", "-", new).strip("-")
                              for name, _, new, _ in MUTANTS])
def test_each_mutant_site_occurs_once(name, old, new, killer):
    assert new != old
    assert (PACKAGE / name).read_text().count(old) == 1
    path, function = killer.split("::")
    tree = ast.parse((TESTS.parent / path).read_text())
    assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
