"""The mutant catalogue of `mutants.py` stays applicable: each mutant's old
text occurs exactly once in its file, its new text differs, and the test
named to kill it exists. Each case's id is the mutant's fixed name, one per
mutant. `run_mutants.py` runs the catalogue itself."""

import ast
from pathlib import Path

import pytest

import trajopt
from mutants import MUTANTS

PACKAGE = Path(trajopt.__file__).parent
TESTS = Path(__file__).parent


def test_each_mutant_has_its_own_name_led_by_its_file():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)
    assert all(name.startswith(f"{file[:-3]}-") for name, file, *_ in MUTANTS)


@pytest.mark.parametrize(("file", "old", "new", "killer"), [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_each_mutant_site_occurs_once(file, old, new, killer):
    assert new != old
    assert (PACKAGE / file).read_text().count(old) == 1
    path, function = killer.split("::")
    tree = ast.parse((TESTS.parent / path).read_text())
    assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
