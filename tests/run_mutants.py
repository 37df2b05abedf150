"""Run the mutant catalogue of `mutants.py` against the test suite.

For each mutant, copy the checkout's working tree into a fresh temporary
directory, apply the mutant there (the checkout itself is never touched),
run the test named to kill it, then run the tier-1 suite with -x, less
`test_mutant_sites.py` (whose site check fails on every mutant). A mutant is
killed when the suite fails; the report also says whether its named test
failed and which test failed first.

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py kkt.py     # the mutants of files matching a substring

Exits 1 if any mutant survives, else 0.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _copy(dest):
    """The working tree, uncommitted edits included, less git's and the tests' caches."""
    shutil.copytree(ROOT, dest, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "runs"))


def _pytest(cwd, *args):
    """Run pytest in cwd; return (failed, first failing test id or None)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *args], cwd=cwd, env=env, capture_output=True, text=True)
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return run.returncode != 0, first and first.group(1)


def main(argv):
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    survivors = 0
    for name, old, new, killer in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = Path(tmp)
            _copy(copy)
            target = copy / "src" / "trajopt" / name
            text = target.read_text()
            if text.count(old) != 1:
                sys.exit(f"{name}: the site {old!r} does not occur exactly once")
            target.write_text(text.replace(old, new))
            named, _ = _pytest(copy, killer)
            # the site test fails on every mutant: it would kill them all
            killed, first = _pytest(copy, "--ignore", "tests/test_mutant_sites.py")
        survivors += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {name}: {old!r} -> {new!r}\n"
              f"         named test {'fails' if named else 'PASSES'}: {killer}\n"
              f"         first failure: {first}  ({time.perf_counter() - start:.0f} s)",
              flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
