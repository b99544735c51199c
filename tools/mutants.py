"""Run the recorded mutants of ``src/uamsim`` and check that the tests kill each one.

Each mutant in ``tools/mutants.json`` has a ``name``, the defect it
plants (``why``), a ``file`` under the repository root, an exact ``old``
text that must occur in it once, the ``new`` text that replaces it, and
the ``tests`` files expected to kill it.  For each mutant, one at a time,
the runner copies the package, the tests and the files they read into a
temporary directory, applies the mutant there and runs
``pytest -x -q -p no:cacheprovider`` on the named test files.  The
working tree is never written.

A mutant is *killed* when a test fails, *survived* when every test
passes, and *stale* when its old text does not occur exactly once or a
named test file is missing; a stale mutant is restated against the current
code, not dropped.  A mutant that stops pytest before a test can fail (a
syntax error, say) is an *error*: it shows nothing about the tests.
Prints one line per mutant and exits 1 unless every mutant was killed.
Run from anywhere: ``python tools/mutants.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
# what the tests need: the package, the tests, the scenarios they load and
# the pytest settings
COPIED = ("src", "tests", "scenarios", "pyproject.toml")


def copy_tree(dst: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst / name)


def run_mutant(mutant: dict) -> str:
    """``killed``, ``survived``, ``stale`` or ``error`` for one mutant."""
    target = ROOT / mutant["file"]
    text = target.read_text(encoding="utf-8")
    missing = [name for name in mutant["tests"] if not (ROOT / name).is_file()]
    if text.count(mutant["old"]) != 1 or missing:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="uamsim-mutant-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        (work / mutant["file"]).write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # pytest exits 1 when a test failed, and 2-5 when it could not run them
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    bad = 0
    for mutant in json.loads(MUTANTS.read_text(encoding="utf-8")):
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        bad += outcome != "killed"
        print(f"{outcome:<9}{mutant['name']:<40}{time.perf_counter() - start:6.1f} s", flush=True)
    print(f"{bad} mutant(s) not killed" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
