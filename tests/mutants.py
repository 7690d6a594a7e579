"""Check that tier-1 kills each seeded mutant of ``src/ethica``.

A mutant is a named list of exact edits ``(file, old text, new text)``,
each of which must occur exactly once in the file; every edit is checked
before any run.  For each mutant the harness copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, applies the edits there, and
runs tier-1 with ``-x`` in a subprocess under a wall-clock timeout of
``TIMEOUT`` seconds, since tier-1 has no timeout of its own.  A failing
test or the timeout kills the mutant.  A mutant that survives is reported
as equivalent when its entry gives the reason it cannot change a verdict,
and as survived otherwise.  The unmutated copy is run first and must pass.
The exit status is 1 when a mutant survived or the unmutated copy failed.

    python tests/mutants.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds per tier-1 run; the unmutated run takes about 17 s.
TIMEOUT = 120

#: name -> (edits, reason the mutant is equivalent or None).
MUTANTS: dict[str, tuple[list[tuple[str, str, str]], str | None]] = {
    "memoize no node": ([
        ("src/ethica/grounding.py",
         "    return lambda g: _memoized(make(g), free, g)\n",
         "    return make\n"),
    ], None),
    # Every connective and quantifier memoized: the clauses are the same,
    # only memo tables that never hit are added.
    "memoize every node": ([
        ("src/ethica/grounding.py",
         "if len(free) >= varying or not",
         "if not"),
    ], None),
    "drop one clause of each definition": ([
        ("src/ethica/grounding.py",
         "self.defining += [(-var,) + clause for clause in clauses]",
         "self.defining += [(-var,) + clause for clause in clauses[1:]]"),
    ], None),
    "drop level-1 literals from learnt clauses": ([
        ("src/ethica/solver.py",
         "if q == p or seen[-q] or level[-q] == 0:",
         "if q == p or seen[-q] or level[-q] <= 1:"),
    ], None),
    "_violated reports nothing": ([
        ("src/ethica/search.py", "    return violated\n", "    return []\n"),
    ], None),
    "added instances not passed to later branches": ([
        ("src/ethica/search.py", "        held.update(added)\n", ""),
    ], "only the search's speed and counters change: a later branch adds "
       "the instances its own least models falsify"),
    "decide true first": ([
        ("src/ethica/solver.py",
         "                vals[-var] = 1\n"
         "                vals[var] = 0\n"
         "                level[-var] = lvl\n"
         "                reason[-var] = -1\n"
         "                trail.append(-var)\n",
         "                vals[var] = 1\n"
         "                vals[-var] = 0\n"
         "                level[var] = lvl\n"
         "                reason[var] = -1\n"
         "                trail.append(var)\n"),
    ], None),
}


def copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", target)


def apply(target: Path, edits: list[tuple[str, str, str]]) -> None:
    for file, old, new in edits:
        path = target / file
        path.write_text(path.read_text().replace(old, new))


def run_tier1(target: Path) -> tuple[str | None, float]:
    """(None when tier-1 passed, else the first failure or "timeout"; the
    wall time).  The run has its own process group, so a timeout also ends
    the workers its tests fork."""
    env = {**os.environ, "PYTHONPATH": str(target / "src")}
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=target, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if child.returncode == 0:
        return None, elapsed
    failed = [line.split(" - ")[0].removeprefix("FAILED ")
              for line in output.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if failed else f"exit {child.returncode}"), elapsed


def main() -> int:
    # Every edit must apply before any tier-1 run.
    for name, (edits, _) in MUTANTS.items():
        for file, old, _ in edits:
            count = (ROOT / file).read_text().count(old)
            if count != 1:
                raise SystemExit(f"{name}: the old text of an edit to {file} "
                                 f"occurs {count} times, not once:\n{old}")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "unmutated"
        copy_tree(base)
        failure, elapsed = run_tier1(base)
        print(f"unmutated: {'passed' if failure is None else failure} "
              f"({elapsed:.1f} s)", flush=True)
        if failure is not None:
            return 1
        shutil.rmtree(base)
        survived = 0
        for name, (edits, reason) in MUTANTS.items():
            target = Path(scratch) / "mutant"
            copy_tree(target)
            apply(target, edits)
            failure, elapsed = run_tier1(target)
            shutil.rmtree(target)
            if failure is not None:
                status = f"killed by {failure}"
            elif reason is not None:
                status = f"equivalent: {reason}"
            else:
                status = "SURVIVED"
                survived += 1
            print(f"{name}: {status} ({elapsed:.1f} s)", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
