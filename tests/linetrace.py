"""Print every line of ``src/ethica`` that the tier-1 tests never execute.

``coverage`` is not a dependency, so this runs the suite in this process
under ``sys.settrace`` and records each line executed in a file of
``src/ethica``.  A line counts as code when the compiler gives it to some
code object of its module (``co_lines``); each such line no test reached is
printed as ``path:line: source``, followed by a count.  The tests' own
subprocesses and forked workers are not traced, so code only they run is
listed too.  Tracing makes the suite several times slower, and a test that
times itself may fail under it; the listing is printed either way, and
the exit status is pytest's.

    python tests/linetrace.py [pytest arguments]

The file name keeps pytest from collecting it and shadows no stdlib module.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ethica"


def code_lines(path: Path) -> set[int]:
    """The line numbers the compiler gives to code in the file at ``path``."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(code_lines(path) - executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
