#!/usr/bin/env python3
"""The lines of ``src/epursim`` that no test reaches.

Runs the test suite in this process under the standard library's ``trace``
module and prints every executable source line that never ran, as
``path:line  source``, then a count.  No coverage package is needed.

Tests that run the program in a subprocess (the scripts, the host-memory
limits) are not counted: their lines run in another interpreter, out of the
tracer's sight, so a line only they reach is listed as unreached.

The script pins its own process to one CPU, so that the command line runs
its concurrent inference runs in this process rather than in forked
children.  Tests that stand in more CPUs for ``cli._concurrently`` still
fork, and the child branch of ``_concurrently`` (``cli._child``) is reached
only in those children, so it is listed as unreached.

Tracing makes the suite 3-4 times slower (about a minute), so no test
runs this script.

Usage: python scripts/coverage_map.py [PYTEST_ARGS ...]
       (default: the whole ``tests`` directory)
"""
from __future__ import annotations

import dis
import os
import sys
import threading
import trace
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "epursim"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that start a bytecode instruction, in every
    code object the module compiles to."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def unreached(counts: dict[tuple[str, int], int]) -> list[tuple[Path, int]]:
    """Every executable line of the package with no count, in file order."""
    ran: dict[str, set[int]] = {}
    for filename, line in counts:
        ran.setdefault(filename, set()).add(line)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        # SRC is resolved and first on sys.path, so its modules are
        # imported under these very names
        seen = ran.get(str(path), set())
        out += [(path, line) for line in sorted(executable_lines(path) - seen)]
    return out


def main(argv: list[str]) -> int:
    # the package is first imported under the tracer, so its module-level
    # lines count too
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # no ignoredirs: trace caches its ignore verdict by bare module name,
    # so an ignored numpy ``__init__`` would hide the package's own
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)  # some tests run the datapath on threads
    try:
        rc = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                          "--continue-on-collection-errors",
                                          *(argv or [str(ROOT / "tests")])])
    finally:
        threading.settrace(None)

    missing = unreached(tracer.results().counts)
    for path, line in missing:
        text = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}  {text}")
    print(f"{len(missing)} line(s) of {PACKAGE.relative_to(ROOT)} unreached "
          f"(pytest exit {int(rc)})")
    return int(rc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
