#!/usr/bin/env python3
"""The lines of ``src/epursim`` that no test reaches.

Runs the test suite in this process under the standard library's ``trace``
module and prints every executable source line that never ran, as
``path:line  source``, then a count.  No coverage package is needed.

Tests that run the program in a subprocess (the scripts, the host-memory
limits) are not counted: their lines run in another interpreter, out of the
tracer's sight, so a line only they reach is listed as unreached.

The script pins its own process to one CPU, so that the command line cuts
its inference runs into one group, which runs in this process rather than
in a forked child.  Tests that stand in more CPUs for ``cli._cpu_slots``,
and those that call ``cli._concurrently`` with more than one call, still
fork.  A forked child inherits the tracer, and ``cli._child`` is wrapped so
that the child writes the package lines it counted to a file just before
``os._exit``; those lines count as reached.  A child killed by a signal
writes nothing.

Tracing makes the suite 4-5 times slower (about 100 s), so no test
runs this script.

Usage: python scripts/coverage_map.py [PYTEST_ARGS ...]
       (default: the whole ``tests`` directory)
"""
from __future__ import annotations

import dis
import os
import pickle
import sys
import tempfile
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


def counting_children(tracer: trace.Trace, out_dir: str) -> None:
    """Wrap ``cli._child`` so that each forked child pickles its counts of
    package lines into ``out_dir`` as it ends, through ``os._exit``."""
    from epursim import cli

    real_child = cli._child

    def child(call, w):
        real_exit = os._exit

        def exit_(status):
            sys.settrace(None)  # the counts stop changing
            try:
                counts = {k: n for k, n in tracer.counts.items()
                          if k[0].startswith(str(PACKAGE))}
                with open(os.path.join(out_dir, f"{os.getpid()}.pickle"), "wb") as f:
                    pickle.dump(counts, f)
            finally:
                real_exit(status)

        os._exit = exit_  # this process is the child
        real_child(call, w)

    cli._child = child


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

    def run_tests(children_dir: str) -> int:
        counting_children(tracer, children_dir)  # imports the package, traced
        return pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            *(argv or [str(ROOT / "tests")])])

    threading.settrace(tracer.globaltrace)  # some tests run the datapath on threads
    try:
        with tempfile.TemporaryDirectory(prefix="coverage-children-") as children_dir:
            rc = tracer.runfunc(run_tests, children_dir)
            counts = dict(tracer.results().counts)
            for name in os.listdir(children_dir):
                with open(os.path.join(children_dir, name), "rb") as f:
                    counts.update(pickle.load(f))
    finally:
        threading.settrace(None)

    missing = unreached(counts)
    for path, line in missing:
        text = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}  {text}")
    print(f"{len(missing)} line(s) of {PACKAGE.relative_to(ROOT)} unreached "
          f"(pytest exit {int(rc)})")
    return int(rc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
