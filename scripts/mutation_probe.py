#!/usr/bin/env python3
"""Which faults in ``src/epursim``, each made by replacing one line, the
tier-1 suite catches.

Each entry of ``MUTANTS`` is a file under ``src/epursim``, one exact source
line of it (without its indentation), the text that replaces that line
(one line or more, each indented as the line was) and the fault it models.
For each mutant, the script copies this tree to a temporary directory,
applies the mutant there by plain text replacement, runs the suite with
``-x``, and prints ``killed`` with the first failing test, ``survived``,
or ``timed out`` if the suite ran past ``TIMEOUT_S`` (a hang fails no named
test, so it is not counted as a kill).  The checkout itself is never
changed.

A killed mutant stops in seconds; a survivor costs a whole suite run, so no
test runs this script.  ``tests/test_scripts.py`` checks only that each
listed line occurs exactly once in its file, so a refactor that moves a
line updates this list.

Usage: python scripts/mutation_probe.py
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "epursim"
#: 30-45 times the suite's own 20-30 s on a 2-vCPU Xeon, so only a hang
#: reaches it
TIMEOUT_S = 900

#: (file under src/epursim, exact line, replacement, the fault it models)
MUTANTS = (
    ("model.py",
     "row[2 * n:4 * n].reshape(2, n), row[:n], h, None if dt == ACC_DTYPE else dt)",
     "row[2 * n:4 * n].reshape(2, n)[::-1], row[:n], h, None if dt == ACC_DTYPE else dt)",
     "the cell update pairs [c, g] with [i, f]"),
    ("model.py",
     "peep = (peep_if[::-1], np.empty((2, n), ACC_DTYPE), peep_o, bias[3 * n:])",
     "peep = (peep_if, np.empty((2, n), ACC_DTYPE), peep_o, bias[3 * n:])",
     "the peephole view is not reversed to the row's (f, i)"),
    ("model.py",
     "if len(acc) < 2:",
     "if len(acc) < 3:",
     "accumulate_dot refuses two accumulator rows, not only one"),
    ("model.py",
     "if not (acc_t.flags.c_contiguous and mat_t.flags.c_contiguous):",
     "if acc_t.flags.c_contiguous and mat_t.flags.c_contiguous:",
     "accumulate_dot_all_t's layout check is inverted"),
    ("model.py",
     "partials_hook(steps.T)",
     "steps = np.ascontiguousarray(partials_hook(steps.T).T)",
     "the partials hook's return value is used, not its in-place update"),
    ("model.py",
     "for i, (layer, sets) in enumerate(zip(net.layers, weights, strict=True)):",
     "layers, ahead, exchange = zip(net.layers, weights, strict=True), [], swap.exchange\n"
     "swap.exchange = lambda i, stop: (ahead.append(next(layers, None)), exchange(i, stop))[1]\n"
     "for i, (layer, sets) in enumerate(ahead.pop() if ahead else next(layers) for _ in net.layers):",
     "layer i+1 is read after layer i's lanes but before its swap"),
    ("model.py",
     "return settle([outcomes]) if own else outcomes",
     "return outcomes",
     "network_infer returns raw outcomes for the swap it made itself"),
    ("model.py",
     "return settle([outcomes]) if own else outcomes",
     "return settle([outcomes])",
     "network_infer settles the outcomes of a swap it was given"),
    ("cli.py",
     "os.write(self._peer[0], bytes([stop]))",
     "os.write(self._peer[0], bytes([len(self._mem) // (2 * self._slot)]))",
     "the token sent is the run count, not the lowest failed run"),
    ("cli.py",
     "return min(stop, token[0]) if token else None  # no token: the peer ended",
     "return min(stop, token[0]) if token else stop",
     "exchange ignores the end of the peer's pipe"),
    ("cli.py",
     "chunks = min(slots // len(sides), runs)",
     "chunks = min(slots, runs)",
     "a paired cut makes a chunk per slot, not per two slots"),
)


def apply(tree: Path, name: str, line: str, replacement: str) -> None:
    """Replaces the one line of ``tree``'s ``name`` that is ``line`` with
    the lines of ``replacement``, each at that line's indentation;
    ValueError unless exactly one line is ``line``."""
    path = tree / PACKAGE / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(at) != 1:
        raise ValueError(f"{name}: {len(at)} lines are {line!r}")
    old = lines[at[0]]
    indent = old[:len(old) - len(old.lstrip())]
    lines[at[0]] = "".join(f"{indent}{text}\n" for text in replacement.splitlines())
    path.write_text("".join(lines), encoding="utf-8")


def probe(name: str, line: str, replacement: str) -> str:
    """``killed: <first failing test>``, ``survived`` or ``timed out``, for
    the suite run with ``-x`` on a copy of this tree with the mutant
    applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        apply(tree, name, line, replacement)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return f"killed: {failed[0] if failed else f'pytest exit {proc.returncode}'}"


def main() -> int:
    for i, (name, line, replacement, fault) in enumerate(MUTANTS):
        print(f"{i} {name}: {fault}: {probe(name, line, replacement)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
