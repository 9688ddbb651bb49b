#!/usr/bin/env python3
"""Output identity of the command line: runs a fixed matrix of commands and
records what each one produced.

    python scripts/output_identity.py [--tiny] [--out MANIFEST] [--against DIR]

The manifest maps each command line to its exit code, the sha256 of its
standard output, its standard error as text and the sha256 of each file it
wrote: ``{command: {exit, stdout, stderr, files: {name: sha256}}}``.  The
matrix covers every subcommand: four generated networks (EESEN, LDLRNN, a
2x16 fp16 bidirectional peephole network and a 1x8 layer whose 4400-byte
forward rows overflow the row buffer), both schedules, exact, quantized and
calibrated runs, the trace CSV, runs that warn with and without it, and
refusals for each of the exit codes 2, 3, 4, 5 and 7.  ``--tiny`` puts 2x16
networks in place of EESEN and LDLRNN.

A checkout's matrix runs in a new process that imports ``epursim`` from
that checkout's ``src`` (checked, as the benchmark checks it), in a new
temporary directory, with every path relative to it, so that no output
names the directory.  Each command is one in-process call of
``epursim.cli.main``, the call the console script makes, with its warning
filters reset as in a new process; an exception that escapes it is recorded
as exit ``"uncaught"`` with its traceback as the standard error.
``--against DIR`` runs the same matrix on ``DIR/src`` and prints each entry
that differs, exiting 1 if one does; DIR needs no copy of this script.  Without ``--against`` or ``--out`` the
manifest goes to standard output.

A float output is bit-exact only against the same host and numpy build
(``exp`` and ``tanh`` may take other SIMD paths elsewhere), so keep no
manifest as a golden: compare two checkouts on one host.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the hardware configs the refusals read
HW_FILES = {
    "bad_hw.json": {"dpu_width": 12},
    "small_hw.json": {"weight_mem_bytes_per_cu": 1024},
    "slow_exp_hw.json": {"op_latency": {"exp": 400}},
}


def matrix(tiny: bool) -> list[list[str]]:
    """The commands in run order; the first ones write the networks."""
    nets = {
        "eesen": ["--preset", "eesen"],
        "ldlrnn": ["--preset", "ldlrnn"],
        "fp16": ["--layers", "2", "--hidden", "16", "--bidirectional", "--peephole",
                 "--precision", "fp16"],
        "wide": ["--layers", "1", "--hidden", "8", "--input-dim", "1100"],
    }
    if tiny:
        nets["eesen"] = ["--layers", "2", "--hidden", "16", "--bidirectional",
                         "--peephole", "--input-dim", "12"]
        nets["ldlrnn"] = ["--layers", "2", "--hidden", "16", "--input-dim", "10"]

    def net(name):
        return ["--network", f"{name}.json", "--weights", f"{name}.bin"]

    return [
        *(["gen-network", *shape, "--seed", str(seed), "--out-descriptor",
           f"{name}.json", "--out-weights", f"{name}.bin"]
          for seed, (name, shape) in enumerate(nets.items(), 1)),
        ["infer", *net("ldlrnn"), "--synthetic-t", "10", "--save-output", "infer.bin",
         "--out", "infer.json"],
        ["simulate", *net("eesen"), "--synthetic-t", "6", "--policy", "conventional",
         "--energy", "--out", "sim_conv.json"],
        ["simulate", *net("ldlrnn"), "--synthetic-t", "40", "--policy", "mwl",
         "--hw-preset", "epur-mwl", "--quantize", "--quant-bits", "8", "--calibrate",
         "--trace-csv", "sim_q8.csv", "--out", "sim_q8.json"],
        ["simulate", *net("fp16"), "--synthetic-t", "8", "--policy", "mwl",
         "--out", "sim_fp16.json"],
        ["simulate", *net("wide"), "--synthetic-t", "3", "--policy", "mwl",
         "--trace-csv", "sim_wide.csv", "--out", "sim_wide.json"],
        ["simulate", *net("wide"), "--synthetic-t", "3", "--policy", "mwl",
         "--out", "sim_wide_nocsv.json"],
        ["compare", *net("ldlrnn"), "--synthetic-t", "20", "--out", "cmp.json"],
        ["compare", *net("ldlrnn"), "--synthetic-t", "20", "--quantize",
         "--quant-bits", "6", "--out", "cmp6.json"],
        ["quantize-sweep", *net("ldlrnn"), "--synthetic-t", "20", "--min-bits", "4",
         "--max-bits", "7", "--calibrate", "--out", "sweep.json"],
        ["analyze-reuse", "--network", "ldlrnn.json", "--policy", "conventional",
         "--t", "6", "--trace-csv", "reuse_conv.csv", "--out", "reuse_conv.json"],
        ["analyze-reuse", "--network", "eesen.json", "--policy", "mwl", "--t", "6",
         "--layer", "1", "--trace-csv", "reuse_mwl.csv", "--out", "reuse_mwl.json"],
        ["analyze-reuse", "--network", "wide.json", "--policy", "mwl", "--t", "3",
         "--trace-csv", "reuse_wide.csv", "--out", "reuse_wide.json"],
        # refusals: exit 2 seven times, then 3 twice, 4 (after a warning), 5 and 7
        ["simulate", *net("ldlrnn"), "--quantize", "--quant-bits", "20"],
        ["simulate", *net("ldlrnn"), "--policy", "mwl", "--quantize", "--alpha", "1e-310"],
        ["quantize-sweep", *net("ldlrnn"), "--alpha", "1e-310"],
        ["simulate", *net("ldlrnn"), "--bogus"],
        ["analyze-reuse", "--network", "eesen.json", "--policy", "mwl", "--t", "6",
         "--layer", "99"],
        ["infer", *net("ldlrnn"), "--synthetic-seed", "-1"],
        ["compare", *net("ldlrnn"), "--policy-a", "bogus"],
        ["simulate", *net("ldlrnn"), "--hw-config", "bad_hw.json"],
        ["simulate", *net("ldlrnn"), "--synthetic-t", "-1"],
        ["analyze-reuse", "--network", "wide.json", "--policy", "mwl", "--t", "3",
         "--out", "missing/reuse.json"],
        ["simulate", *net("ldlrnn"), "--hw-config", "small_hw.json"],
        ["simulate", *net("wide"), "--hw-config", "slow_exp_hw.json"],
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(tiny: bool) -> dict:
    """Every command's outcome, run in the current directory."""
    from epursim import cli

    for name, doc in HW_FILES.items():
        Path(name).write_text(json.dumps(doc), encoding="utf-8")
    manifest = {}
    for argv in matrix(tiny):
        before = set(os.listdir())
        out, err = io.StringIO(), io.StringIO()
        # entering catch_warnings resets the "once per location" registries
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:
                code = "uncaught"
                err.write(traceback.format_exc())
        manifest[" ".join(argv)] = {
            "exit": code,
            "stdout": _sha256(out.getvalue().encode()),
            "stderr": err.getvalue(),
            "files": {name: _sha256(Path(name).read_bytes())
                      for name in sorted(set(os.listdir()) - before)},
        }
    return manifest


def checkout_manifest(checkout: Path, tiny: bool) -> dict:
    """The matrix's manifest for ``checkout``, from a new process that
    imports ``epursim`` from ``checkout/src``."""
    src = (checkout / "src").resolve()
    env = {k: v for k, v in os.environ.items() if k != "EPURSIM_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="output-identity-") as work:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             *(["--tiny"] if tiny else [])],
            cwd=work, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"error: the matrix failed on {checkout}:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout)
    if Path(doc["epursim"]).resolve().parent != src / "epursim":
        raise SystemExit(f"error: imported epursim from {doc['epursim']}, not {src}")
    return doc["manifest"]


def differences(mine: dict, theirs: dict, name: str) -> list[str]:
    """One line per command whose entries differ, then one per field: this
    checkout's value, then ``name``'s."""
    lines = []
    for cmd in [*mine, *(c for c in theirs if c not in mine)]:
        a, b = mine.get(cmd, {}), theirs.get(cmd, {})
        if a == b:
            continue
        lines.append(f"differs: {cmd}")
        for key in ("exit", "stdout", "stderr", "files"):
            if a.get(key) != b.get(key):
                lines.append(f"  {key}: {a.get(key)!r}")
                lines.append(f"  {' ' * len(key)}  {name}: {b.get(key)!r}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tiny", action="store_true",
                    help="2x16 networks in place of EESEN and LDLRNN")
    ap.add_argument("--out", help="write this checkout's manifest as JSON")
    ap.add_argument("--against", metavar="DIR", help="a checkout to compare with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        import epursim
        manifest = run_matrix(args.tiny)
        print(json.dumps({"epursim": epursim.__file__, "manifest": manifest}))
        return 0

    mine = checkout_manifest(ROOT, args.tiny)
    text = json.dumps(mine, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if not args.against:
        if not args.out:
            print(text, end="")
        return 0
    lines = differences(mine, checkout_manifest(Path(args.against), args.tiny),
                        args.against)
    print("\n".join(lines + [f"{sum(l.startswith('differs') for l in lines)} of "
                             f"{len(mine)} commands differ from {args.against}"]))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
