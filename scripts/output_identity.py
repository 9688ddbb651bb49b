#!/usr/bin/env python3
"""Output identity of the command line: runs a fixed matrix of commands and
records what each one produced.

    python scripts/output_identity.py [--tiny] [--out MANIFEST] [--against DIR]
    python scripts/output_identity.py --golden

The manifest maps each command line to its exit code, the sha256 of its
standard output, its standard error as text and the sha256 of each file it
wrote: ``{command: {exit, stdout, stderr, files: {name: sha256}}}``.  The
matrix covers every subcommand: four generated networks (EESEN, LDLRNN, a
2x16 fp16 bidirectional peephole network and a 1x8 layer whose 4400-byte
forward rows overflow the row buffer), both schedules, exact, quantized
(calibrated and not) runs, the trace CSV, runs that warn with and without
it, ``infer`` (also at T=17, across two whole forward-hoist tiles and a
ragged one), a calibrated quantized ``simulate``, ``compare`` and
``quantize-sweep`` on the bidirectional EESEN network, and refusals for
each of the exit codes 2, 3, 4, 5, 6 and 7.  Exit 2 includes a
``gen-network --hidden`` past the descriptor's size limit.  Exit 3 includes
a hardware config whose DRAM fetch takes a non-finite number of
cycles and a weight blob one value short, and exit 5 a capacity refusal
whose weight blob is missing (the weights are read after the cost model).
Exit 6 is a non-finite output, from ``infer`` and ``simulate``, and a NaN
weight in the second layer, from ``simulate`` and ``compare``, which read
the weights one layer at a time; the short blob is refused by both as
well.  Exit 7 comes from quantized runs below their oracle check's cosine
bound, one of whose outputs are all zero, and from both MU refusals, a
latency tail longer than a timestep and more issue slots per element than
the DPU's interval.  The non-finite output runs read a 1x2 network and its
input, the bad blobs are made from a 2x8 network, the issue-slot refusal
reads a 1x1 network and the all-zero output a 1x16 network; the setup
writes them with the hardware configs, so they are not among the 45
recorded commands.
``--tiny`` puts 2x16 networks in place of EESEN and LDLRNN.

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
(``exp`` and ``tanh`` may take other SIMD paths elsewhere).  The ``--tiny``
manifest of one host is kept as a golden, ``tests/data/
output_manifest_tiny.json``, beside the list of its entries whose outputs
depend on numpy's SIMD tier, ``tests/data/output_manifest_tiny_simd.json``;
a test compares one run of the matrix with both, all of each entry but
the exit code of a listed one.  ``--golden`` rewrites both files: it runs
the tiny matrix as is and again with ``NPY_DISABLE_CPU_FEATURES`` set to
the features found above numpy's baseline (the ``found`` list of
``numpy.show_config(mode="dicts")["SIMD Extensions"]``), and lists the
entries whose two runs differ.  A change that alters an output on purpose
runs

    python scripts/output_identity.py --golden

and names each changed entry.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "output_manifest_tiny.json"
SIMD_DEPENDENT = ROOT / "tests" / "data" / "output_manifest_tiny_simd.json"

# the hardware configs the refusals read
HW_FILES = {
    "bad_hw.json": {"dpu_width": 12},
    "small_hw.json": {"weight_mem_bytes_per_cu": 1024},
    # finite, but a DRAM fetch takes more cycles than a float holds
    "tiny_bw_hw.json": {"peak_dram_bandwidth": 1e-300},
    "slow_exp_hw.json": {"op_latency": {"exp": 400}},
    # a 1-wide DPU at unit mul and add latency: a recurrent dot of length 1
    # every 3 cycles, under the 4 issue slots of the cell updater's MU
    "fast_dpu_hw.json": {"dpu_width": 1, "op_latency": {"mul": 1, "add": 1}},
}

# the networks written before the matrix runs: the issue-slot refusal's,
# the 2x8 network the bad weight blobs are made from, and the all-zero
# output's
SETUP = [["gen-network", "--layers", "1", "--hidden", "1", "--input-dim", "1",
          "--out-descriptor", "one.json", "--out-weights", "one.bin"],
         ["gen-network", "--layers", "2", "--hidden", "8", "--input-dim", "3",
          "--out-descriptor", "two.json", "--out-weights", "two.bin"],
         ["gen-network", "--layers", "1", "--hidden", "16", "--input-dim", "3",
          "--seed", "1", "--out-descriptor", "zero.json", "--out-weights", "zero.bin"]]


def write_nan_network() -> None:
    """The exit-6 network, its raw weight blob and its input: one layer of 2
    neurons over 4 inputs, whose input gate's w_x rows sum 3e38 + 3e38 (inf
    in fp32) and then -3e38 * 2 (-inf), so the first hidden state is NaN.
    Every other weight is 0."""
    Path("nan.json").write_text(json.dumps({
        "input_dim": 4, "numeric_precision": "fp32",
        "layers": [{"hidden_size": 2, "input_size": 4}]}), encoding="utf-8")
    # the header (magic, version 1, fp32, reserved), then per gate (input,
    # forget, cell_updater, output) w_x [2, 4], w_h [2, 2] and the bias [2]
    zeros = [0.0] * (8 + 4 + 2)
    values = [3e38, 3e38, -3e38, -3e38] * 2 + zeros[8:] + zeros * 3
    Path("nan.bin").write_bytes(b"LSTW" + struct.pack("<3I", 1, 0, 0)
                                + struct.pack(f"<{len(values)}f", *values))
    Path("x.csv").write_text("1,1,2,2\n", encoding="utf-8")


def write_bad_blobs() -> None:
    """Two bad blobs of SETUP's 2x8 network, each beside a copy of its
    descriptor: ``nan1.bin``, whose first layer-1 weight (input.w_x[0, 0])
    is NaN, and ``short.bin``, one value short."""
    desc, blob = Path("two.json").read_bytes(), bytearray(Path("two.bin").read_bytes())
    # after the header, layer 0's four gates of w_x [8, 3], w_h [8, 8], bias [8]
    at = 16 + 4 * 4 * (8 * 3 + 8 * 8 + 8)
    Path("short.bin").write_bytes(bytes(blob[:-4]))
    blob[at:at + 4] = struct.pack("<f", float("nan"))
    Path("nan1.bin").write_bytes(bytes(blob))
    for name in ("nan1", "short"):
        Path(f"{name}.json").write_bytes(desc)


def write_zero_blob() -> None:
    """SETUP's 1x16 network over 3 inputs with every array zero but the
    forward matrices: at 2 bits and alpha 20 the quantization step is 20,
    every stored partial reads back as 0 and the datapath outputs zeros,
    while the oracle's outputs are not zero."""
    blob = bytearray(Path("zero.bin").read_bytes())
    # after the header, per gate w_x [16, 3], then w_h [16, 16] and the bias [16]
    w_x, rest = 4 * 16 * 3, 4 * (16 * 16 + 16)
    for gate in range(4):
        at = 16 + gate * (w_x + rest) + w_x
        blob[at:at + rest] = bytes(rest)
    Path("zero.bin").write_bytes(bytes(blob))


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
        # uncalibrated: no pass alphas, and below the oracle check's bound (exit 7)
        ["simulate", *net("ldlrnn"), "--synthetic-t", "20", "--policy", "mwl",
         "--quantize", "--energy", "--out", "sim_q8u.json"],
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
        # the bidirectional network through every command that runs inference
        ["infer", *net("eesen"), "--synthetic-t", "6", "--save-output", "infer_bi.bin",
         "--out", "infer_bi.json"],
        # two whole 8-frame einsum hoist tiles of EESEN's 1280 rows and a
        # ragged one, in both directions
        ["infer", *net("eesen"), "--synthetic-t", "17", "--save-output", "infer_bi17.bin",
         "--out", "infer_bi17.json"],
        ["simulate", *net("eesen"), "--synthetic-t", "6", "--policy", "mwl", "--quantize",
         "--quant-bits", "8", "--calibrate", "--out", "sim_bi_q8.json"],
        ["compare", *net("eesen"), "--synthetic-t", "6", "--quantize", "--calibrate",
         "--out", "cmp_bi.json"],
        ["quantize-sweep", *net("eesen"), "--synthetic-t", "6", "--min-bits", "6",
         "--max-bits", "8", "--calibrate", "--out", "sweep_bi.json"],
        ["analyze-reuse", "--network", "ldlrnn.json", "--policy", "conventional",
         "--t", "6", "--trace-csv", "reuse_conv.csv", "--out", "reuse_conv.json"],
        ["analyze-reuse", "--network", "eesen.json", "--policy", "mwl", "--t", "6",
         "--layer", "1", "--trace-csv", "reuse_mwl.csv", "--out", "reuse_mwl.json"],
        ["analyze-reuse", "--network", "wide.json", "--policy", "mwl", "--t", "3",
         "--trace-csv", "reuse_wide.csv", "--out", "reuse_wide.json"],
        # refusals: exit 2 eight times (the last a gen-network size past the
        # descriptor's limit), then 3 five times (the last two on
        # a short blob), 4 (after a warning), 5 twice (the second with no
        # weight blob), 6 four times (a non-finite output, then a NaN
        # weight in layer 1) and 7 three times (an all-zero output, the
        # MU's latency tail, then its issue slots)
        ["simulate", *net("ldlrnn"), "--quantize", "--quant-bits", "20"],
        ["simulate", *net("ldlrnn"), "--policy", "mwl", "--quantize", "--alpha", "1e-310"],
        ["quantize-sweep", *net("ldlrnn"), "--alpha", "1e-310"],
        ["simulate", *net("ldlrnn"), "--bogus"],
        ["analyze-reuse", "--network", "eesen.json", "--policy", "mwl", "--t", "6",
         "--layer", "99"],
        ["infer", *net("ldlrnn"), "--synthetic-seed", "-1"],
        ["compare", *net("ldlrnn"), "--policy-a", "bogus"],
        ["gen-network", "--layers", "1", "--hidden", "2147483648", "--out-descriptor",
         "huge.json", "--out-weights", "huge.bin"],
        ["simulate", *net("ldlrnn"), "--hw-config", "bad_hw.json"],
        ["simulate", *net("ldlrnn"), "--synthetic-t", "-1"],
        ["simulate", *net("ldlrnn"), "--hw-config", "tiny_bw_hw.json"],
        ["simulate", *net("short")],
        ["compare", *net("short")],
        ["analyze-reuse", "--network", "wide.json", "--policy", "mwl", "--t", "3",
         "--out", "missing/reuse.json"],
        ["simulate", *net("ldlrnn"), "--hw-config", "small_hw.json"],
        ["simulate", "--network", "ldlrnn.json", "--weights", "missing.bin",
         "--hw-config", "small_hw.json"],
        ["infer", *net("nan"), "--input", "x.csv"],
        ["simulate", *net("nan"), "--input", "x.csv"],
        ["simulate", *net("nan1")],
        ["compare", *net("nan1")],
        ["simulate", *net("zero"), "--synthetic-t", "4", "--policy", "mwl", "--quantize",
         "--quant-bits", "2", "--alpha", "20"],
        ["simulate", *net("wide"), "--hw-config", "slow_exp_hw.json"],
        ["simulate", *net("one"), "--synthetic-t", "2", "--policy", "mwl",
         "--hw-config", "fast_dpu_hw.json"],
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(tiny: bool) -> dict:
    """Every command's outcome, run in the current directory."""
    from epursim import cli

    for name, doc in HW_FILES.items():
        Path(name).write_text(json.dumps(doc), encoding="utf-8")
    write_nan_network()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in SETUP:
            if cli.main(argv) != 0:
                raise SystemExit(f"error: setup failed: {' '.join(argv)}")
    write_bad_blobs()
    write_zero_blob()
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


def checkout_manifest(checkout: Path, tiny: bool, **env_vars: str) -> dict:
    """The matrix's manifest for ``checkout``, from a new process that
    imports ``epursim`` from ``checkout/src``, with ``env_vars`` set."""
    src = (checkout / "src").resolve()
    env = {k: v for k, v in os.environ.items() if k != "EPURSIM_LOG"} | env_vars
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


def write_golden() -> None:
    """Rewrite the tiny manifest's golden and its list of SIMD-tier
    dependent entries, in matrix order."""
    import numpy as np

    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    mine = checkout_manifest(ROOT, True)
    baseline = checkout_manifest(ROOT, True, NPY_DISABLE_CPU_FEATURES=" ".join(found))
    GOLDEN.write_text(json.dumps(mine, indent=1) + "\n", encoding="utf-8")
    SIMD_DEPENDENT.write_text(json.dumps(
        [cmd for cmd, entry in mine.items() if baseline.get(cmd) != entry], indent=1)
        + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tiny", action="store_true",
                    help="2x16 networks in place of EESEN and LDLRNN")
    ap.add_argument("--out", help="write this checkout's manifest as JSON")
    ap.add_argument("--against", metavar="DIR", help="a checkout to compare with")
    ap.add_argument("--golden", action="store_true",
                    help="rewrite the tiny manifest's golden and its SIMD-tier list")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        import epursim
        manifest = run_matrix(args.tiny)
        print(json.dumps({"epursim": epursim.__file__, "manifest": manifest}))
        return 0
    if args.golden:
        write_golden()
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
