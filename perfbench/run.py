#!/usr/bin/env python3
"""Benchmark of the epursim command line: host time of the simulator and the
statistics of the accelerator it models.

One op is one in-process call of ``epursim.cli.main(argv)``, the same call
the ``epursim`` console script makes, on a network that ``gen-network``
made from the workload seed.  A run is one single-threaded process:

    python3 perfbench/run.py --workload eesen-conv --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced ops and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics (spans.py).  Metric names and units are those of BENCHMARK.json.
``op_s`` and ``setup_s`` are medians of seconds corrected for the host's
speed during each op or set-up (hostspeed.py); their wall and CPU seconds
are in the info line.
Every op passes a correctness gate (``gate``).  The last line of standard
output is the result, one JSON object; the line before it records samples,
quartiles, modeled statistics and provenance, and is also written to
``.bench_out/``.  ``--workload all`` runs each workload in its own process
and prints every metric with its unit.

The program is imported from the checkout's ``src`` directory, never from
an installed copy, so two checkouts always measure their own sources.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from hostspeed import HostSpeed
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 11


@dataclass(frozen=True)
class Workload:
    preset: str
    # cli argv; {net} {weights} {out} {seed} and the reuse fields are filled in
    command: tuple[str, ...]
    # (layer, T, policy) of an analyze-reuse op, checked against
    # sched.weight_buffer_read_bytes
    reuse: tuple[int, int, str] | None = None


# Why each workload is here is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "eesen-conv": Workload("eesen", (
        "simulate", "--network", "{net}", "--weights", "{weights}",
        "--synthetic-t", "50", "--synthetic-seed", "{seed}",
        "--policy", "conventional", "--hw-preset", "epur", "--energy",
        "--out", "{out}")),
    "ldlrnn-mwl-q8": Workload("ldlrnn", (
        "simulate", "--network", "{net}", "--weights", "{weights}",
        "--synthetic-t", "2000", "--synthetic-seed", "{seed}",
        "--policy", "mwl", "--hw-preset", "epur-mwl", "--quantize",
        "--quant-bits", "8", "--calibrate", "--energy", "--out", "{out}")),
    "eesen-reuse": Workload("eesen", (
        "analyze-reuse", "--network", "{net}", "--policy", "{policy}",
        "--layer", "{layer}", "--t", "{t}", "--out", "{out}"),
        reuse=(1, 50, "mwl")),
}

# Child process for one timed set-up: package import plus gen-network.
# Prints its wall and host-speed-corrected seconds.
SETUP_CHILD = """\
import contextlib, io, sys, time
from hostspeed import HostSpeed
with HostSpeed() as speed:
    t0 = time.perf_counter()
    import epursim.cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = epursim.cli.main(sys.argv[1:])
    wall = time.perf_counter() - t0
print(repr(speed.net(wall)), repr(speed.corrected(wall)))
sys.exit(rc)
"""

# The modeled statistics of each workload.  They follow from the network's
# shapes, T and the schedule alone, so they hold for every seed; an op whose
# statistics differ fails, so that a change to the cycle, traffic or energy
# model reads as incorrect.  A change that means to alter the model updates
# these figures and says why.
EXPECTED = {
    "eesen-conv": {
        "acc_cycles": 12220273, "acc_dram_bytes": 46156800,
        "acc_wb_read_bytes": 2298240000, "acc_energy_uj": 13858.508711281253,
        "acc_min_weight_storage_bytes": 4925440},
    "ldlrnn-mwl-q8": {
        "acc_cycles": 18624827, "acc_dram_bytes": 3100672,
        "acc_wb_read_bytes": 1057292288, "acc_energy_uj": 4411.3054056225,
        "acc_min_weight_storage_bytes": 264192},
    "eesen-reuse": {
        "acc_cycles": 0, "acc_dram_bytes": 0,
        "acc_wb_read_bytes": 170393600, "acc_energy_uj": 0.0,
        "acc_min_weight_storage_bytes": 3297280},
}

TARGETS = ("weight_buffer", "row_buffer", "input_buffer",
           "intermediate_memory", "dram")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# reading the program's reports

def modeled(doc: dict) -> dict:
    """The modeled accelerator's statistics in one op's report.

    analyze-reuse runs no simulation: it has no cycles, DRAM or energy
    figures (reported as 0) and quantizes nothing (cosine 1.0).  Its weight
    storage is the reuse analysis' minimal LRU capacity; simulate's is the
    weight memory its capacity check requires, over the four CUs.
    """
    if "layers" in doc:
        dirs = [d for layer in doc["layers"] for d in layer["directions"]]
        return {
            "acc_cycles": 0,
            "acc_dram_bytes": 0,
            "acc_wb_read_bytes": sum(st["weight_buffer"]["read_bytes"]
                                     for d in dirs for st in d["stats"].values()),
            "acc_energy_uj": 0.0,
            "acc_min_weight_storage_bytes": sum(
                sum(d["weight_storage_bytes"].values()) for d in dirs),
            "quant_cosine": 1.0,
        }
    return {
        "acc_cycles": doc["cycles"],
        "acc_dram_bytes": doc["dram"]["total_bytes"],
        "acc_wb_read_bytes": doc["access_counts"]["weight_buffer"]["r"]["bytes"],
        "acc_energy_uj": doc["energy"]["total"] * 1e6,
        "acc_min_weight_storage_bytes": 4 * doc["storage"]["weight_bytes_per_cu_hwm"],
        # a bit-exact oracle match has cosine 1 by definition
        "quant_cosine": doc["oracle_check"].get("cosine_similarity", 1.0),
    }


def arch_counters(doc: dict) -> dict:
    """The arch layer's event counts and cycles; all 0 without a simulation."""
    sim = "access_counts" in doc
    out = {
        "arch.dpu_ops": sum(doc["dpu_ops_per_cu"].values()) if sim else 0,
        "arch.mu_ops": doc["mu_ops"] if sim else 0,
        "arch.compute_cycles": doc["compute_cycles"] if sim else 0,
        "arch.stall_cycles": doc["stall_cycles"] if sim else 0,
    }
    for t in TARGETS:
        for rw in ("r", "w"):
            out[f"arch.bytes.{t}.{rw}"] = (
                doc["access_counts"][t][rw]["bytes"] if sim else 0)
    return out


def gate(rc, doc: dict | None, first: dict | None,
         reuse_ref: tuple[int, int] | None, expected: dict) -> list[str]:
    """Reasons one op failed; empty when it passed.

    The exit code alone is not enough: simulate sets it from the oracle
    check only, so a false invariant in ``checks`` still exits 0.
    ``mu_bottleneck`` is a fault flag, so it must be false.  The modeled
    statistics must equal ``expected`` exactly, and the oracle cosine (which
    depends on the seed's values) must equal the first op's.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if doc is None:
        return problems + ["no report written"]
    for name, value in doc.get("checks", {}).items():
        if value is not (name != "mu_bottleneck"):
            problems.append(f"check {name} = {value}")
    if "oracle_check" in doc and doc["oracle_check"].get("passed") is not True:
        problems.append(f"oracle check {doc['oracle_check']}")
    if reuse_ref is not None:
        per_gate, directions = reuse_ref
        dirs = [d for layer in doc["layers"] for d in layer["directions"]]
        if len(dirs) != directions:
            problems.append(f"{len(dirs)} directions analysed, want {directions}")
        for d in dirs:
            if len(d["stats"]) != 4:
                problems.append(f"dir {d['direction']}: {len(d['stats'])} gates, want 4")
            for g, st in d["stats"].items():
                got = st["weight_buffer"]["read_bytes"]
                if got != per_gate:
                    problems.append(f"dir {d['direction']} gate {g}: weight-buffer "
                                    f"reads {got} B, closed form {per_gate} B")
    stats = modeled(doc)
    for name, want in expected.items():
        if stats[name] != want:
            problems.append(f"{name} = {stats[name]!r}, expected {want!r}")
    if first is not None and stats != first:
        problems.append(f"modeled statistics {stats} differ from the first op's {first}")
    return problems


# ---------------------------------------------------------------------------
# running

@dataclass
class Op:
    seconds: float  # wall, less the host-speed sampling
    cpu_seconds: float
    corrected: float | None  # at the nominal host speed; None when traced
    problems: list[str]
    doc: dict | None


class Runner:
    def __init__(self, cli, name: str, seed: int):
        self.cli = cli
        self.workload = WORKLOADS[name]
        self.expected = EXPECTED[name]
        self.seed = seed
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.net = self.dir / "net.json"
        self.out = self.dir / "report.json"
        layer, t, policy = self.workload.reuse or (None, None, None)
        self.argv = [a.format(net=self.net, weights=self.dir / "net.bin",
                              out=self.out, seed=seed, layer=layer, t=t,
                              policy=policy)
                     for a in self.workload.command]
        self.first: dict | None = None
        self.reuse_ref: tuple[int, int] | None = None
        self.ops: list[Op] = []

    def setup(self, reps: int) -> tuple[list[float], list[float]]:
        """gen-network in ``reps`` fresh processes; wall and corrected
        seconds of each."""
        argv = ["gen-network", "--preset", self.workload.preset,
                "--seed", str(self.seed), "--out-descriptor", str(self.net),
                "--out-weights", str(self.dir / "net.bin")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        walls, times = [], []
        for _ in range(reps):
            proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *argv],
                                  env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=150)
            if proc.returncode != 0:
                raise BenchError(f"gen-network exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            wall, corrected = proc.stdout.strip().splitlines()[-1].split()
            walls.append(float(wall))
            times.append(float(corrected))
        if self.workload.reuse:
            self.reuse_ref = self._reuse_reference()
        return walls, times

    def _reuse_reference(self) -> tuple[int, int]:
        from epursim import arch, netio, sched
        layer_i, t, policy = self.workload.reuse
        net = netio.load_descriptor(self.net)
        layer = net.layers[layer_i]
        per_gate = sched.weight_buffer_read_bytes(
            layer, t, sched.Policy(policy), net.numeric_precision.elem_bytes,
            arch.HW_PRESETS["epur"]().row_buffer_bytes)
        return per_gate, layer.num_directions

    def op(self, tracer: Tracer | None = None) -> Op:
        if self.out.exists():
            self.out.unlink()
        gc.collect()
        if tracer:
            tracer.install()
        sink = io.StringIO()
        speed = HostSpeed()
        with redirect_stdout(sink), redirect_stderr(sink), \
                (nullcontext() if tracer else speed):
            c0, t0 = process_time(), perf_counter()
            try:
                if tracer:
                    rc = tracer.run_op(len(self.ops), self.cli.main, self.argv)
                else:
                    rc = self.cli.main(self.argv)
            except SystemExit as e:  # argparse rejects the command line
                rc = e.code
            except Exception:  # a traceback out of the CLI fails the op
                rc = "traceback: " + traceback.format_exc()
            wall = perf_counter() - t0
            cpu_seconds = process_time() - c0 - speed.spent
        if tracer:
            tracer.uninstall()
        try:
            doc = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        try:
            problems = gate(rc, doc, self.first, self.reuse_ref, self.expected)
            if doc is not None and self.first is None:
                self.first = modeled(doc)
        except (KeyError, TypeError, AttributeError) as e:
            problems = [f"report lacks {e!r}"]
        if problems:
            print(f"op {len(self.ops)} failed: {'; '.join(problems)}\n"
                  f"{sink.getvalue()[-2000:]}", file=sys.stderr)
        op = Op(speed.net(wall), cpu_seconds,
                None if tracer else speed.corrected(wall), problems, doc)
        self.ops.append(op)
        return op


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "q1": q[0], "median": statistics.median(xs),
            "q3": q[2], "samples": xs}


def provenance(seed: int) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def measure(cli, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """One run: (metric values, record, counts of attempted and failed ops)."""
    runner = Runner(cli, name, seed)
    setup_walls, setup_times = runner.setup(1 if trace else SETUP_REPS)
    runner.op()  # warm-up, untimed
    deadline = perf_counter() + seconds
    record: dict = {}
    if not trace:
        ops = []
        while not ops or perf_counter() < deadline:
            ops.append(runner.op())
        times = [op.corrected for op in ops]
        values = {
            "op_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["op_s"] = quartiles(times)
        record["op_wall_s"] = quartiles([op.seconds for op in ops])
        # process CPU time of the same ops; it leaves out time the host took
        # the CPU away, so a gap to op_wall_s shows steal
        record["op_cpu_s"] = quartiles([op.cpu_seconds for op in ops])
        record["setup_s"] = quartiles(setup_times)
        record["setup_wall_s"] = quartiles(setup_walls)
    else:
        tracer = Tracer()
        plain, traced, per_op = [], [], []
        while not traced or perf_counter() < deadline:
            plain.append(runner.op().seconds)
            traced.append(runner.op(tracer).seconds)
            per_op.append(tracer.op_metrics(len(runner.ops) - 1))
        names = sorted(set().union(*per_op))
        values = {m: statistics.median(op[m] for op in per_op) for m in names}
        # each traced op against the untraced op just before it, so slow
        # drifts of the host's speed cancel
        values["trace.overhead_s"] = statistics.median(
            t - p for p, t in zip(plain, traced))
        last = runner.ops[-1].doc
        if last is not None:
            values.update(arch_counters(last))
        record["op_wall_s"] = quartiles(plain)
        record["traced_op_wall_s"] = quartiles(traced)
        record["absent"] = sorted(tracer.absent)
        tracer.write_csv(OUT / f"spans-{name}.csv")
    if runner.first is not None:
        record["modeled"] = runner.first
        values.update(runner.first)
    failed = sum(1 for op in runner.ops if op.problems)
    counts = {"attempted": len(runner.ops), "failed": failed}
    record["fail_ratio"] = failed / len(runner.ops)
    return values, record, counts


def result_line(spec: dict, kind: str, values: dict, counts: dict) -> tuple[dict, list[str]]:
    """The final JSON object: the ``kind`` metrics of BENCHMARK.json with
    their units.  Also returns the declared metrics the run could not
    report; a missing end-to-end metric makes the run incorrect."""
    declared = {m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]}
    unknown = set(values) - declared
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()
               if n in values}
    correct = counts["failed"] == 0 and not (kind == "end_to_end" and missing)
    return {"correct": correct, **counts, "metrics": metrics}, missing


def run_one(cli, args) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    values, record, counts = measure(cli, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result, missing = result_line(spec, kind, values, counts)
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    info = {"workload": args.workload, "why": why, "trace": args.trace,
            "seconds": args.seconds, "provenance": provenance(args.seed),
            "absent_metrics": missing, **record, **counts}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    ok = True
    print(f"{'workload':<15} {'metric':<34} {'value':>18}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        for metric, m in res["metrics"].items():
            print(f"{name:<15} {metric:<34} {m['value']:>18.6g}  {m['unit']}")
        print(f"{name:<15} {'fail_ratio':<34} {res['failed'] / res['attempted']:>18.6g}  "
              f"({res['failed']} of {res['attempted']} ops)")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "epursim" / "cli.py").is_file():
        print(f"error: no epursim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # one thread for numpy's BLAS, set before numpy is first imported
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import epursim.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "epursim":
        print(f"error: imported epursim from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        return run_one(cli, args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
