"""Command-line front end.

Subcommands: gen-network, infer, simulate, analyze-reuse, compare,
quantize-sweep.  Every report embeds the fully resolved configuration, and
output files are written atomically (a failed run leaves nothing behind).

Exit codes: 0 ok, 2 usage, 3 parse/format, 4 I/O, 5 capacity (on chip, or
host memory), 6 numeric, 7 a built-in oracle or invariant check failed.
Set EPURSIM_LOG=debug|info|warning to control verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import pickle
import select
import signal
import sys
import tempfile
import warnings
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import arch, energy, model, netio, presets, quant, sched

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_CAPACITY = 5
EXIT_NUMERIC = 6
EXIT_CHECK = 7

log = logging.getLogger("epursim")


class UsageError(Exception):
    """A command-line value outside its documented range."""


def _setup_logging() -> None:
    """Logs at the EPURSIM_LOG level to the ``sys.stderr`` of this call, so
    that each in-process call of ``main`` logs to its own stream."""
    level = os.environ.get("EPURSIM_LOG", "warning").upper()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(getattr(logging, level, logging.WARNING))


def _check_seed(option: str, seed: int) -> None:
    if seed < 0:
        raise UsageError(f"{option} must be >= 0, got {seed}")


def _write_atomic(files: dict[str | Path, str | bytes | Iterable[bytes]]) -> None:
    """Write every output of a run, or none: each (text, bytes or byte
    chunks) goes to a temp file beside its path, and only when all are
    written do they move into place.  An OSError names the path it concerns;
    the files already moved are removed and no temp file is left."""
    paths = [Path(p) for p in files]
    temps: list[str] = []
    placed: list[Path] = []
    path = None
    try:
        for path, data in zip(paths, files.values()):
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
            temps.append(tmp)
            if isinstance(data, str):
                data = data.encode("utf-8")
            with os.fdopen(fd, "wb") as f:
                f.writelines([data] if isinstance(data, bytes) else data)
        for path, tmp in zip(paths, temps):
            os.replace(tmp, path)
            placed.append(path)
    except OSError as e:
        for done in placed:
            done.unlink(missing_ok=True)
        raise OSError(e.errno, e.strerror, str(path)) from e
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_inputs(args) -> tuple[model.NetworkDescriptor, model.NetworkWeights,
                                model.Sequence]:
    net = netio.load_descriptor(args.network)
    weights = netio.load_weights(net, args.weights)
    if args.input:
        loaded = netio.load_sequence(args.input)
        # activations are stored at the network's precision on chip; a value
        # past fp16's range becomes inf, which Sequence refuses (exit 6)
        with np.errstate(over="ignore"):
            frames = loaded.frames.astype(net.numeric_precision.storage_dtype)
        seq = model.Sequence(frames)
    else:
        _check_seed("--synthetic-seed", args.synthetic_seed)
        seq = presets.random_sequence(net, args.synthetic_t, args.synthetic_seed)
    if seq.dim != net.input_dim:
        raise model.ShapeError(f"input dim {seq.dim} != network input_dim {net.input_dim}")
    return net, weights, seq


def _hw_config(args) -> arch.HardwareConfig:
    """The --hw-preset config, with a --hw-config file merged over it."""
    cfg = arch.HW_PRESETS[args.hw_preset]()
    if args.hw_config:
        try:
            obj = json.loads(Path(args.hw_config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise arch.ConfigError(f"{args.hw_config}: not valid JSON: {e}") from e
        return arch.HardwareConfig.from_json(obj, base=cfg)
    return cfg


def _concurrently(calls: list[Callable[[], object]]) -> list:
    """The results of the zero-argument ``calls``, in call order.

    As many calls run at once as there are CPUs in this process's affinity:
    the caller runs calls itself and forks a child process for each of the
    rest, so that independent inference runs overlap without sharing one
    interpreter.  A call reaches its child through the fork; only its
    ``(ok, value)`` comes back, pickled through a pipe.  Between its own
    calls the caller collects the children that have finished.  With one
    CPU, or without ``os.fork``, every call runs on the caller.  The caller
    must run no other thread, since only the forking thread lives on in a
    child.

    When calls fail, the error of the first failing call in call order is
    raised; once a call fails, calls not yet started are skipped, since
    their errors could not be the one raised.  A child that ends without a
    result (killed by a signal, as by the kernel's OOM killer) raises
    MemoryError.  Every child is reaped before this returns or raises: on
    an error of the caller's own (KeyboardInterrupt included), the children
    still running are killed.
    """
    n_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    slots = n_cpus - 1 if hasattr(os, "fork") else 0
    outcomes: list[tuple[bool, object] | None] = [None] * len(calls)
    children: dict[int, tuple[int, int, list[bytes]]] = {}  # fd: (call, pid, chunks)

    def collect(timeout: float | None) -> bool:
        """Reads what the children have sent, reaping each one whose pipe
        is at its end; False when none was ready within ``timeout``."""
        ready, _, _ = select.select(list(children), [], [], timeout)
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                children[fd][2].append(chunk)
                continue
            i, pid, chunks = children.pop(fd)
            os.close(fd)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status == 0:
                outcomes[i] = pickle.loads(b"".join(chunks))
            else:
                how = (f"by signal {-status} ({signal.strsignal(-status)})" if status < 0
                       else f"with exit status {status}")
                outcomes[i] = (False, MemoryError(
                    f"run {i + 1} of {len(calls)} ended without a result, {how}"))
        return bool(ready)

    try:
        for i, call in enumerate(calls):
            while children and collect(0):
                pass
            if any(o is not None and not o[0] for o in outcomes):
                break
            if len(children) < slots and i < len(calls) - 1:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child(call, w)
                except OSError:
                    os.close(r)
                    raise
                finally:
                    os.close(w)  # the child's end; the child never gets here
                children[r] = (i, pid, [])
            else:
                try:
                    outcomes[i] = (True, call())
                except Exception as e:  # raised below, in call order
                    outcomes[i] = (False, e)
        while children:
            collect(None)
    finally:
        for fd, (_, pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    for o in outcomes:
        if o is not None and not o[0]:
            raise o[1]
    return [o[1] for o in outcomes]


def _child(call: Callable[[], object], w: int) -> NoReturn:
    """In a forked child: runs ``call``, writes its pickled ``(ok, value)``
    to the pipe ``w`` and ends the process, with no atexit handler or
    buffered output of the parent's run.  An error that cannot be pickled
    is sent as a RuntimeError with its type name and message."""
    status = 1
    try:
        try:
            outcome = (True, call())
        except Exception as e:
            outcome = (False, e)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[0]:
                pickle.loads(data)  # an exception may pickle but not unpickle
        except Exception as e:
            bad = e if outcome[0] else outcome[1]
            data = pickle.dumps((False, RuntimeError(f"{type(bad).__name__}: {bad}")))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _traces(net: model.NetworkDescriptor, T: int, policy: sched.Policy,
            qcfg: quant.QuantConfig | None, row_buffer_bytes: int,
            only_layer: int | None = None
            ) -> Iterator[tuple[int, list[sched.GateTrace]]]:
    """Per layer (all, or only ``only_layer``), its index and one access
    trace per direction, each layer's built only when it is reached."""
    eb = net.numeric_precision.elem_bytes
    return ((i, sched.layer_traces(layer, T, policy, eb, qcfg, row_buffer_bytes))
            for i, layer in enumerate(net.layers) if only_layer in (None, i))


# placeholders in a GateTrace's CSV rows: "pass,gate" at the start of a row,
# and the gate inside the object id
_CSV_PASS, _CSV_GATE = "\0", "\1"


def _gate_csv(gt: sched.GateTrace) -> str:
    """A GateTrace's CSV rows with the pass and gate left as placeholders.

    Every field comes from a small table of strings indexed by the columns,
    so no row is formatted on its own.
    """
    n_kinds = len(sched.KINDS)
    nums = [str(n) for n in range(max(int(gt.t.max()), int(gt.neuron.max())) + 1)]
    head = np.array([f"{_CSV_PASS},{tgt.value},{kind}/{_CSV_GATE}/"
                     for tgt in sched.TARGETS for kind in sched.KINDS], dtype=object)
    # a partial's object id also names its step
    t_id = np.array([f"/{n}" for n in nums] + [""], dtype=object)
    widths, width_idx = np.unique(gt.bytes, return_inverse=True)
    mid = np.array([f",{rw},{b}," for rw in sched.RW for b in widths.tolist()],
                   dtype=object)
    neuron = gt.neuron.astype(np.intp)
    fields = np.empty((len(gt), 6), dtype=object)
    fields[:, 0] = head[gt.target.astype(np.intp) * n_kinds + gt.kind]
    fields[:, 1] = np.array(nums, dtype=object)[neuron]
    fields[:, 2] = t_id[np.where(gt.kind == sched.KINDS.index("partial"),
                                 gt.t, len(nums))]
    fields[:, 3] = mid[gt.rw.astype(np.intp) * len(widths) + width_idx]
    fields[:, 4] = np.array([f"{n}," for n in nums], dtype=object)[gt.t]
    fields[:, 5] = np.array([f"{n}\n" for n in nums], dtype=object)[neuron]
    return "".join(fields.ravel().tolist())


def _trace_csv(traces: Iterable[tuple[int, list[sched.GateTrace]]]) -> Iterator[bytes]:
    """The traces as CSV, formatted from their columns: the header, then one
    chunk per pass and gate.

    A layer's directions and gates share one trace, so each layer's trace
    is formatted once and each gate's rows are that text with the pass and
    gate filled in.
    """
    yield b"pass,gate,target,object_id,rw,bytes,t,neuron\n"
    for i, per_dir in traces:
        text = _gate_csv(per_dir[0])
        for d in range(len(per_dir)):
            for gate in model.GATES:
                yield (text.replace(_CSV_PASS, f"layer{i}.dir{d},{gate}")
                       .replace(_CSV_GATE, gate).encode())


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_network(args) -> int:
    _check_seed("--seed", args.seed)
    precision = model.Precision(args.precision)
    if args.preset:
        net = presets.preset_descriptor(args.preset, precision)
        report = presets.preset_report(args.preset, precision)
    else:
        if args.layers is None or args.hidden is None:
            print("gen-network needs --preset or --layers/--hidden", file=sys.stderr)
            return EXIT_USAGE
        net = presets.custom_descriptor(args.layers, args.hidden,
                                        args.bidirectional, args.peephole,
                                        args.input_dim, precision)
        report = {
            "name": "custom",
            "footprint_bytes": model.network_weight_bytes(net),
            "single_layer_ratio": presets.single_layer_ratio(net)["ratio"],
        }
    _write_atomic({args.out_descriptor: netio.descriptor_to_bytes(net),
                   args.out_weights: netio.weight_blob_chunks(
                       net, presets.random_parts(net, args.seed))})
    report["seed"] = args.seed
    report["descriptor"] = netio.descriptor_to_json(net)
    print(json.dumps(report, indent=2))
    if "deviation_vs_reported" in report:
        log.info("footprint %.2f MiB vs published %.0f MB (%.1f%%, input dims assumed)",
                 report["footprint_mib"], report["reported_mb"],
                 100 * report["deviation_vs_reported"])
    return EXIT_OK


def cmd_infer(args) -> int:
    net, weights, seq = _load_inputs(args)
    out = model.network_infer(net, weights, seq)
    report = {
        "sequence_length": seq.length,
        "input_dim": seq.dim,
        "output_dim": out.dim,
        "network": netio.descriptor_to_json(net),
        "output_finite": bool(np.all(np.isfinite(out.frames))),
        "output_max_abs": float(np.max(np.abs(out.frames))),
    }
    outputs = {}
    if args.save_output:
        outputs[args.save_output] = netio.sequence_to_bytes(out)
        report["output_path"] = str(args.save_output)
    if args.out:
        outputs[args.out] = _json_text(report)
    _write_atomic(outputs)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["output_finite"] else EXIT_CHECK


def _quant_config(n_bits: int, alpha: float) -> quant.QuantConfig:
    try:
        return quant.QuantConfig(n_bits=n_bits, alpha=alpha)
    except ValueError as e:
        raise UsageError(e) from e


def _run_simulations(args, runs: list[tuple[sched.Policy, quant.QuantConfig | None]],
                     frames_per_second: float | None = None):
    """Simulate each (policy, quantization) run with the inputs and hardware
    of args, beside one oracle run.  Every cost model runs first, so a
    refused run starts no inference; the datapaths and the oracle are
    independent and run concurrently."""
    net, weights, seq = _load_inputs(args)
    cfg = _hw_config(args)
    reports = [arch.cost_model(net, seq.length, policy, cfg, qcfg, frames_per_second)
               for policy, qcfg in runs]
    *reports, oracle = _concurrently(
        [partial(arch.simulate, net, weights, seq, rep, args.calibrate)
         for rep in reports]
        + [lambda: model.network_infer(net, weights, seq).frames])
    return net, seq, reports, oracle


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two output sequences, in float64."""
    a = a.astype(np.float64).ravel()
    b = b.astype(np.float64).ravel()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b / denom) if denom > 0 else 1.0


def _oracle_check(oracle: np.ndarray, report) -> dict:
    """Every output of ``report`` against the reference frames ``oracle``:
    bit for bit in exact mode, by cosine similarity otherwise."""
    got = report.outputs.frames
    if report.exact_mode:
        ok = got.shape == oracle.shape and np.array_equal(got, oracle)
        return {"mode": "bit-exact", "passed": bool(ok)}
    cos = _cosine(oracle, got)
    return {"mode": "cosine", "cosine_similarity": cos,
            "passed": bool(cos >= 0.999)}


def _checks_ok(*reports: arch.SimReport) -> bool:
    """True when every built-in invariant check of the reports holds; names
    the failed ones on stderr."""
    failed = sorted({name for rep in reports for name, ok in rep.checks.items()
                     if not ok})
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
    return not failed


def cmd_simulate(args) -> int:
    policy = sched.Policy(args.policy)
    if not 0 < args.frames_per_second < math.inf:
        raise UsageError(f"--frames-per-second must be positive and finite, "
                         f"got {args.frames_per_second}")
    qcfg = _quant_config(args.quant_bits, args.alpha) if args.quantize else None
    net, seq, (report,), oracle = _run_simulations(args, [(policy, qcfg)],
                                                   args.frames_per_second)
    doc = report.to_json()
    doc["oracle_check"] = _oracle_check(oracle, report)
    if args.energy:
        doc["energy"] = energy.account(report, energy.EnergyTable()).to_json()
    outputs = {}
    if args.out:
        outputs[args.out] = _json_text(doc)
    if args.trace_csv:
        outputs[args.trace_csv] = _trace_csv(_traces(
            net, seq.length, policy, report.quant, report.config.row_buffer_bytes))
    _write_atomic(outputs)
    print(report.text_table())
    print(f"oracle check: {doc['oracle_check']}")
    ok = _checks_ok(report) and doc["oracle_check"]["passed"]
    return EXIT_OK if ok else EXIT_CHECK


def cmd_analyze_reuse(args) -> int:
    net = netio.load_descriptor(args.network)
    if args.layer is not None and not 0 <= args.layer < len(net.layers):
        raise UsageError(f"--layer must be in 0..{len(net.layers) - 1}, got {args.layer}")
    policy = sched.Policy(args.policy)
    # the design's partial width: 8-bit codes
    traces = list(_traces(net, args.t, policy, quant.QuantConfig(),
                          _hw_config(args).row_buffer_bytes, args.layer))
    doc = {"policy": policy.value, "sequence_length": args.t, "layers": []}
    for i, per_dir in traces:
        # a layer's directions and gates share one trace
        stats = sched.reuse_analysis(per_dir[0])
        result = {"stats": dict.fromkeys(model.GATES, {tgt.value: st.to_json()
                                                       for tgt, st in stats.items()}),
                  "weight_storage_bytes": dict.fromkeys(
                      model.GATES, sched.weight_storage_bytes(stats))}
        doc["layers"].append({"layer": i, "directions": [
            {"direction": d, **result} for d in range(len(per_dir))]})
    outputs = {}
    if args.out:
        outputs[args.out] = _json_text(doc)
    if args.trace_csv:
        outputs[args.trace_csv] = _trace_csv(traces)
    _write_atomic(outputs)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_compare(args) -> int:
    pol_a = sched.Policy(args.policy_a)
    pol_b = sched.Policy(args.policy_b)
    qcfg = _quant_config(args.quant_bits, args.alpha) if args.quantize else None
    _, _, (rep_a, rep_b), oracle = _run_simulations(args, [(pol_a, qcfg), (pol_b, qcfg)])
    table = energy.EnergyTable()
    en_a = energy.account(rep_a, table)
    en_b = energy.account(rep_b, table)
    cmp_report = energy.compare(en_a, en_b)

    def side(rep):
        return {"cycles": rep.cycles,
                "weight_buffer_read_bytes": rep.access[sched.Target.weight_buffer, "r"][1],
                "dram_bytes": rep.dram["total_bytes"]}

    a, b = side(rep_a), side(rep_b)
    doc = {
        "policy_a": pol_a.value,
        "policy_b": pol_b.value,
        "a": a,
        "b": b,
        "weight_buffer_read_ratio":
            b["weight_buffer_read_bytes"] / a["weight_buffer_read_bytes"],
        "cycle_ratio": b["cycles"] / a["cycles"],
        "energy": cmp_report.to_json(),
        "oracle_check_a": _oracle_check(oracle, rep_a),
        "oracle_check_b": _oracle_check(oracle, rep_b),
    }
    if args.out:
        _write_atomic({args.out: _json_text(doc)})
    width = 28
    print(f"{'metric':<{width}}  {pol_a.value:>14}  {pol_b.value:>14}  ratio")
    for key in ("cycles", "weight_buffer_read_bytes", "dram_bytes"):
        ratio = b[key] / a[key] if a[key] else float("inf")
        print(f"{key:<{width}}  {a[key]:>14,}  {b[key]:>14,}  {ratio:.4f}")
    print(f"{'total energy ratio':<{width}}  {'':>14}  {'':>14}  "
          f"{cmp_report.total_ratio:.4f}")
    ok = (_checks_ok(rep_a, rep_b) and doc["oracle_check_a"]["passed"]
          and doc["oracle_check_b"]["passed"])
    return EXIT_OK if ok else EXIT_CHECK


def cmd_quantize_sweep(args) -> int:
    if args.min_bits > args.max_bits:
        raise UsageError(f"--min-bits {args.min_bits} is above "
                         f"--max-bits {args.max_bits}")
    qcfgs = [_quant_config(bits, args.alpha)
             for bits in range(args.min_bits, args.max_bits + 1)]
    _, _, reports, oracle = _run_simulations(args, [(sched.Policy.mwl, q) for q in qcfgs])
    oracle = oracle.astype(np.float64)
    rows = []
    for qcfg, rep in zip(qcfgs, reports):
        bits = qcfg.n_bits
        got = rep.outputs.frames.astype(np.float64)
        rows.append({
            "n_bits": bits,
            "alpha": rep.pass_alphas or args.alpha,
            "quant_step": (qcfg.step if not rep.pass_alphas
                           else quant.QuantConfig(bits, max(rep.pass_alphas)).step),
            "max_abs_error": float(np.max(np.abs(got - oracle))),
            "cosine_similarity": _cosine(oracle, got),
        })
    doc = {"calibrated": bool(args.calibrate), "sweep": rows}
    if args.out:
        _write_atomic({args.out: _json_text(doc)})
    print(f"{'bits':>4}  {'step':>12}  {'max |err|':>12}  {'cosine':>10}")
    for r in rows:
        print(f"{r['n_bits']:>4}  {r['quant_step']:>12.5g}  "
              f"{r['max_abs_error']:>12.5g}  {r['cosine_similarity']:>10.7f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network descriptor JSON")
    p.add_argument("--weights", required=True, help="weight blob")
    p.add_argument("--input", help="input sequence (.bin or .csv)")
    p.add_argument("--synthetic-t", type=int, default=16,
                   help="frames of synthetic input when --input is omitted")
    p.add_argument("--synthetic-seed", type=int, default=0)


def _add_hw_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hw-preset", choices=sorted(arch.HW_PRESETS), default="epur",
                   help="hardware parameter preset")
    p.add_argument("--hw-config", help="hardware config JSON (overrides preset)")


def _add_quant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantize", action="store_true",
                   help="quantize MWL partial outputs")
    p.add_argument("--quant-bits", type=int, default=8)
    p.add_argument("--alpha", type=float, default=20.0,
                   help="clamp magnitude when calibration is off")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate the clamp magnitude on the input sequence")


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one ``usage error:`` line and exit 2;
    ``--help`` still prints the usage.  Subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="epursim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    policies = [pl.value for pl in sched.Policy]

    p = sub.add_parser("gen-network", help="emit a descriptor and weight blob")
    p.add_argument("--preset", help="named network preset "
                   f"({', '.join(p.name for p in presets.PRESETS.values())})")
    p.add_argument("--layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--peephole", action="store_true")
    p.add_argument("--precision", choices=["fp32", "fp16"], default="fp32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-descriptor", required=True)
    p.add_argument("--out-weights", required=True)
    p.set_defaults(func=cmd_gen_network)

    p = sub.add_parser("infer", help="run the reference model only")
    _add_io_args(p)
    p.add_argument("--save-output", help="write the output sequence (.bin)")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="run the cycle-level simulator")
    _add_io_args(p)
    _add_hw_args(p)
    _add_quant_args(p)
    p.add_argument("--policy", choices=policies, default="conventional")
    p.add_argument("--frames-per-second", type=float, default=100.0,
                   help="input frame rate for the real-time bandwidth figure")
    p.add_argument("--energy", action="store_true",
                   help="embed an energy report (default cost table)")
    p.add_argument("--trace-csv", help="also dump the access trace as CSV")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze-reuse", help="reuse-distance analysis of a schedule")
    p.add_argument("--network", required=True)
    _add_hw_args(p)
    p.add_argument("--policy", choices=policies, required=True)
    p.add_argument("--t", type=int, required=True, help="sequence length")
    p.add_argument("--layer", type=int, help="restrict to one layer index")
    p.add_argument("--trace-csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze_reuse)

    p = sub.add_parser("compare", help="run two policies and report ratios")
    _add_io_args(p)
    _add_hw_args(p)
    _add_quant_args(p)
    p.add_argument("--policy-a", choices=policies, default="conventional")
    p.add_argument("--policy-b", choices=policies, default="mwl")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("quantize-sweep", help="bit-width sweep of MWL quantization")
    _add_io_args(p)
    _add_hw_args(p)
    p.add_argument("--min-bits", type=int, default=4)
    p.add_argument("--max-bits", type=int, default=12)
    p.add_argument("--alpha", type=float, default=20.0)
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Runs one command and returns its exit code.  An error prints one
    line.  The command's warnings are recorded and each distinct message
    prints once, as ``warning: <message>``, only when the command exits 0,
    so a failing run still prints its one line.  A warning raised in a run
    forked by ``_concurrently`` ends with that process; none of them warns."""
    _setup_logging()
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run(args)
    if rc == EXIT_OK:
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    return rc


def _run(args) -> int:
    """The command's exit code, with each error mapped to its one line."""
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (netio.FormatError, arch.ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except arch.CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as e:
        print(f"host memory error: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CAPACITY
    except arch.MuBottleneckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except model.NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except model.ShapeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
