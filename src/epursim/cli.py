"""Command-line front end.

Subcommands: gen-network, infer, simulate, analyze-reuse, compare,
quantize-sweep.  Every report embeds the fully resolved configuration, and
output files are written atomically (a failed run leaves nothing behind).

Exit codes: 0 ok, 2 usage, 3 parse/format, 4 I/O, 5 capacity,
6 numeric, 7 a built-in oracle or invariant check failed.
Set EPURSIM_LOG=debug|info|warning to control verbosity.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

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
    level = os.environ.get("EPURSIM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


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
        # activations are stored at the network's precision on chip
        seq = model.Sequence(loaded.frames.astype(
            net.numeric_precision.storage_dtype))
    else:
        seq = presets.random_sequence(net, args.synthetic_t, args.synthetic_seed)
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


def _traces(net: model.NetworkDescriptor, T: int, policy: sched.Policy,
            qcfg: quant.QuantConfig | None, row_buffer_bytes: int,
            only_layer: int | None = None) -> dict[int, list[sched.AccessTrace]]:
    """Per layer (all, or only ``only_layer``), one access trace per direction."""
    eb = net.numeric_precision.elem_bytes
    return {i: sched.layer_traces(layer, T, policy, eb, qcfg, row_buffer_bytes)
            for i, layer in enumerate(net.layers) if only_layer in (None, i)}


def _trace_csv(traces: dict[int, list[sched.AccessTrace]]) -> str:
    """The traces as CSV text, written from their columns."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["pass", "gate", "target", "object_id", "rw", "bytes", "t", "neuron"])
    for i, per_dir in traces.items():
        for d, trace in enumerate(per_dir):
            for gate in model.GATES:
                w.writerows([f"layer{i}.dir{d}", gate, target.value,
                             "/".join(map(str, oid)), rw, nbytes, t, j]
                            for target, oid, rw, nbytes, t, j
                            in trace.events[gate].rows(gate))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_network(args) -> int:
    precision = model.Precision(args.precision)
    if args.preset:
        net = presets.preset_descriptor(args.preset, precision)
        report = presets.preset_report(args.preset, precision)
    else:
        if not (args.layers and args.hidden):
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
    weights = presets.random_weights(net, args.seed)
    _write_atomic({args.out_descriptor: netio.descriptor_to_bytes(net),
                   args.out_weights: netio.weight_blob_chunks(net, weights)})
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


def _run_simulations(args, policies: list[sched.Policy]):
    """Simulate each policy with the inputs, hardware and quantization of args."""
    if not 0 < args.frames_per_second < math.inf:
        raise UsageError(f"--frames-per-second must be positive and finite, "
                         f"got {args.frames_per_second}")
    qcfg = _quant_config(args.quant_bits, args.alpha) if args.quantize else None
    net, weights, seq = _load_inputs(args)
    cfg = _hw_config(args)
    reports = [arch.simulate(net, weights, seq, policy, cfg, quant=qcfg,
                             quant_calibrate=args.calibrate,
                             frames_per_second=args.frames_per_second)
               for policy in policies]
    return net, weights, seq, reports


def _oracle_check(net, weights, seq, report) -> dict:
    oracle = model.network_infer(net, weights, seq)
    got = report.outputs.frames
    if report.exact_mode:
        ok = (got.shape == oracle.frames.shape
              and np.array_equal(got, oracle.frames))
        return {"mode": "bit-exact", "passed": bool(ok)}
    a = oracle.frames.astype(np.float64).ravel()
    b = got.astype(np.float64).ravel()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    cos = float(a @ b / denom) if denom > 0 else 1.0
    return {"mode": "cosine", "cosine_similarity": cos,
            "passed": bool(cos >= 0.999)}


def _checks_ok(*reports: arch.SimReport) -> bool:
    """True when every built-in invariant check of the reports holds; names
    the failed ones on stderr.  ``mu_bottleneck`` is a fault flag, not a
    check: it reads true when the fault is present."""
    failed = sorted({name for rep in reports for name, ok in rep.checks.items()
                     if name != "mu_bottleneck" and not ok})
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
    return not failed


def cmd_simulate(args) -> int:
    policy = sched.Policy(args.policy)
    net, weights, seq, (report,) = _run_simulations(args, [policy])
    doc = report.to_json()
    doc["oracle_check"] = _oracle_check(net, weights, seq, report)
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
    policy = sched.Policy(args.policy)
    # the design's partial width: 8-bit codes
    traces = _traces(net, args.t, policy, quant.QuantConfig(),
                     _hw_config(args).row_buffer_bytes, args.layer)
    doc = {"policy": policy.value, "sequence_length": args.t, "layers": []}
    for i, per_dir in traces.items():
        stats = [sched.reuse_analysis(tr) for tr in per_dir]
        doc["layers"].append({"layer": i, "directions": [
            {"direction": d, "stats": st.to_json(),
             "weight_storage_bytes": {g: st.weight_storage_bytes(g) for g in model.GATES}}
            for d, st in enumerate(stats)]})
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
    net, weights, seq, (rep_a, rep_b) = _run_simulations(args, [pol_a, pol_b])
    table = energy.EnergyTable()
    en_a = energy.account(rep_a, table)
    en_b = energy.account(rep_b, table)
    cmp_report = energy.compare(en_a, en_b)

    def side(rep):
        wb = rep.access.data[sched.Target.weight_buffer]
        return {"cycles": rep.cycles,
                "weight_buffer_read_bytes": wb["r"]["bytes"],
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
        "oracle_check_a": _oracle_check(net, weights, seq, rep_a),
        "oracle_check_b": _oracle_check(net, weights, seq, rep_b),
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
    net, weights, seq = _load_inputs(args)
    cfg = _hw_config(args)
    oracle = model.network_infer(net, weights, seq).frames.astype(np.float64)
    rows = []
    for qcfg in qcfgs:
        bits = qcfg.n_bits
        rep = arch.simulate(net, weights, seq, sched.Policy.mwl, cfg, quant=qcfg,
                            quant_calibrate=bool(args.calibrate))
        got = rep.outputs.frames.astype(np.float64)
        denom = float(np.linalg.norm(oracle) * np.linalg.norm(got))
        cos = float(oracle.ravel() @ got.ravel() / denom) if denom else 1.0
        rows.append({
            "n_bits": bits,
            "alpha": rep.pass_alphas or args.alpha,
            "quant_step": (qcfg.step if not rep.pass_alphas
                           else quant.QuantConfig(bits, max(rep.pass_alphas)).step),
            "max_abs_error": float(np.max(np.abs(got - oracle))),
            "cosine_similarity": cos,
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

def _add_io_args(p: argparse.ArgumentParser, need_weights=True) -> None:
    p.add_argument("--network", required=True, help="network descriptor JSON")
    if need_weights:
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="epursim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

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
    p.add_argument("--policy", choices=[pl.value for pl in sched.Policy],
                   default="conventional")
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
    p.add_argument("--policy", choices=[pl.value for pl in sched.Policy],
                   required=True)
    p.add_argument("--t", type=int, required=True, help="sequence length")
    p.add_argument("--layer", type=int, help="restrict to one layer index")
    p.add_argument("--trace-csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze_reuse)

    p = sub.add_parser("compare", help="run two policies and report ratios")
    _add_io_args(p)
    _add_hw_args(p)
    _add_quant_args(p)
    p.add_argument("--policy-a", default="conventional")
    p.add_argument("--policy-b", default="mwl")
    p.add_argument("--frames-per-second", type=float, default=100.0)
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
    _setup_logging()
    args = build_parser().parse_args(argv)
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
    except (arch.MuBottleneckError,) as e:
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


if __name__ == "__main__":
    sys.exit(main())
