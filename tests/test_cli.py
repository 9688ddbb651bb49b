import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import random
import re
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import random_weights, read_frames, save_descriptor, save_weights
from epursim import arch, cli, model, netio, presets, quant, sched

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


def run_module(*argv, module="epursim", **env):
    """``python -m epursim`` (or another ``module``) in a new process, on
    this checkout's package."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture()
def gen(tmp_path):
    """Generate a small custom network and synthetic input on disk."""
    desc = tmp_path / "net.json"
    blob = tmp_path / "net.bin"
    rc = run_cli("gen-network", "--layers", "1", "--hidden", "16",
                 "--peephole", "--seed", "3",
                 "--out-descriptor", str(desc), "--out-weights", str(blob))
    assert rc == cli.EXIT_OK
    return desc, blob


class TestGenNetwork:
    def test_seed_determinism(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            desc = tmp_path / f"{tag}.json"
            blob = tmp_path / f"{tag}.bin"
            rc = run_cli("gen-network", "--preset", "ldlrnn", "--seed", "7",
                         "--out-descriptor", str(desc), "--out-weights", str(blob))
            assert rc == cli.EXIT_OK
            paths.append((desc, blob))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_eesen_preset_shape(self, tmp_path, capsys):
        rc = run_cli("gen-network", "--preset", "eesen",
                     "--out-descriptor", str(tmp_path / "n.json"),
                     "--out-weights", str(tmp_path / "n.bin"))
        assert rc == cli.EXIT_OK
        doc = json.loads((tmp_path / "n.json").read_text())
        assert len(doc["layers"]) == 5
        assert all(l["hidden_size"] == 320 for l in doc["layers"])
        assert all(l["direction"] == "bidirectional" for l in doc["layers"])
        assert all(l["peephole"] for l in doc["layers"])
        report = json.loads(capsys.readouterr().out)
        assert report["reported_mb"] == 42

    def test_ldlrnn_footprint_within_2x(self, tmp_path, capsys):
        rc = run_cli("gen-network", "--preset", "ldlrnn",
                     "--out-descriptor", str(tmp_path / "n.json"),
                     "--out-weights", str(tmp_path / "n.bin"))
        assert rc == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["footprint_mib"] == pytest.approx(1.0, rel=1.0)

    def test_unknown_preset(self, tmp_path):
        rc = run_cli("gen-network", "--preset", "nope",
                     "--out-descriptor", str(tmp_path / "n.json"),
                     "--out-weights", str(tmp_path / "n.bin"))
        assert rc == cli.EXIT_PARSE

    FOOTPRINT = ("INFO epursim: footprint 1.00 MiB vs published 1 MB (0.4%, "
                 "input dims assumed)")

    def test_info_log_goes_to_the_stderr_of_each_call(self, tmp_path, monkeypatch):
        # in-process callers (perfbench, scripts/output_identity.py) redirect
        # stderr around each call of main
        monkeypatch.setenv("EPURSIM_LOG", "info")
        streams = [io.StringIO(), io.StringIO()]
        for i, err in enumerate(streams):
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                assert run_cli("gen-network", "--preset", "ldlrnn",
                               "--out-descriptor", str(tmp_path / f"{i}.json"),
                               "--out-weights", str(tmp_path / f"{i}.bin")) == cli.EXIT_OK
        for err in streams:
            assert [line for line in err.getvalue().splitlines()
                    if "footprint" in line] == [self.FOOTPRINT]

    def test_info_log_line_once_in_a_new_process(self, tmp_path):
        proc = run_module("gen-network", "--preset", "ldlrnn",
                          "--out-descriptor", str(tmp_path / "n.json"),
                          "--out-weights", str(tmp_path / "n.bin"), EPURSIM_LOG="info")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr.splitlines() == [self.FOOTPRINT]

    @pytest.mark.parametrize("einsum_in_order, kernels", [
        (True, "einsum, unfused and in ascending k"),
        (False, "multiply-and-add (einsum failed the import probe)")])
    def test_debug_log_names_the_dot_kernels(self, tmp_path, monkeypatch, capsys,
                                             einsum_in_order, kernels):
        monkeypatch.setattr(cli.model, "EINSUM_IN_ORDER", einsum_in_order)
        argv = ["gen-network", "--layers", "1", "--out-descriptor", str(tmp_path / "n.json"),
                "--out-weights", str(tmp_path / "n.bin")]
        monkeypatch.setenv("EPURSIM_LOG", "debug")
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[0] == f"DEBUG epursim: dot kernels: {kernels}"
        monkeypatch.delenv("EPURSIM_LOG")
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert "dot kernels" not in capsys.readouterr().err

    def test_debug_log_names_the_numpy_build_and_simd_tier(self, tmp_path, monkeypatch,
                                                            capsys):
        # output bits depend on numpy's build and SIMD tier; numpy is asked
        # for them only at debug level, and what it prints stays off stdout
        argv = ["gen-network", "--layers", "1", "--out-descriptor", str(tmp_path / "n.json"),
                "--out-weights", str(tmp_path / "n.bin")]
        monkeypatch.setenv("EPURSIM_LOG", "debug")
        assert run_cli(*argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"DEBUG epursim: numpy {re.escape(np.__version__)}, "
                            r"SIMD baseline \w[\w ]*, found \w[\w ]*", err.splitlines()[1])
        shown = []
        monkeypatch.setattr(np, "show_runtime", lambda: shown.append(True))
        monkeypatch.setenv("EPURSIM_LOG", "info")
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert "numpy" not in capsys.readouterr().err and not shown

    def test_debug_log_says_unknown_without_a_simd_tier(self, tmp_path, monkeypatch,
                                                        capsys):
        # a numpy whose runtime report names no SIMD extensions
        monkeypatch.setattr(np, "show_runtime", lambda: None)
        monkeypatch.setenv("EPURSIM_LOG", "debug")
        assert run_cli("gen-network", "--layers", "1", "--out-descriptor",
                       str(tmp_path / "n.json"), "--out-weights",
                       str(tmp_path / "n.bin")) == cli.EXIT_USAGE
        assert (f"DEBUG epursim: numpy {np.__version__}, SIMD baseline unknown, found unknown"
                in capsys.readouterr().err.splitlines())

    def test_module_entry_point_prints_help(self):
        proc = run_module("--help")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.startswith("usage: epursim ")

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--synthetic-t", "2"]])
    def test_cli_module_is_refused_with_one_line(self, argv):
        # python -m epursim is the one module entry point; running the cli
        # module used to print nothing and exit 0
        proc = run_module(*argv, module="epursim.cli")
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("usage error: ")
        assert proc.stderr.endswith("; run python -m epursim\n")


class TestInfer:
    def test_oracle_run_and_output(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "h.bin"
        rc = run_cli("infer", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "4", "--save-output", str(out),
                     "--out", str(tmp_path / "report.json"))
        assert rc == cli.EXIT_OK
        assert read_frames(out).shape == (4, 16)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["output_finite"]

    @pytest.mark.parametrize("cmd", ["infer", "simulate"])
    def test_non_finite_output_exits_6(self, tmp_path, capsys, cmd):
        # each input.w_x row sums 3e38 + 3e38 (inf in fp32) and then adds
        # -3e38 * 2 (-inf): the first hidden state is NaN.  Both commands
        # name the layer.
        layer = model.LayerDescriptor(2, 4)
        net = model.NetworkDescriptor((layer,), input_dim=4)

        def value_of(name, shape):
            arr = np.zeros(shape, np.float32)
            if name == "input.w_x":
                arr[:] = [3e38, 3e38, -3e38, -3e38]
            return arr

        desc, blob, frames = tmp_path / "net.json", tmp_path / "net.bin", tmp_path / "x.csv"
        save_descriptor(net, desc)
        save_weights(net, [[model.WeightSet(layer, model.Precision.fp32, value_of)]], blob)
        frames.write_text("1,1,2,2\n", encoding="utf-8")
        rc = run_cli(cmd, "--network", str(desc), "--weights", str(blob),
                     "--input", str(frames))
        assert rc == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric error: layer 0: sequence contains non-finite values\n"


class TestSimulate:
    @pytest.mark.parametrize("policy", ["conventional", "mwl"])
    def test_exact_mode_passes_oracle_check(self, gen, tmp_path, policy, capsys):
        desc, blob = gen
        out = tmp_path / "sim.json"
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--policy", policy,
                     "--energy", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["oracle_check"]["passed"]
        assert doc["oracle_check"]["mode"] == "bit-exact"
        assert doc["hardware"]["dpu_width"] == 16  # resolved config embedded
        assert doc["energy"]["total"] > 0

    def test_quantized_run_reports_cosine(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "sim.json"
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--policy", "mwl",
                     "--quantize", "--calibrate", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["oracle_check"]["mode"] == "cosine"
        assert doc["oracle_check"]["cosine_similarity"] >= 0.999

    @pytest.fixture()
    def zero_output(self, tmp_path):
        """A quantized simulate whose datapath outputs only zeros: a 1x16
        forward-only network over 3 inputs whose arrays are all zero but the
        forward matrices.  At 2 bits and alpha 20 the quantization step is
        20, so every partial reads back as 0, while the oracle's outputs are
        not zero."""
        net = presets.custom_descriptor(1, 16, False, False, 3)
        desc, blob = tmp_path / "zero.json", tmp_path / "zero.bin"
        save_descriptor(net, desc)
        parts = ((name, arr if name.endswith(".w_x") else np.zeros_like(arr))
                 for name, arr in presets.random_parts(net, 1))
        with blob.open("wb") as f:
            f.writelines(netio.weight_blob_chunks(net, parts))
        return ["simulate", "--network", str(desc), "--weights", str(blob),
                "--synthetic-t", "4", "--policy", "mwl", "--quantize",
                "--quant-bits", "2", "--alpha", "20"]

    def test_all_zero_output_fails_the_cosine_check(self, zero_output, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert run_cli(*zero_output, "--out", str(out)) == cli.EXIT_CHECK
        assert capsys.readouterr().err == \
            "check failed: oracle_check (cosine 0.0000 < 0.999)\n"
        assert json.loads(out.read_text())["oracle_check"] == {
            "mode": "cosine", "cosine_similarity": 0.0, "passed": False}

    @pytest.mark.parametrize("cos,rc,err", [
        (0.999, cli.EXIT_OK, ""),
        (float(np.nextafter(0.999, 0)), cli.EXIT_CHECK,
         "check failed: oracle_check (cosine 0.9990 < 0.999)\n"),
    ], ids=["at", "below"])
    def test_cosine_check_at_its_bound(self, gen, monkeypatch, capsys, cos, rc, err):
        # the README's bound is 0.999, and a run that reaches it passes
        monkeypatch.setattr(cli, "_cosine", lambda a, b: cos)
        desc, blob = gen
        assert run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "5", "--policy", "mwl", "--quantize") == rc
        assert capsys.readouterr().err == err

    def test_trace_csv(self, gen, tmp_path):
        desc, blob = gen
        csv_path = tmp_path / "trace.csv"
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "2", "--policy", "mwl",
                     "--trace-csv", str(csv_path))
        assert rc == cli.EXIT_OK
        header, first = csv_path.read_text().splitlines()[:2]
        assert header == "pass,gate,target,object_id,rw,bytes,t,neuron"
        assert first.startswith("layer0.dir0,input,")

    @pytest.mark.parametrize("quant", [(), ("--quantize", "--quant-bits", "12")])
    def test_trace_csv_partials_match_report(self, gen, tmp_path, quant):
        desc, blob = gen
        out, csv_path = tmp_path / "sim.json", tmp_path / "trace.csv"
        T, seq_bytes = 4, 4 * 16 * 4  # one 16-wide fp32 sequence of 4 frames
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", str(T), "--policy", "mwl", *quant,
                     "--trace-csv", str(csv_path), "--out", str(out))
        assert rc == cli.EXIT_OK
        with csv_path.open(newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["target"] == "intermediate_memory"]
        traced = {rw: sum(int(r["bytes"]) for r in rows if r["rw"] == rw)
                  for rw in ("r", "w")}
        doc = json.loads(out.read_text())
        im = doc["access_counts"]["intermediate_memory"]
        # beside the partials, the report counts the input sequence's staging
        # and read, and the h_t write-back
        assert traced["w"] == im["w"]["bytes"] - 2 * seq_bytes
        assert traced["r"] == im["r"]["bytes"] - seq_bytes
        assert traced["w"] == doc["storage"]["partial_store_hwm"] > 0

    def test_conventional_quantize_is_exact_mode(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "sim.json"
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--policy", "conventional",
                     "--quantize", "--quant-bits", "12", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["exact_mode"] is True
        assert doc["quant"] is None
        assert doc["oracle_check"] == {"mode": "bit-exact", "passed": True}

    def test_mwl_preset(self, gen, tmp_path):
        desc, blob = gen
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "3", "--policy", "mwl",
                     "--hw-preset", "epur-mwl")
        assert rc == cli.EXIT_OK

    def test_malformed_descriptor_no_partial_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        out = tmp_path / "report.json"
        rc = run_cli("simulate", "--network", str(bad), "--weights", str(bad),
                     "--out", str(out))
        assert rc == cli.EXIT_PARSE
        assert not out.exists()

    def test_capacity_error_exit_code(self, tmp_path):
        desc = tmp_path / "net.json"
        blob = tmp_path / "net.bin"
        run_cli("gen-network", "--layers", "1", "--hidden", "512", "--seed", "1",
                "--out-descriptor", str(desc), "--out-weights", str(blob))
        hw = tmp_path / "hw.json"
        cfg = dataclasses.asdict(arch.HardwareConfig())
        cfg["weight_mem_bytes_per_cu"] = 2**20
        hw.write_text(json.dumps(cfg), encoding="utf-8")
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "2", "--hw-config", str(hw))
        assert rc == cli.EXIT_CAPACITY


class TestAnalyzeReuse:
    def test_stats_json(self, gen, tmp_path):
        desc, _ = gen
        out = tmp_path / "reuse.json"
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "4", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        gate = doc["layers"][0]["directions"][0]["stats"]["input"]
        assert gate["row_buffer"]["max_reuse_distance"] == 16 * 4
        assert gate["weight_buffer"]["max_reuse_distance"] == 16 * 16 * 4

    def test_eesen_layer1_mwl(self, tmp_path):
        net = presets.preset_descriptor("eesen")
        desc, out = tmp_path / "eesen.json", tmp_path / "reuse.json"
        save_descriptor(net, desc)
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "50", "--layer", "1", "--out", str(out))
        assert rc == cli.EXIT_OK
        (layer,) = json.loads(out.read_text())["layers"]
        want = sched.weight_buffer_read_bytes(net.layers[1], 50, sched.Policy.mwl)
        storage = 0
        for direction in layer["directions"]:
            for g in model.GATES:
                assert direction["stats"][g]["weight_buffer"]["read_bytes"] == want
                storage += direction["weight_storage_bytes"][g]
        # per gate and direction: the 320x320 recurrent matrix plus one
        # 640-wide forward row, in fp32
        assert storage == 2 * 4 * (320 * 320 + 640) * 4 == 3_297_280

    @pytest.mark.parametrize("policy", ["conventional", "mwl"])
    def test_forward_row_of_2_gib(self, tmp_path, policy):
        # a 2**29-wide fp32 forward row is 2**31 bytes; the trace has a few events
        desc, out = tmp_path / "net.json", tmp_path / "reuse.json"
        desc.write_text(json.dumps({"input_dim": 2**29, "layers": [
            {"hidden_size": 1, "input_size": 2**29}]}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the row-buffer fallback
            rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", policy,
                         "--t", "1", "--out", str(out))
        assert rc == cli.EXIT_OK
        (direction,) = json.loads(out.read_text())["layers"][0]["directions"]
        for g in model.GATES:
            assert direction["stats"][g]["weight_buffer"]["read_bytes"] == 2**31 + 4

    def test_trace_csv_golden(self, tmp_path, capsys):
        """A layer whose 4400-byte forward rows overflow the row buffer, then
        a bidirectional layer whose rows are pinned; the CSV as recorded
        from the event-list implementation the columnar traces replaced."""
        desc, csv_path = tmp_path / "net.json", tmp_path / "trace.csv"
        desc.write_text(json.dumps({"input_dim": 1100, "layers": [
            {"hidden_size": 1, "input_size": 1100},
            {"hidden_size": 1, "input_size": 1, "direction": "bidirectional"}]}),
            encoding="utf-8")
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "2", "--trace-csv", str(csv_path))
        assert rc == cli.EXIT_OK
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: forward row (4400 B) exceeds the row buffer")
        golden = (DATA / "trace_mwl_t2.csv").read_bytes()
        assert csv_path.read_bytes() == golden
        # the README documents the header
        header = golden.decode().splitlines()[0]
        assert f"**Trace CSV** (`--trace-csv`): `{header}`." in README.read_text()

    def test_one_layer_trace_alive_at_a_time(self, tmp_path, monkeypatch):
        # each layer's trace is built when its stats are computed and
        # dropped before the next is built; the CSV builds them again while
        # it is written, holding at most the one before
        desc = tmp_path / "net.json"
        save_descriptor(model.NetworkDescriptor(
            tuple(model.LayerDescriptor(4, 4) for _ in range(3)), input_dim=4), desc)
        real, built, alive = sched.layer_traces, [], []

        def layer_traces(*args):
            alive.append(sum(ref() is not None for ref in built))
            traces = real(*args)
            built.append(weakref.ref(traces[0]))
            return traces

        monkeypatch.setattr(sched, "layer_traces", layer_traces)
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "3", "--trace-csv", str(tmp_path / "trace.csv"))
        assert rc == cli.EXIT_OK
        assert alive == [0, 0, 0, 0, 1, 1]


class TestCompare:
    def test_square_layer_access_ratio_prints_half(self, tmp_path, capsys):
        desc = tmp_path / "net.json"
        blob = tmp_path / "net.bin"
        run_cli("gen-network", "--layers", "1", "--hidden", "32", "--seed", "2",
                "--out-descriptor", str(desc), "--out-weights", str(blob))
        out = tmp_path / "cmp.json"
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "50", "--policy-a", "conventional",
                     "--policy-b", "mwl", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["weight_buffer_read_ratio"] == pytest.approx(0.5, abs=0.05)
        assert "weight_buffer_read_bytes" in capsys.readouterr().out

    def test_quantize_applies_to_the_mwl_side(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "cmp.json"
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--policy-a", "conventional",
                     "--policy-b", "mwl", "--quantize", "--calibrate",
                     "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["oracle_check_a"]["mode"] == "bit-exact"
        assert doc["oracle_check_b"]["mode"] == "cosine"

    def test_failed_oracle_check_is_named(self, tmp_path, capsys):
        desc, blob = tmp_path / "net.json", tmp_path / "net.bin"
        assert run_cli("gen-network", "--layers", "2", "--hidden", "16", "--input-dim", "10",
                       "--seed", "2", "--out-descriptor", str(desc),
                       "--out-weights", str(blob)) == cli.EXIT_OK
        capsys.readouterr()
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "20", "--quantize", "--quant-bits", "6")
        assert rc == cli.EXIT_CHECK
        assert capsys.readouterr().err == \
            "check failed: oracle_check_b (cosine 0.9336 < 0.999)\n"

    def test_failed_checks_share_one_line(self, capsys):
        reports = [{"checks": {"dram_counters_consistent": True}},
                   {"checks": {"dram_counters_consistent": False}}]
        assert not cli._checks_ok(reports, {
            "oracle_check_a": {"mode": "bit-exact", "passed": False},
            "oracle_check_b": {"mode": "cosine", "cosine_similarity": 0.99, "passed": True}})
        assert capsys.readouterr().err == \
            "check failed: dram_counters_consistent, oracle_check_a (bit-exact)\n"

    def test_one_oracle_run_serves_both_sides(self, gen, tmp_path, monkeypatch):
        # counted in a file, which a run in a forked child writes to as
        # well: three runs in all, two of them datapaths
        real_simulate = arch.simulate
        calls = tmp_path / "calls"

        def simulate(net, weights, seq, reports, swap):
            with open(calls, "a") as f:
                for r in swap.runs:
                    f.write("oracle\n" if reports[r] is None else "datapath\n")
            return real_simulate(net, weights, seq, reports, swap)

        monkeypatch.setattr(arch, "simulate", simulate)
        desc, blob = gen
        out = tmp_path / "cmp.json"
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--out", str(out))
        assert rc == cli.EXIT_OK
        assert sorted(calls.read_text().splitlines()) == ["datapath", "datapath", "oracle"]
        doc = json.loads(out.read_text())
        assert doc["oracle_check_a"] == doc["oracle_check_b"] == \
            {"mode": "bit-exact", "passed": True}

    def test_exact_compare_holds_under_numpy_baseline_simd_tier(self, tmp_path, capsys):
        # numpy picks its exp and tanh code by the CPU's SIMD tier: the
        # datapath and the oracle agree bit for bit under the baseline tier
        # too, on whichever dot kernel the import probe picks there.  Only
        # the features above the baseline may be disabled: numpy refuses to
        # import without a baseline one.
        try:
            above = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        except (TypeError, KeyError):  # a numpy without the dicts mode
            above = []
        if not above:
            pytest.skip("numpy names no SIMD feature above its baseline")
        desc, blob, out = tmp_path / "net.json", tmp_path / "net.bin", tmp_path / "cmp.json"
        assert run_cli("gen-network", "--layers", "2", "--hidden", "8", "--input-dim", "4",
                       "--bidirectional", "--peephole", "--precision", "fp16",
                       "--seed", "6", "--out-descriptor", str(desc),
                       "--out-weights", str(blob)) == cli.EXIT_OK
        capsys.readouterr()
        proc = run_module("compare", "--network", str(desc), "--weights", str(blob),
                          "--synthetic-t", "12", "--out", str(out),
                          NPY_DISABLE_CPU_FEATURES=" ".join(above))
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["oracle_check_a"] == doc["oracle_check_b"] == \
            {"mode": "bit-exact", "passed": True}


class TestQuantizeSweep:
    def test_sweep_runs_and_improves_with_bits(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "sweep.json"
        rc = run_cli("quantize-sweep", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "4", "--min-bits", "4", "--max-bits", "10",
                     "--calibrate", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        errs = [row["max_abs_error"] for row in doc["sweep"]]
        assert errs[-1] <= errs[0]


class TestFieldRelations:
    """Output fields that no golden pins, each against the same figure
    reached another way."""

    def test_compare_sides_are_the_simulate_reports(self, gen, tmp_path):
        desc, blob = gen
        io_args = ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "4",
                   "--quantize", "--quant-bits", "8", "--calibrate"]
        assert run_cli("compare", *io_args, "--out", str(tmp_path / "cmp.json")) == \
            cli.EXIT_OK
        doc = json.loads((tmp_path / "cmp.json").read_text())
        for side, policy in (("a", "conventional"), ("b", "mwl")):
            out = tmp_path / f"{policy}.json"
            assert run_cli("simulate", *io_args, "--policy", policy,
                           "--out", str(out)) == cli.EXIT_OK
            rep = json.loads(out.read_text())
            assert doc[side] == {
                "cycles": rep["cycles"],
                "weight_buffer_read_bytes":
                    rep["access_counts"]["weight_buffer"]["r"]["bytes"],
                "dram_bytes": rep["dram"]["total_bytes"]}
        assert doc["a"] != doc["b"]
        assert doc["cycle_ratio"] == doc["b"]["cycles"] / doc["a"]["cycles"]

    def test_infer_max_abs_is_the_saved_outputs(self, gen, tmp_path):
        desc, blob = gen
        saved, out = tmp_path / "out.bin", tmp_path / "infer.json"
        assert run_cli("infer", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "4", "--synthetic-seed", "2",
                       "--save-output", str(saved), "--out", str(out)) == cli.EXIT_OK
        frames = read_frames(saved)
        assert -frames.min() > frames.max() > 0  # the largest value is not the answer
        assert json.loads(out.read_text())["output_max_abs"] == -float(frames.min())

    def test_sweep_alphas_are_the_simulate_alphas(self, tmp_path, monkeypatch):
        # on 2 CPUs each run's directions are in two processes, and the
        # sweep's rows reassemble their alphas as simulate's report does
        TestConcurrently.cpus(monkeypatch, 2)
        _, argv = TestConcurrently.network(tmp_path, (8, True), (10, False), (6, True))
        out = tmp_path / "sweep.json"
        assert run_cli("quantize-sweep", *argv, "--min-bits", "6", "--max-bits", "8",
                       "--calibrate", "--out", str(out)) == cli.EXIT_OK
        rows = json.loads(out.read_text())["sweep"]
        assert [row["n_bits"] for row in rows] == [6, 7, 8]
        for row in rows:
            rep = tmp_path / f"sim{row['n_bits']}.json"
            assert run_cli("simulate", *argv, "--policy", "mwl", "--quantize",
                           "--quant-bits", str(row["n_bits"]), "--calibrate",
                           "--out", str(rep)) == cli.EXIT_OK
            alphas = json.loads(rep.read_text())["quant"]["pass_alphas"]
            assert len(alphas) == 5
            assert row["alpha"] == alphas

    @pytest.mark.parametrize("calibrate", [False, True])
    def test_sweep_errors_are_the_datapaths_against_the_oracle(self, gen, tmp_path,
                                                               calibrate):
        # each row's cosine is simulate's oracle cosine at that width, and
        # its max |err| the largest |datapath - oracle|, with the datapath
        # run in process and the oracle infer's saved output
        desc, blob = gen
        io_args = ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "5"]
        flag = ["--calibrate"] if calibrate else []
        sweep, saved = tmp_path / "sweep.json", tmp_path / "oracle.bin"
        assert run_cli("quantize-sweep", *io_args, "--min-bits", "5", "--max-bits", "7",
                       *flag, "--out", str(sweep)) == cli.EXIT_OK
        assert run_cli("infer", *io_args, "--save-output", str(saved)) == cli.EXIT_OK
        oracle = read_frames(saved).astype(np.float64)
        net = netio.load_descriptor(desc)
        rows = json.loads(sweep.read_text())["sweep"]
        # only the calibrated 7-bit run passes the cosine bound
        assert [row["n_bits"] for row in rows] == [5, 6, 7]
        for row in rows:
            bits = row["n_bits"]
            rep = tmp_path / f"sim{bits}.json"
            rc = run_cli("simulate", *io_args, "--policy", "mwl", "--quantize",
                         "--quant-bits", str(bits), *flag, "--out", str(rep))
            cos = json.loads(rep.read_text())["oracle_check"]["cosine_similarity"]
            assert row["cosine_similarity"] == cos
            assert rc == (cli.EXIT_OK if cos >= cli.COSINE_BOUND else cli.EXIT_CHECK)
            # the CLI's default hardware preset and --alpha
            report = arch.cost_model(net, 5, sched.Policy.mwl, arch.HW_PRESETS["epur"](),
                                     quant.QuantConfig(bits, 20.0))
            report["quant"]["calibrated_per_pass"] = calibrate
            with netio.load_weights(net, blob) as weights:
                ((_, got),) = arch.simulate(net, weights, presets.random_sequence(net, 5, 0),
                                            [report])
            err = np.abs(got.frames.astype(np.float64) - oracle)
            assert row["max_abs_error"] == float(err.max()) > 0


class TestBoundary:
    """Bad values at the command line end in the documented exit code and a
    one-line message, never a traceback or a silent empty result."""

    @staticmethod
    def one_line(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err
        return err

    def simulate(self, gen, *extra):
        desc, blob = gen
        return run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3", *extra)

    def test_failed_invariant_exits_7(self, gen, monkeypatch, capsys):
        from epursim import arch
        real = arch.dram_traffic

        def inflated(*args):
            traffic = real(*args)
            traffic["total_bytes"] += 1
            return traffic

        monkeypatch.setattr(arch, "dram_traffic", inflated)
        assert self.simulate(gen) == cli.EXIT_CHECK
        assert "dram_counters_consistent" in capsys.readouterr().err
        desc, blob = gen
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "3")
        assert rc == cli.EXIT_CHECK
        capsys.readouterr()
        rc = run_cli("quantize-sweep", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "3", "--min-bits", "8", "--max-bits", "9")
        assert rc == cli.EXIT_CHECK
        assert capsys.readouterr().err == "check failed: dram_counters_consistent\n"

    def test_quant_bits_out_of_range(self, gen, capsys):
        rc = self.simulate(gen, "--policy", "mwl", "--quantize", "--quant-bits", "20")
        assert rc == cli.EXIT_USAGE
        assert "n_bits" in self.one_line(capsys)

    def test_sweep_min_above_max(self, gen, tmp_path, capsys):
        desc, blob = gen
        out = tmp_path / "sweep.json"
        rc = run_cli("quantize-sweep", "--network", str(desc), "--weights", str(blob),
                     "--min-bits", "9", "--max-bits", "4", "--out", str(out))
        assert rc == cli.EXIT_USAGE
        assert "--min-bits" in self.one_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("fps", ["-5", "0", "nan", "inf"])
    def test_frames_per_second_must_be_positive(self, gen, fps, capsys):
        assert self.simulate(gen, "--frames-per-second", fps) == cli.EXIT_USAGE
        assert "--frames-per-second" in self.one_line(capsys)

    def test_compare_has_no_frames_per_second(self, gen, capsys):
        # only simulate reports the real-time figures
        desc, blob = gen
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "--network", str(desc), "--weights", str(blob),
                    "--frames-per-second", "50")
        assert exit_info.value.code == cli.EXIT_USAGE
        assert self.one_line(capsys) == (
            "usage error: unrecognized arguments: --frames-per-second 50\n")

    def test_missing_network_is_one_usage_line(self, gen, capsys):
        _, blob = gen
        with pytest.raises(SystemExit) as exit_info:
            run_cli("simulate", "--weights", str(blob))
        assert exit_info.value.code == cli.EXIT_USAGE
        assert self.one_line(capsys) == (
            "usage error: the following arguments are required: --network\n")

    def test_parser_is_built_once_and_parses_afresh(self):
        # one parser per process; a parse leaves nothing for the next one
        assert cli.build_parser() is cli.build_parser()
        net = ["--network", "n.json", "--weights", "w.bin"]
        a = cli.build_parser().parse_args(["simulate", *net, "--policy", "mwl"])
        b = cli.build_parser().parse_args(["simulate", *net])
        assert (a.policy, b.policy) == ("mwl", "conventional")

    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "mwl", "--quantize"],
        ["compare", "--quantize"],
        ["quantize-sweep"],
    ])
    def test_alpha_whose_beta_overflows_exits_2(self, gen, tmp_path, capsys, command):
        # beta = 127 / 1e-310 is inf, and the quantization step 0
        desc, blob = gen
        out = tmp_path / "report.json"
        assert run_cli(*command, "--network", str(desc), "--weights", str(blob),
                       "--alpha", "1e-310", "--out", str(out)) == cli.EXIT_USAGE
        assert self.one_line(capsys).startswith(
            "usage error: alpha must be positive and finite, with a finite beta")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{"dpu_widht": 16},
                                     {"op_latency": {"fma": 3}},
                                     {"dpu_width": 3},
                                     {"op_latency": [2, 4]},
                                     {"quant": {"n_bits": 8, "alpha": 20.0}}])
    def test_bad_hw_config_exits_3(self, gen, tmp_path, doc, capsys):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(doc), encoding="utf-8")
        assert self.simulate(gen, "--hw-config", str(hw)) == cli.EXIT_PARSE
        self.one_line(capsys)

    @pytest.mark.parametrize("raw", [b"{oops", b"\x80"])
    def test_hw_config_not_json_exits_3(self, gen, tmp_path, raw, capsys):
        hw = tmp_path / "hw.json"
        hw.write_bytes(raw)
        assert self.simulate(gen, "--hw-config", str(hw)) == cli.EXIT_PARSE
        assert str(hw) in self.one_line(capsys)

    def test_partial_op_latency_merges_over_defaults(self, gen, tmp_path):
        from epursim.arch import DEFAULT_OP_LATENCY
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({"op_latency": {"add": 3}}), encoding="utf-8")
        out = tmp_path / "sim.json"
        assert self.simulate(gen, "--hw-config", str(hw), "--out", str(out)) == cli.EXIT_OK
        lat = json.loads(out.read_text())["hardware"]["op_latency"]
        assert lat == dict(DEFAULT_OP_LATENCY, add=3)

    def test_hw_config_merges_over_the_chosen_preset(self, gen, tmp_path):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({"op_latency": {"add": 2}}), encoding="utf-8")
        out = tmp_path / "sim.json"
        rc = self.simulate(gen, "--hw-preset", "epur-mwl", "--hw-config", str(hw),
                           "--out", str(out))
        assert rc == cli.EXIT_OK
        assert json.loads(out.read_text())["hardware"]["weight_mem_bytes_per_cu"] == 2 * 2**20

    def test_out_in_missing_directory_names_the_target(self, gen, tmp_path, capsys):
        target = tmp_path / "nodir" / "x.json"
        assert self.simulate(gen, "--out", str(target)) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.rstrip().endswith(f"'{target}'")
        assert err.count(str(target)) == 1  # the temp file goes unnamed
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("bad", ["descriptor", "weights", "weights_is_dir"])
    def test_gen_network_writes_both_files_or_neither(self, tmp_path, bad, capsys):
        paths = {"descriptor": tmp_path / "d.json", "weights": tmp_path / "w.bin"}
        if bad == "weights_is_dir":  # written, but cannot be moved into place
            paths["weights"].mkdir()
        else:
            paths[bad] = tmp_path / "nodir" / paths[bad].name
        rc = run_cli("gen-network", "--preset", "ldlrnn",
                     "--out-descriptor", str(paths["descriptor"]),
                     "--out-weights", str(paths["weights"]))
        assert rc == cli.EXIT_IO
        assert self.one_line(capsys).rstrip().endswith(
            f"'{paths[bad.removesuffix('_is_dir')]}'")
        assert not paths["descriptor"].exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["w.bin"] if bad == "weights_is_dir" else [])

    def test_infer_failed_report_leaves_no_saved_output(self, gen, tmp_path, capsys):
        desc, blob = gen
        before = sorted(tmp_path.iterdir())
        rc = run_cli("infer", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "2", "--save-output", str(tmp_path / "h.bin"),
                     "--out", str(tmp_path / "nodir" / "report.json"))
        assert rc == cli.EXIT_IO
        self.one_line(capsys)
        assert sorted(tmp_path.iterdir()) == before

    def test_out_onto_a_directory_names_the_target(self, gen, tmp_path, capsys):
        desc, blob = gen
        target = tmp_path / "adir"
        target.mkdir()
        before = sorted(tmp_path.iterdir())
        rc = run_cli("infer", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "2", "--out", str(target))
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.rstrip().endswith(f"'{target}'")
        assert err.count(str(target)) == 1  # the temp file goes unnamed
        assert sorted(tmp_path.iterdir()) == before  # no temp file left behind
        assert not any(target.iterdir())

    def test_mu_issue_slots_exit_7(self, tmp_path, capsys):
        # a 1-wide DPU at unit mul and add latency delivers a recurrent dot
        # of length 1 every 3 cycles; the cell updater's MU needs 4 slots
        desc, blob, hw = tmp_path / "net.json", tmp_path / "net.bin", tmp_path / "hw.json"
        assert run_cli("gen-network", "--layers", "1", "--hidden", "1", "--input-dim", "1",
                       "--out-descriptor", str(desc), "--out-weights", str(blob)) == cli.EXIT_OK
        capsys.readouterr()
        hw.write_text(json.dumps({"dpu_width": 1, "op_latency": {"mul": 1, "add": 1}}),
                      encoding="utf-8")
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "2", "--policy", "mwl", "--hw-config", str(hw))
        assert rc == cli.EXIT_CHECK
        assert self.one_line(capsys) == (
            "check failed: MU of gate 'cell_updater' needs 4 issue slots/element but "
            "the DPU delivers one every 3 cycles (mwl-recurrent, hidden=1, input=1); "
            "the MU would be the end-to-end bottleneck\n")

    @pytest.mark.parametrize("key,message", [
        ("frequency_hz", "frequency and bandwidth must be positive"),
        ("mu_comm_cycles", "mu_comm_cycles must be >= 1"),
        ("bank_bytes", "bank_bytes must be positive"),
    ])
    def test_hw_config_zero_exits_3(self, gen, tmp_path, key, message, capsys):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({key: 0}), encoding="utf-8")
        assert self.simulate(gen, "--hw-config", str(hw)) == cli.EXIT_PARSE
        assert self.one_line(capsys) == f"error: bad hardware config: {message}\n"

    @pytest.mark.parametrize("doc,message", [
        ({"frequency_hz": float("inf")}, "frequency_hz must be a finite number, got inf"),
        ({"peak_dram_bandwidth": float("nan")},
         "peak_dram_bandwidth must be a finite number, got nan"),
        ({"dram_latency_s": float("inf")}, "dram_latency_s must be a finite number, got inf"),
        # finite, but the fetch cycles are not
        ({"peak_dram_bandwidth": 1e-300},
         "a DRAM fetch of 8640 B takes a non-finite number of cycles"),
        ({"frequency_hz": 1e-320},
         "the run's cycles take a non-finite time at frequency_hz 1e-320"),
        ({"dram_latency_s": -1}, "dram_latency_s must be >= 0, got -1"),
        ({"op_latency": {"mul": 2.5}, "mu_comm_cycles": 1.5},
         "mu_comm_cycles must be an integer, got 1.5"),
        ({"dpu_width": True}, "dpu_width must be an integer, got True"),
    ])
    def test_unusable_hw_config_value_exits_3(self, gen, tmp_path, doc, message, capsys):
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(doc), encoding="utf-8")
        assert self.simulate(gen, "--hw-config", str(hw)) == cli.EXIT_PARSE
        assert self.one_line(capsys) == f"error: bad hardware config: {message}\n"

    def test_gen_network_without_shape_exits_2(self, tmp_path, capsys):
        rc = run_cli("gen-network", "--layers", "2", "--out-descriptor",
                     str(tmp_path / "d.json"), "--out-weights", str(tmp_path / "w.bin"))
        assert rc == cli.EXIT_USAGE
        assert self.one_line(capsys) == ("usage error: gen-network needs --preset or "
                                         "--layers/--hidden\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("shape,message", [
        (["--layers", "1", "--hidden", "2", "--input-dim", "0"],
         "layer dimensions must be positive, got hidden=2 input=0"),
        (["--layers", "-1", "--hidden", "2"], "network needs at least one layer"),
        # a zero size was given, so it is a bad shape, not a missing one
        (["--layers", "0", "--hidden", "4"], "network needs at least one layer"),
        (["--layers", "2", "--hidden", "0"],
         "layer dimensions must be positive, got hidden=0 input=0"),
    ])
    def test_gen_network_bad_shape_exits_3(self, tmp_path, shape, message, capsys):
        rc = run_cli("gen-network", *shape, "--out-descriptor", str(tmp_path / "d.json"),
                     "--out-weights", str(tmp_path / "w.bin"))
        assert rc == cli.EXIT_PARSE
        assert self.one_line(capsys) == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("shape,rc,line", [
        # past netio.MAX_SIZE: refused as a usage error naming the option
        (["--hidden", str(2**31)], cli.EXIT_USAGE,
         "usage error: --hidden must be at most 2147483647, got 2147483648"),
        (["--hidden", "4", "--input-dim", str(2**31)], cli.EXIT_USAGE,
         "usage error: --input-dim must be at most 2147483647, got 2147483648"),
        # within it, but the first draw is past any address space: 2**57
        # bytes (numpy's own MemoryError), then more bytes than numpy counts
        (["--hidden", str(2**27)], cli.EXIT_CAPACITY,
         "host memory error: Unable to allocate "),
        (["--hidden", str(2**31 - 1)], cli.EXIT_CAPACITY, "host memory error: cannot "
         "draw an array of shape (2147483647, 2147483647): "),
    ])
    def test_gen_network_size_past_the_limits_exits_with_one_line(self, tmp_path, shape,
                                                                  rc, line, capsys):
        assert run_cli("gen-network", "--layers", "1", *shape, "--out-descriptor",
                       str(tmp_path / "d.json"), "--out-weights",
                       str(tmp_path / "w.bin")) == rc
        assert self.one_line(capsys).startswith(line)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("policy", ["conventional", "mwl"])
    def test_analyze_reuse_t0_exits_3(self, gen, policy, capsys):
        desc, _ = gen
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", policy,
                     "--t", "0")
        assert rc == cli.EXIT_PARSE
        assert self.one_line(capsys) == "error: T must be >= 1\n"

    @pytest.mark.parametrize("layer", ["99", "-1"])
    def test_analyze_reuse_layer_out_of_range_exits_2(self, tmp_path, monkeypatch,
                                                     capsys, layer):
        desc = tmp_path / "eesen.json"
        save_descriptor(presets.preset_descriptor("eesen"), desc)

        def traced(*args):
            raise AssertionError("a trace was built")

        monkeypatch.setattr(sched, "layer_traces", traced)
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "50", "--layer", layer)
        assert rc == cli.EXIT_USAGE
        assert self.one_line(capsys) == f"usage error: --layer must be in 0..4, got {layer}\n"

    COMMANDS = ["infer", "simulate", "compare", "quantize-sweep"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("t", ["0", "-1", "-7"])
    def test_synthetic_t_below_1_exits_3(self, gen, capsys, command, t):
        desc, blob = gen
        rc = run_cli(command, "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", t)
        assert rc == cli.EXIT_PARSE
        assert self.one_line(capsys) == (
            f"error: sequence must be [T>=1, dim], got ({t}, 16)\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_synthetic_seed_exits_2(self, gen, tmp_path, capsys, command):
        desc, blob = gen
        out = tmp_path / "out.json"
        rc = run_cli(command, "--network", str(desc), "--weights", str(blob),
                     "--synthetic-seed", "-1", "--out", str(out))
        assert rc == cli.EXIT_USAGE
        assert self.one_line(capsys) == "usage error: --synthetic-seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_gen_network_negative_seed_exits_2(self, tmp_path, capsys):
        rc = run_cli("gen-network", "--preset", "ldlrnn", "--seed", "-1",
                     "--out-descriptor", str(tmp_path / "d.json"),
                     "--out-weights", str(tmp_path / "w.bin"))
        assert rc == cli.EXIT_USAGE
        assert self.one_line(capsys) == "usage error: --seed must be >= 0, got -1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--policy-a", "--policy-b"])
    def test_compare_unknown_policy_exits_2(self, gen, capsys, option):
        # refused by the parser's choices, as simulate --policy is
        desc, blob = gen
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "--network", str(desc), "--weights", str(blob),
                    option, "bogus")
        assert exit_info.value.code == cli.EXIT_USAGE
        assert self.one_line(capsys) == (
            f"usage error: argument {option}: invalid choice: 'bogus' "
            "(choose from 'conventional', 'mwl')\n")

    def test_cmp_latency_is_an_unknown_key(self, gen, tmp_path, capsys):
        # no MU, quantizer or DPU op is a compare
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps({"op_latency": {"cmp": 2}}), encoding="utf-8")
        assert self.simulate(gen, "--hw-config", str(hw)) == cli.EXIT_PARSE
        assert self.one_line(capsys) == (
            "error: unknown hardware config key(s): op_latency.cmp\n")

    @pytest.fixture()
    def warned(self, tmp_path):
        """Two runs that raise a RuntimeWarning before they write: a layer
        whose 4400-byte forward rows overflow the row buffer, and one that
        needs more DRAM bandwidth than the peak."""
        wide, hw = tmp_path / "wide.json", tmp_path / "hw.json"
        wide.write_text(json.dumps({"input_dim": 1100, "layers": [
            {"hidden_size": 1, "input_size": 1100}]}), encoding="utf-8")
        hw.write_text(json.dumps({"dpu_width": 1024}), encoding="utf-8")
        desc, blob = tmp_path / "bw.json", tmp_path / "bw.bin"
        assert run_cli("gen-network", "--layers", "1", "--hidden", "1",
                       "--input-dim", "1024", "--out-descriptor", str(desc),
                       "--out-weights", str(blob)) == cli.EXIT_OK
        return {"row buffer": ["analyze-reuse", "--network", str(wide), "--policy", "mwl",
                               "--t", "3"],
                "bandwidth": ["simulate", "--network", str(desc), "--weights", str(blob),
                              "--hw-config", str(hw), "--synthetic-t", "700"]}

    @pytest.mark.parametrize("run,message", [
        ("row buffer", "forward row (4400 B) exceeds the row buffer (4096 B); "
                       "falling back to weight-buffer reads for forward connections"),
        ("bandwidth", "required average DRAM bandwidth 32.47 GB/s exceeds the peak "
                      "30.00 GB/s"),
    ])
    def test_warning_prints_one_line_on_success_only(self, warned, tmp_path, capsys,
                                                     run, message):
        capsys.readouterr()
        rc = run_cli(*warned[run], "--out", str(tmp_path / "missing" / "r.json"))
        assert rc == cli.EXIT_IO
        assert self.one_line(capsys).startswith("i/o error: ")
        assert run_cli(*warned[run], "--out", str(tmp_path / "r.json")) == cli.EXIT_OK
        assert capsys.readouterr().err == f"warning: {message}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "mwl"],
        ["simulate", "--policy", "mwl", "--trace-csv", "trace.csv"],
        ["compare"],
        ["quantize-sweep", "--min-bits", "4", "--max-bits", "6"],
    ])
    def test_row_buffer_fallback_warns_once(self, tmp_path, monkeypatch, capsys,
                                            command):
        # the cost model warns, and so does the trace when the CSV is asked for
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-network", "--layers", "1", "--hidden", "8", "--input-dim",
                       "1100", "--out-descriptor", "wide.json",
                       "--out-weights", "wide.bin") == cli.EXIT_OK
        capsys.readouterr()
        rc = run_cli(command[0], "--network", "wide.json", "--weights", "wide.bin",
                     "--synthetic-t", "3", *command[1:])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().err == (
            "warning: forward row (4400 B) exceeds the row buffer (4096 B); "
            "falling back to weight-buffer reads for forward connections\n")

    def test_unchained_layer_widths_exit_3(self, tmp_path, capsys):
        desc = tmp_path / "net.json"
        desc.write_text(json.dumps({"input_dim": 2, "layers": [
            {"hidden_size": 2, "input_size": 2, "direction": "bidirectional"},
            {"hidden_size": 2, "input_size": 2}]}), encoding="utf-8")
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "2")
        assert rc == cli.EXIT_PARSE
        assert self.one_line(capsys) == (
            "error: bad network descriptor: layer 1 expects input_size=2, but the "
            "preceding layer produces 4\n")

    def test_intermediate_layout_overflow_exits_5(self, tmp_path, capsys):
        # layer 0 has the longer sequences, layer 1 the larger partial region;
        # both must fit beside the one partial region sized for layer 1
        net = model.NetworkDescriptor((model.LayerDescriptor(8, 64),
                                       model.LayerDescriptor(16, 8)), input_dim=64)
        desc, blob, hw = tmp_path / "net.json", tmp_path / "net.bin", tmp_path / "hw.json"
        save_descriptor(net, desc)
        save_weights(net, random_weights(net, 0), blob)
        hw.write_text(json.dumps({"intermediate_mem_bytes": 700}), encoding="utf-8")
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--policy", "mwl", "--synthetic-t", "1", "--hw-config", str(hw))
        assert rc == cli.EXIT_CAPACITY
        assert self.one_line(capsys) == (
            "capacity error: layer 0: intermediate memory needs 768 B (sequences "
            "256/32 B plus 256 B of partials), 68 B over the 700 B configured\n")

    def test_size_past_32_bits_exits_3(self, tmp_path, capsys):
        desc = tmp_path / "net.json"
        desc.write_text(json.dumps({"input_dim": 2, "layers": [
            {"hidden_size": 10**30, "input_size": 2}]}), encoding="utf-8")
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "2")
        assert rc == cli.EXIT_PARSE
        assert "hidden_size must be at most 2147483647" in self.one_line(capsys)

    def test_host_memory_exhaustion_exits_5(self, gen, tmp_path, monkeypatch, capsys):
        # stands in for numpy's "Unable to allocate 43.7 TiB" on a huge trace,
        # so the test itself allocates nothing
        def exhausted(*args):
            raise MemoryError("Unable to allocate 43.7 TiB for an array")

        monkeypatch.setattr(sched, "layer_traces", exhausted)
        desc, _ = gen
        out = tmp_path / "reuse.json"
        rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                     "--t", "2", "--out", str(out))
        assert rc == cli.EXIT_CAPACITY
        assert self.one_line(capsys).startswith("host memory error: Unable to allocate")
        assert not out.exists()

    def test_memory_error_mid_trace_csv_leaves_no_file(self, tmp_path, monkeypatch,
                                                       capsys):
        # the CSV is streamed: layer 0's rows are written before layer 1's
        # trace is built, and still no file of the run is left behind
        net = presets.custom_descriptor(2, 16, False, False)
        desc, blob = tmp_path / "net.json", tmp_path / "net.bin"
        save_descriptor(net, desc)
        save_weights(net, random_weights(net, 0), blob)
        real, built = sched.layer_traces, []

        def second_exhausted(*args):
            built.append(args[0])
            if len(built) == 2:
                raise MemoryError("Unable to allocate 43.7 TiB for an array")
            return real(*args)

        monkeypatch.setattr(sched, "layer_traces", second_exhausted)
        before = sorted(tmp_path.iterdir())
        rc = run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "3", "--policy", "mwl",
                     "--out", str(tmp_path / "r.json"),
                     "--trace-csv", str(tmp_path / "t.csv"))
        assert rc == cli.EXIT_CAPACITY
        assert self.one_line(capsys).startswith("host memory error: Unable to allocate")
        assert built == list(net.layers)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("refusal", ["capacity", "mu_bottleneck", "input_dim"])
    def test_refusal_starts_no_inference(self, tmp_path, monkeypatch, capsys, refusal):
        # the cost model and the input check run on the caller, before any
        # thread or process, the datapath or the oracle starts
        started = []

        def fork():
            started.append("fork")
            raise AssertionError("forked")

        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(arch, "network_infer", lambda *a: started.append("runs"))
        net = model.NetworkDescriptor((model.LayerDescriptor(8, 64),
                                       model.LayerDescriptor(16, 8)), input_dim=64)
        desc, blob, hw = tmp_path / "net.json", tmp_path / "net.bin", tmp_path / "hw.json"
        save_descriptor(net, desc)
        save_weights(net, random_weights(net, 0), blob)
        argv = ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "1"]
        hw_doc, want_rc, want_err = {
            "capacity": ({"intermediate_mem_bytes": 500}, cli.EXIT_CAPACITY,
                         "capacity error: layer 0: intermediate memory needs"),
            "mu_bottleneck": ({"op_latency": {"exp": 400}}, cli.EXIT_CHECK,
                              "check failed: the MU"),
            "input_dim": ({}, cli.EXIT_PARSE, "error: input dim 3 != network input_dim 64"),
        }[refusal]
        hw.write_text(json.dumps(hw_doc), encoding="utf-8")
        argv += ["--hw-config", str(hw)]
        if refusal == "input_dim":
            frames = tmp_path / "x.csv"
            frames.write_text("1,2,3\n", encoding="utf-8")
            argv += ["--input", str(frames)]
        for cmd in (["simulate", "--policy", "mwl"], ["compare"], ["quantize-sweep"]):
            assert run_cli(*cmd, *argv) == want_rc
            assert self.one_line(capsys).startswith(want_err)
        assert started == []

    def test_memory_error_in_the_oracle_exits_5(self, gen, tmp_path, monkeypatch, capsys):
        # the quantized datapath has a partials hook; the oracle has none
        real = model.run_direction

        def exhausted(weights, frames, partials_hook=None):
            if partials_hook is None:
                raise MemoryError("Unable to allocate 1.25 GiB for an array")
            return real(weights, frames, partials_hook)

        monkeypatch.setattr(model, "run_direction", exhausted)
        out = tmp_path / "sim.json"
        assert self.simulate(gen, "--policy", "mwl", "--quantize",
                             "--out", str(out)) == cli.EXIT_CAPACITY
        assert self.one_line(capsys).startswith("host memory error: Unable to allocate")
        assert not out.exists()

    def test_simulated_run_error_wins_over_the_oracle(self, gen, monkeypatch, capsys):
        # the oracle fails first in time; the datapath comes first in call
        # order.  Its error is raised in its layer, which it names.
        def layer(weights, frames, partials_hook=None):
            if partials_hook is None:
                raise MemoryError("oracle allocation")
            time.sleep(0.05)
            raise model.NumericError("datapath overflow")

        monkeypatch.setattr(model, "run_direction", layer)
        assert self.simulate(gen, "--policy", "mwl", "--quantize") == cli.EXIT_NUMERIC
        assert self.one_line(capsys) == "numeric error: layer 0: datapath overflow\n"

    @pytest.mark.parametrize("cmd", [["simulate", "--policy", "mwl"],
                                     ["compare"],
                                     ["quantize-sweep", "--min-bits", "6", "--max-bits", "8"]])
    def test_no_thread_outlives_the_command(self, gen, cmd):
        desc, blob = gen
        threads = threading.active_count()
        assert run_cli(*cmd, "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == cli.EXIT_OK
        assert threading.active_count() == threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Runs a command, then prints the largest peak RSS of its process and of
# the children it forked for concurrent runs (each reaped, so counted).
PEAK_RSS_CHILD = """\
import resource, sys
from epursim import cli
rc = cli.main(sys.argv[1:])
print(max(resource.getrusage(who).ru_maxrss
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(rc)
"""
# Linux keeps the peak RSS of the process image an exec replaces, so a child
# started straight from this test process would report at least this
# process's peak; the child is started from a small launcher instead.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _peak_rss_bytes(*argv, exit_code: int = cli.EXIT_OK) -> int:
    """The peak RSS of a fresh process that runs the command ``argv``,
    which must exit with ``exit_code``."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == exit_code, proc.stderr
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in KiB on Linux
    return int(proc.stdout.splitlines()[-1]) * unit


class TestHostMemory:
    def test_simulate_holds_the_weights_once(self, tmp_path):
        # the peak RSS a ~33 MB blob of 16 equal layers adds to each command
        # that reads weights, over a tiny net's, in the caller or in any
        # forked child: each process holds one layer (1/16 of the blob)
        # beside one array's read buffer, never the whole network
        def write(layers, hidden):
            desc, blob = tmp_path / f"{hidden}.json", tmp_path / f"{hidden}.bin"
            assert run_cli("gen-network", "--layers", str(layers), "--hidden", str(hidden),
                           "--seed", "1", "--out-descriptor", str(desc),
                           "--out-weights", str(blob)) == cli.EXIT_OK
            return ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "2"]

        tiny, big = write(1, 8), write(16, 256)
        blob_bytes = Path(big[3]).stat().st_size
        assert blob_bytes > 32 * 10**6
        for cmd in (["infer"], ["simulate", "--policy", "conventional"], ["compare"],
                    ["quantize-sweep", "--min-bits", "6", "--max-bits", "8"]):
            extra = _peak_rss_bytes(*cmd, *big) - _peak_rss_bytes(*cmd, *tiny)
            assert extra < 0.25 * blob_bytes, (cmd, extra / blob_bytes)

    def test_gen_network_holds_one_array(self, tmp_path):
        # the peak RSS a ~34 MB blob adds to gen-network, over a tiny net's:
        # the blob is written from the draws, so no more than about one
        # array of it is held at a time
        def peak_and_blob(layers, hidden):
            blob = tmp_path / f"{hidden}.bin"
            peak = _peak_rss_bytes("gen-network", "--layers", str(layers),
                                   "--hidden", str(hidden), "--seed", "1",
                                   "--out-descriptor", str(tmp_path / f"{hidden}.json"),
                                   "--out-weights", str(blob))
            return peak, blob.stat().st_size

        base, _ = peak_and_blob(1, 8)
        peak, blob_bytes = peak_and_blob(16, 256)
        assert blob_bytes > 32 * 10**6
        assert peak - base < 0.25 * blob_bytes, (peak - base) / blob_bytes

    def test_trace_csv_is_streamed(self, tmp_path):
        # the peak RSS an ~80 MB trace CSV adds to simulate, over a tiny
        # run's: the file is written one pass and gate at a time, so no
        # more than about one layer's text is held at once
        def peak_and_csv(layers, hidden, T):
            desc, blob = tmp_path / f"{hidden}.json", tmp_path / f"{hidden}.bin"
            csv_path = tmp_path / f"{hidden}.csv"
            assert run_cli("gen-network", "--layers", str(layers), "--hidden", str(hidden),
                           "--seed", "1", "--out-descriptor", str(desc),
                           "--out-weights", str(blob)) == cli.EXIT_OK
            peak = _peak_rss_bytes("simulate", "--network", str(desc), "--weights", str(blob),
                                   "--synthetic-t", str(T), "--policy", "mwl",
                                   "--trace-csv", str(csv_path))
            return peak, csv_path.stat().st_size

        base, _ = peak_and_csv(1, 8, 2)
        peak, csv_bytes = peak_and_csv(4, 48, 400)
        assert csv_bytes > 75 * 10**6
        assert peak - base < 0.75 * csv_bytes, (peak - base) / csv_bytes


    def test_run_refused_from_shapes_draws_no_frames(self, tmp_path, capsys):
        # 10**8 frames overflow a 1x4 network's intermediate memory (exit
        # 5), which the cost model finds from the shapes and T alone: the
        # run must refuse before it draws the sequence, whose float64
        # draws alone would take 800 MB per input element of a frame
        desc, blob = tmp_path / "d.json", tmp_path / "w.bin"
        assert run_cli("gen-network", "--layers", "1", "--hidden", "4", "--seed", "1",
                       "--out-descriptor", str(desc), "--out-weights", str(blob)) == cli.EXIT_OK
        capsys.readouterr()
        peak = _peak_rss_bytes("simulate", "--network", str(desc), "--weights", str(blob),
                               "--synthetic-t", str(10**8), "--policy", "conventional",
                               exit_code=cli.EXIT_CAPACITY)
        assert peak < 200 * 2**20, peak / 2**20

    def test_run_refused_from_shapes_reads_no_input_frames(self, tmp_path, capsys):
        # a 128 MiB binary input (sparse on disk) overflows a 1x4 network's
        # intermediate memory (exit 5), which the cost model finds from T in
        # the file's header: the run must refuse before it reads a frame
        desc, blob = tmp_path / "d.json", tmp_path / "w.bin"
        assert run_cli("gen-network", "--layers", "1", "--hidden", "4", "--input-dim", "4",
                       "--seed", "1", "--out-descriptor", str(desc),
                       "--out-weights", str(blob)) == cli.EXIT_OK
        capsys.readouterr()
        frames, T = tmp_path / "x.bin", 2**23
        with open(frames, "wb") as f:
            f.write(struct.pack("<II", T, 4))
            f.truncate(8 + 4 * T * 4)
        peak = _peak_rss_bytes("simulate", "--network", str(desc), "--weights", str(blob),
                               "--input", str(frames), "--policy", "conventional",
                               exit_code=cli.EXIT_CAPACITY)
        assert peak < 100 * 2**20, peak / 2**20

    def test_run_refused_from_shapes_reads_no_weights(self, tmp_path, capsys):
        # LDLRNN's weights overflow a 1 KiB weight memory, which the cost
        # model finds from the shapes alone: the blob is never opened
        desc, hw = tmp_path / "ldlrnn.json", tmp_path / "hw.json"
        desc.write_bytes(netio.descriptor_to_bytes(presets.preset_descriptor("ldlrnn")))
        hw.write_text(json.dumps({"weight_mem_bytes_per_cu": 1024}), encoding="utf-8")
        rc = run_cli("simulate", "--network", str(desc), "--weights",
                     str(tmp_path / "missing.bin"), "--hw-config", str(hw))
        assert rc == cli.EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and len(err.splitlines()) == 1, err


class TestConcurrently:
    """cli._concurrently: results in call order, one process per call with
    the caller running the last, every child reaped, and the first failing
    call's error; and the commands' one process per CPU at most
    (``cli._cpu_slots``).  A call in a forked child changes nothing in this
    process, so each call records what it saw in a file."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        if n == 1:
            def no_fork():
                raise AssertionError("forked with one CPU")

            monkeypatch.setattr(cli.os, "fork", no_fork)

    @staticmethod
    def record(log, *fields):
        # one append per line, so lines from several processes never mix
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (" ".join(map(str, fields)) + "\n").encode())
        finally:
            os.close(fd)

    @staticmethod
    def records(log):
        return [line.split() for line in log.read_text().splitlines()]

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_results_in_call_order_with_one_process_per_call(self, monkeypatch,
                                                             tmp_path, k):
        # every call waits until all k have started, so they finish only if
        # they all run at once; one call runs on the caller with no fork
        if k == 1:
            monkeypatch.setattr(cli.os, "fork", lambda: pytest.fail("forked for one call"))
        log = tmp_path / "calls"

        def call(i):
            (tmp_path / f"started{i}").touch()
            deadline = time.monotonic() + 10
            while len(list(tmp_path.glob("started*"))) < k:
                assert time.monotonic() < deadline, "the calls did not all run at once"
                time.sleep(0.001)
            time.sleep(0.005 * (k - i))  # later calls finish first
            self.record(log, i, os.getpid())
            return i

        assert cli._concurrently([partial(call, i) for i in range(k)]) == list(range(k))
        self.no_child_left()
        pids = {int(i): int(pid) for i, pid in self.records(log)}
        assert sorted(pids) == list(range(k))
        assert len(set(pids.values())) == k  # one process per call
        assert pids[k - 1] == os.getpid()  # the caller runs the last

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_first_failing_call_in_call_order_is_raised(self, tmp_path, k):
        # with two calls or more, the first call fails in a child once the
        # last call has failed on the caller: its failure comes later in
        # time but first in call order; the calls between them succeed
        log, release, caller = tmp_path / "calls", tmp_path / "release", os.getpid()

        def wait_in_a_child():
            deadline = time.monotonic() + 10
            while (os.getpid() != caller and not release.exists()
                   and time.monotonic() < deadline):
                time.sleep(0.001)

        def fail(i):
            wait_in_a_child()
            self.record(log, i)
            release.touch()
            raise ValueError(i)

        calls = [partial(fail, i) if i in (0, k - 1) else wait_in_a_child for i in range(k)]
        with pytest.raises(ValueError, match="^0$"):
            cli._concurrently(calls)
        self.no_child_left()
        ran = [r[0] for r in self.records(log)]
        assert ran == (["0"] if k == 1 else [str(k - 1), "0"])

    def test_interrupt_kills_the_children(self, monkeypatch):
        # the caller's own call is interrupted while a child still runs
        self.cpus(monkeypatch, 2)

        def interrupted():
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._concurrently([partial(time.sleep, 30), interrupted])
        assert time.monotonic() - start < 10
        self.no_child_left()

    def test_unpicklable_error_comes_back_by_name(self, monkeypatch):
        self.cpus(monkeypatch, 2)

        class TwoArgError(Exception):  # pickles, but cannot be unpickled
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def fail():
            raise TwoArgError("this", "that")

        with pytest.raises(RuntimeError, match="^TwoArgError: this and that$"):
            cli._concurrently([fail, lambda: None])
        self.no_child_left()

    def test_child_ending_with_a_status_raises_memory_error(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        caller = os.getpid()

        def exit_in_a_child():
            if os.getpid() != caller:
                os._exit(3)

        with pytest.raises(MemoryError, match=(
                "^run 1 of 2 ended without a result, with exit status 3$")):
            cli._concurrently([exit_in_a_child, lambda: None])
        self.no_child_left()

    def test_failed_fork_is_raised_with_its_pipe_closed(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        pipes, real_pipe = [], os.pipe

        def pipe():
            r, w = real_pipe()
            pipes.extend((r, w))
            return r, w

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli.os, "pipe", pipe)
        monkeypatch.setattr(cli.os, "fork", no_fork)
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            cli._concurrently([lambda: None, lambda: None])
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_failed_fork_closes_the_token_pipes(self, tmp_path, monkeypatch, capsys):
        # the pair's two token pipes are made before the fork, and the
        # caller closes them when the fork fails
        self.cpus(monkeypatch, 2)
        pipes, real_pipe = [], os.pipe

        def pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli.os, "pipe", pipe)
        monkeypatch.setattr(cli.os, "fork", no_fork)
        _, argv = self.network(tmp_path, (8, True), (6, True))
        assert run_cli("simulate", *argv) == cli.EXIT_IO
        assert TestBoundary.one_line(capsys) == \
            f"i/o error: [Errno {errno.EAGAIN}] Resource temporarily unavailable\n"
        assert len(pipes) == 3  # two token pipes, then the child's result pipe
        for fd in (fd for p in pipes for fd in p):
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_cpu_count_stands_in_for_the_affinity(self, monkeypatch):
        # where os has no sched_getaffinity; an unknown count is one CPU,
        # and so is any count where os has no fork
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._cpu_slots() == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._cpu_slots() == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.delattr(cli.os, "fork")
        assert cli._cpu_slots() == 1

    def test_killed_run_exits_5(self, gen, monkeypatch, capsys):
        # both groups of runs kill themselves if they run in a child, and
        # never the test process itself
        self.cpus(monkeypatch, 2)
        caller = os.getpid()

        def killed_in_a_child(real):
            def run(*args):
                if os.getpid() != caller:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)
            return run

        monkeypatch.setattr(arch, "network_infer",
                            killed_in_a_child(arch.network_infer))
        desc, blob = gen
        assert run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == cli.EXIT_CAPACITY
        assert TestBoundary.one_line(capsys).startswith(
            f"host memory error: run 1 of 2 ended without a result, by signal "
            f"{int(signal.SIGKILL)} (")
        self.no_child_left()

    @pytest.mark.parametrize("error,rc,line", [
        (model.NumericError("overflow"), cli.EXIT_NUMERIC, "numeric error: overflow"),
        (model.ShapeError("bad shape"), cli.EXIT_PARSE, "error: bad shape"),
        (MemoryError("Unable to allocate"), cli.EXIT_CAPACITY,
         "host memory error: Unable to allocate"),
        (model.NumericError("cannot quantize non-finite values"), cli.EXIT_NUMERIC,
         "numeric error: cannot quantize non-finite values"),
    ])
    def test_error_in_a_child_exits_with_its_code(self, gen, monkeypatch, capsys,
                                                  error, rc, line):
        # the datapath's group, call 0 of 2, is the one that runs in a child
        self.cpus(monkeypatch, 2)
        caller, real = os.getpid(), arch.network_infer

        def runs(*args):
            if os.getpid() != caller:
                raise error
            return real(*args)

        monkeypatch.setattr(arch, "network_infer", runs)
        desc, blob = gen
        assert run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == rc
        assert TestBoundary.one_line(capsys) == line + "\n"
        self.no_child_left()

    @pytest.mark.parametrize("cmd", [["compare", "--quantize", "--calibrate"],
                                     ["quantize-sweep", "--min-bits", "4", "--max-bits", "8"]])
    def test_one_cpu_reads_each_blob_byte_once(self, gen, monkeypatch, cmd):
        # every run, the oracle included, steps through one read of the blob
        self.cpus(monkeypatch, 1)
        real, reads = os.preadv, []

        def preadv(fd, buffers, offset):
            n = real(fd, buffers, offset)
            reads.append((offset, n))
            return n

        monkeypatch.setattr(netio.os, "preadv", preadv)
        desc, blob = gen
        assert run_cli(*cmd, "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == cli.EXIT_OK
        at = 16
        for offset, n in reads:
            assert offset == at
            at += n
        assert at == blob.stat().st_size

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cmd,runs", [
        (["infer"], 1), (["simulate"], 2), (["compare"], 3),
        (["quantize-sweep", "--min-bits", "6", "--max-bits", "8"], 4)],
        ids=["infer", "simulate", "compare", "quantize-sweep"])
    def test_one_run_path(self, gen, monkeypatch, tmp_path, n, cmd, runs):
        # a group of lanes is one arch.simulate call, given every run's
        # report (the oracle, and infer's one run, the None report of the
        # last), and it steps its lanes through one network_infer call; on
        # this one-direction network a lane is a run
        self.cpus(monkeypatch, n)
        calls = tmp_path / "calls"
        real_simulate, real_infer = arch.simulate, model.network_infer

        def lanes(swap):
            return [(d, r) for d in swap.directions for r in swap.runs]

        def simulate(net, weights, seq, reports, swap):
            self.record(calls, "simulate", len(reports), reports[-1] is None, lanes(swap))
            return real_simulate(net, weights, seq, reports, swap)

        def network_infer(net, weights, seq, hooks, swap):
            self.record(calls, "network_infer", len(hooks), lanes(swap))
            return real_infer(net, weights, seq, hooks, swap)

        monkeypatch.setattr(arch, "simulate", simulate)
        for module in (arch, model):
            monkeypatch.setattr(module, "network_infer", network_infer)
        desc, blob = gen
        assert run_cli(*cmd, "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == cli.EXIT_OK
        groups = min(n, runs)
        cuts = [runs * g // groups for g in range(groups + 1)]
        want = [line for a, b in zip(cuts, cuts[1:])
                for lanes in [str([(0, r) for r in range(a, b)]).split()]
                for line in (["simulate", str(runs), "True", *lanes],
                             ["network_infer", str(runs), *lanes])]
        assert sorted(self.records(calls)) == sorted(want)

    @pytest.fixture()
    def tiny(self, tmp_path):
        desc, blob = tmp_path / "net.json", tmp_path / "net.bin"
        assert run_cli("gen-network", "--layers", "2", "--hidden", "8", "--bidirectional",
                       "--seed", "4", "--out-descriptor", str(desc),
                       "--out-weights", str(blob)) == cli.EXIT_OK
        return ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "6"]

    @pytest.mark.parametrize("cmd", [
        ["simulate", "--policy", "conventional", "--energy"],
        ["simulate", "--policy", "mwl", "--quantize", "--quant-bits", "8", "--calibrate"],
        ["compare", "--quantize", "--calibrate"],
        ["quantize-sweep", "--min-bits", "4", "--max-bits", "8", "--calibrate"],
        ["infer", "--save-output", "out.bin"],
    ])
    def test_outputs_do_not_depend_on_the_cpus(self, tiny, tmp_path, monkeypatch,
                                               capsys, cmd):
        # calibrated alphas are set inside each run, and a run's two
        # directions run in two processes: alphas left behind in a child or
        # out of (layer, direction) order would change the report.  With n
        # CPUs the runs (the oracle included) are cut into min(n // 2, runs)
        # chunks of two processes each, one per direction: a third CPU
        # stays idle, and a fourth makes a second pair where there are two
        # runs or more.
        seen, forks = self.on_1_to_4_cpus([*cmd, *tiny], tmp_path, monkeypatch, capsys)
        assert seen[0] == seen[1] == seen[2] == seen[3]
        assert forks == {"simulate": [0, 1, 1, 3], "compare": [0, 1, 1, 3],
                         "quantize-sweep": [0, 1, 1, 3], "infer": [0, 1, 1, 1]}[cmd[0]]

    def on_1_to_4_cpus(self, argv, tmp_path, monkeypatch, capsys):
        """What the command ``argv`` printed and wrote (its --out report and
        any .bin it names) with 1, 2, 3 and 4 CPUs, and how often it forked."""
        monkeypatch.chdir(tmp_path)
        seen, forks = [], []
        for n_cpus in (1, 2, 3, 4):
            self.cpus(monkeypatch, n_cpus)
            fork, forked = cli.os.fork, []
            monkeypatch.setattr(cli.os, "fork", lambda: forked.append(1) or fork())
            out = tmp_path / f"report{n_cpus}.json"
            assert run_cli(*argv, "--out", str(out)) == cli.EXIT_OK
            saved = [Path(p).read_bytes() for p in argv if p.endswith(".bin")
                     and not p.startswith(str(tmp_path))]
            seen.append((capsys.readouterr(), out.read_bytes(), saved))
            forks.append(len(forked))
            monkeypatch.undo()
            monkeypatch.chdir(tmp_path)
        return seen, forks

    @staticmethod
    def network(tmp_path, *layers, input_dim=6):
        """A network of ``layers`` (hidden, bidirectional), peephole, written
        by hand beside its random weights: its arguments."""
        shapes, size = [], input_dim
        for hidden, bidirectional in layers:
            shapes.append(model.LayerDescriptor(
                hidden, size, model.Direction.bidirectional if bidirectional
                else model.Direction.forward_only, peephole=True))
            size = shapes[-1].output_size
        net = model.NetworkDescriptor(tuple(shapes), input_dim)
        desc, blob = tmp_path / "hand.json", tmp_path / "hand.bin"
        save_descriptor(net, desc)
        save_weights(net, random_weights(net, 7), blob)
        return net, ["--network", str(desc), "--weights", str(blob), "--synthetic-t", "5"]

    @pytest.mark.parametrize("cmd", [
        ["infer", "--save-output", "out.bin"],
        ["simulate", "--policy", "mwl", "--quantize", "--quant-bits", "8", "--calibrate"],
        ["compare", "--quantize", "--calibrate"],
        ["quantize-sweep", "--min-bits", "5", "--max-bits", "7", "--calibrate"],
    ], ids=["infer", "simulate", "compare", "quantize-sweep"])
    def test_mixed_network_outputs_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch,
                                                             capsys, cmd):
        # bidirectional, then forward-only, then bidirectional: a process
        # holding only backward lanes runs nothing in the middle layer and
        # takes that layer's output from the swap
        _, argv = self.network(tmp_path, (8, True), (10, False), (6, True))
        seen, _ = self.on_1_to_4_cpus([*cmd, *argv], tmp_path, monkeypatch, capsys)
        assert seen[0] == seen[1] == seen[2] == seen[3]

    def preadv_log(self, monkeypatch, log):
        real = os.preadv

        def preadv(fd, buffers, offset):
            n = real(fd, buffers, offset)
            self.record(log, os.getpid(), offset, n)
            return n

        monkeypatch.setattr(netio.os, "preadv", preadv)

    def test_two_cpus_read_each_blob_byte_once_together(self, tmp_path, monkeypatch):
        # the child runs and reads every forward direction, the caller every
        # backward one; a forward-only layer is the child's alone
        self.cpus(monkeypatch, 2)
        log = tmp_path / "reads"
        self.preadv_log(monkeypatch, log)
        net, argv = self.network(tmp_path, (8, True), (10, False), (6, True))
        assert run_cli("simulate", *argv) == cli.EXIT_OK
        reads = [tuple(map(int, r)) for r in self.records(log)]
        at = 16
        for _, offset, n in sorted(reads, key=lambda r: r[1]):
            assert offset == at
            at += n
        assert at == Path(argv[3]).stat().st_size
        cells, at = {}, 16  # the blob's bytes of each direction
        for layer in net.layers:
            for d in range(layer.num_directions):
                cells[range(at, at + model.cell_weight_bytes(layer, 4))] = d
                at += model.cell_weight_bytes(layer, 4)
        directions = {}
        for pid, offset, _ in reads:
            directions.setdefault(pid, set()).update(
                d for cell, d in cells.items() if offset in cell)
        assert directions.pop(os.getpid()) == {1}
        assert list(directions.values()) == [{0}]

    @pytest.mark.parametrize("n,times", [(2, 1), (3, 1), (4, 2)])
    @pytest.mark.parametrize("cmd", ["simulate", "compare"])
    def test_bidirectional_reads_the_payload_once_per_chunk(self, tmp_path, monkeypatch,
                                                            cmd, n, times):
        # each chunk of runs is a pair of processes, one per direction, and
        # a pair reads each byte of the payload once; a third CPU stays idle
        self.cpus(monkeypatch, n)
        log = tmp_path / "reads"
        self.preadv_log(monkeypatch, log)
        _, argv = self.network(tmp_path, (8, True), (10, False), (6, True))
        assert run_cli(cmd, *argv) == cli.EXIT_OK
        read = sum(int(size) for _, _, size in self.records(log))
        assert read == times * (Path(argv[3]).stat().st_size - 16)

    def test_one_direction_reads_the_blob_once_per_process(self, gen, tmp_path,
                                                           monkeypatch):
        # a forward-only network is cut by runs, as before: the datapath in
        # the child and the oracle in the caller each read the whole blob
        self.cpus(monkeypatch, 2)
        log = tmp_path / "reads"
        self.preadv_log(monkeypatch, log)
        desc, blob = gen
        assert run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == cli.EXIT_OK
        per_pid = {}
        for pid, offset, n in self.records(log):
            per_pid.setdefault(pid, []).append((int(offset), int(n)))
        assert len(per_pid) == 2
        for reads in per_pid.values():
            at = 16
            for offset, n in reads:
                assert offset == at
                at += n
            assert at == blob.stat().st_size

    @pytest.mark.parametrize("poisoned,name", [
        # direction 0 of layer 1, which only the child reads with 2 CPUs
        ([(1, 0, "forget.w_h")], "forget.w_h"),
        # both processes fail in layer 1: direction 0's array comes first
        ([(1, 1, "input.w_x"), (1, 0, "forget.w_h")], "forget.w_h"),
        # the caller's array comes first in the blob, the child first in
        # call order; the child never reads layer 2
        ([(2, 0, "forget.w_h"), (1, 1, "input.w_x")], "input.w_x"),
        # the caller fails to read layer 0; the child, whose layer 1 is
        # bad too, reads it only after the swap of layer 0, which tells it
        # that the caller has ended
        ([(0, 1, "input.w_x"), (1, 0, "forget.w_h")], "input.w_x"),
    ], ids=["child", "same-layer", "earlier-layer", "caller-first-layer"])
    def test_weight_error_is_the_first_in_blob_order(self, tmp_path, monkeypatch, capsys,
                                                     poisoned, name):
        net, argv = self.network(tmp_path, (8, True), (6, True), (4, True))
        blob = Path(argv[3])
        data = bytearray(blob.read_bytes())
        weights = random_weights(net, 7)
        for layer, direction, array in poisoned:
            at = 16 + sum(model.cell_weight_bytes(l, 4) * l.num_directions
                          for l in net.layers[:layer])
            at += model.cell_weight_bytes(net.layers[layer], 4) * direction
            for part, values in weights[layer][direction].parts():
                if part == array:
                    break
                at += values.size * 4
            data[at:at + 4] = struct.pack("<f", float("nan"))
        blob.write_bytes(bytes(data))
        for n in (1, 2, 3, 4):
            self.cpus(monkeypatch, n)
            assert run_cli("simulate", *argv) == cli.EXIT_NUMERIC
            assert TestBoundary.one_line(capsys) == (
                f"numeric error: {name} contains non-finite values\n")
            self.no_child_left()
            monkeypatch.undo()

    @pytest.mark.parametrize("failures,line,oracle_passes", [
        # the oracle (run 1) fails first, going forward in layer 0, which is
        # the child's with 2 CPUs; the datapath (run 0) fails going
        # backward in layer 2, in the caller: run 0's error is raised.  One
        # process skips the oracle's backward lane once the oracle has
        # failed; with 2, 3 and 4 CPUs the process that holds it runs it in
        # layer 0, before the swap tells it, and never after
        ({("oracle", 0, False): MemoryError("oracle allocation"),
          ("datapath", 2, True): model.NumericError("backward overflow")},
         "numeric error: layer 2: backward overflow",
         ["0 False"] * 4 + ["0 True"] * 3),
        # both of the datapath's directions fail in layer 1, in two
        # processes: the forward one's error is raised.  With 4 CPUs the
        # oracle is a pair of its own, which never learns that the
        # datapath failed and runs every layer
        ({("datapath", 1, True): model.NumericError("backward overflow"),
          ("datapath", 1, False): model.NumericError("forward overflow")},
         "numeric error: layer 1: forward overflow",
         ["0 False", "0 True"] * 4 + ["1 False", "1 True", "2 False", "2 True"]),
    ], ids=["hook-order", "direction-order"])
    def test_run_error_keeps_its_layer_and_hook_order(self, tmp_path, monkeypatch, capsys,
                                                      failures, line, oracle_passes):
        net, argv = self.network(tmp_path, (8, True), (8, True), (6, True))
        real, log = model.run_direction, tmp_path / "passes"

        def run_direction(weights, frames, partials_hook=None):
            lane = ("datapath" if partials_hook else "oracle",
                    net.layers.index(weights.layer), frames.strides[0] < 0)
            self.record(log, *lane)
            if lane in failures:
                raise failures[lane]
            return real(weights, frames, partials_hook)

        for n in (1, 2, 3, 4):
            self.cpus(monkeypatch, n)
            monkeypatch.setattr(model, "run_direction", run_direction)
            assert run_cli("simulate", "--policy", "mwl", "--quantize", *argv) == \
                cli.EXIT_NUMERIC
            assert TestBoundary.one_line(capsys) == line + "\n"
            self.no_child_left()
            monkeypatch.undo()
        passes = self.records(log)
        assert sorted(" ".join(p[1:]) for p in passes if p[0] == "oracle") == \
            sorted(oracle_passes)

    def test_killed_peer_ends_the_wait_at_the_swap(self, tmp_path, monkeypatch, capsys):
        # the child kills itself in its lanes of layer 1, after the swap of
        # layer 0; the caller, waiting at the swap of layer 1, reads the end
        # of its token pipe.  An alarm ends the test if the wait hangs.
        self.cpus(monkeypatch, 2)
        net, argv = self.network(tmp_path, (8, True), (6, True))
        caller, real = os.getpid(), model.run_direction

        def run_direction(weights, frames, partials_hook=None):
            if os.getpid() != caller and weights.layer == net.layers[1]:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(weights, frames, partials_hook)

        def hung(*_):
            raise TimeoutError("the caller still waits at the swap")

        monkeypatch.setattr(model, "run_direction", run_direction)
        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            assert run_cli("simulate", *argv) == cli.EXIT_CAPACITY
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert TestBoundary.one_line(capsys).startswith(
            f"host memory error: run 1 of 2 ended without a result, by signal "
            f"{int(signal.SIGKILL)} (")
        self.no_child_left()

    def test_killed_process_of_one_pair_ends_every_wait(self, tmp_path, monkeypatch,
                                                        capsys):
        # with 4 CPUs the datapath and the oracle are two pairs.  The child
        # running the datapath's forward lanes kills itself in layer 1: its
        # peer reads the end of its token pipe only if every other process,
        # the other pair's included, has closed that pipe's ends.  An alarm
        # ends the test if a wait hangs.
        self.cpus(monkeypatch, 4)
        net, argv = self.network(tmp_path, (8, True), (8, True), (6, True))
        caller, real = os.getpid(), model.run_direction

        def run_direction(weights, frames, partials_hook=None):
            if (os.getpid() != caller and partials_hook is not None
                    and frames.strides[0] > 0 and weights.layer == net.layers[1]):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(weights, frames, partials_hook)

        def hung(*_):
            raise TimeoutError("a process still waits at the swap")

        monkeypatch.setattr(model, "run_direction", run_direction)
        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            assert run_cli("simulate", "--policy", "mwl", "--quantize", *argv) == \
                cli.EXIT_CAPACITY
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert TestBoundary.one_line(capsys).startswith(
            f"host memory error: run 1 of 4 ended without a result, by signal "
            f"{int(signal.SIGKILL)} (")
        self.no_child_left()


# ---------------------------------------------------------------------------
# every process cut against one process

def _cut_case(seed: int):
    """(network, command arguments, CPU slots, fault), drawn from ``seed``:
    a network of 1-3 layers with h <= 4, a command over it, 2-5 slots and
    at most one fault, which names the same weight arrays or lane on every
    cut.  A fault is ("nan", [(layer, direction, array)]), NaNs in the
    blob, ("short", bytes cut off the blob's end) or ("lane", (run, layer,
    direction)), a pass that raises.  A random stream rather than a
    strategy per choice keeps 25 examples as varied as 25 seeds."""
    rng = random.Random(seed)
    size = input_dim = rng.randint(1, 4)
    layers = []
    for _ in range(rng.randint(1, 3)):
        layers.append(model.LayerDescriptor(rng.randint(1, 4), size,
                                            rng.choice(list(model.Direction)),
                                            rng.random() < 0.5))
        size = layers[-1].output_size
    net = model.NetworkDescriptor(tuple(layers), input_dim)
    command = rng.choice(["simulate", "compare", "quantize-sweep"])
    calibrate = ["--calibrate"] if rng.random() < 0.5 else []
    if command == "quantize-sweep":
        low, widths = rng.randint(2, 8), rng.randint(1, 4)
        argv = ["--min-bits", str(low), "--max-bits", str(low + widths - 1), *calibrate]
        runs = widths + 1
    else:
        quantize = (["--quantize", "--quant-bits", str(rng.randint(2, 8)), *calibrate]
                    if rng.random() < 0.5 else [])
        argv = ["--policy", "mwl", *quantize] if command == "simulate" else quantize
        runs = 2 if command == "simulate" else 3
    argv = [command, *argv, "--synthetic-t", str(rng.randint(1, 3))]
    cells = [(i, d) for i, layer in enumerate(layers) for d in range(layer.num_directions)]
    # a NaN fault, the one that can end a process before its peer, half the time
    kind = rng.choice(["nan"] * 4 + ["lane"] * 2 + ["short", None])
    fault = None
    if kind == "nan":
        # each cell is poisoned or not, so that a process may fail to read
        # a layer after its peer failed to read the one before
        spots = [cell for cell in cells if rng.random() < 0.5] or [rng.choice(cells)]
        fault = kind, [(i, d, rng.choice([name for name, _ in _zero_cell(layers[i]).parts()]))
                       for i, d in spots]
    elif kind == "short":
        fault = kind, rng.randint(1, 8)
    elif kind == "lane":
        fault = kind, (rng.randrange(runs), *rng.choice(cells))
    return net, argv, rng.randint(2, 5), fault


def _zero_cell(layer):
    return model.WeightSet(layer, model.Precision.fp32,
                           lambda _name, shape: np.zeros(shape, np.float32))


class TestEveryCut:
    """How ``cli._cut`` cuts the lanes, and that every cut of a command's
    runs across processes gives the answer of one process: its exit code,
    stdout, stderr and every file it writes."""

    @pytest.mark.parametrize("runs", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("directions", [1, 2])
    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 5])
    def test_cut(self, slots, directions, runs):
        groups, paired = cli._cut(directions, runs, slots)
        assert paired == (directions == 2 and slots >= 2)
        # one process per group, each on a slot of its own; on an odd slot
        # count a pair leaves one idle
        per_chunk = 2 if paired else 1
        assert len(groups) == per_chunk * min(slots // per_chunk, runs) <= slots
        if paired and runs >= slots // 2:
            assert len(groups) == slots - slots % 2
        lanes = [(d, r) for ds, rs in groups for d in ds for r in rs]
        assert sorted(lanes) == [(d, r) for d in range(directions) for r in range(runs)]
        # every chunk's forward group, then, half the list away, its
        # backward group; a chunk of runs starts where the one before ends
        chunks = [rs for _, rs in groups[:len(groups) // per_chunk]]
        assert [rs for _, rs in groups] == chunks * per_chunk
        assert all(rs.step == 1 and rs for rs in chunks)
        assert [rs.start for rs in chunks] == [0, *(rs.stop for rs in chunks[:-1])]
        sides = [range(0, 1), range(1, 2)] if paired else [range(directions)]
        assert [ds for ds, _ in groups] == [ds for ds in sides for _ in chunks]
        # the caller runs the last chunk's last direction
        assert groups[-1][0].stop == directions and groups[-1][1].stop == runs

    def test_cut_of_three_runs(self):
        # the chunks of a cut are in run order, the larger last
        forward, backward, both = range(0, 1), range(1, 2), range(0, 2)
        assert cli._cut(2, 3, 5) == ([(forward, range(0, 1)), (forward, range(1, 3)),
                                      (backward, range(0, 1)), (backward, range(1, 3))], True)
        assert cli._cut(2, 3, 1) == ([(both, range(0, 3))], False)
        assert cli._cut(1, 3, 2) == ([(range(0, 1), range(0, 1)),
                                      (range(0, 1), range(1, 3))], False)

    #: fast MUs beside a wide DPU, whose reduction tree makes a dot long
    #: enough to hide the MU latency of even one neuron: the cost model
    #: refuses no network of the cases
    HARDWARE = {"dpu_width": 2**16, "mu_comm_cycles": 1,
                "op_latency": dict.fromkeys(arch.DEFAULT_OP_LATENCY, 1)}

    def write_network(self, tmp, net, fault):
        """The network's and hardware's arguments, the blob written with
        ``fault`` in it."""
        desc, blob, hw = tmp / "net.json", tmp / "net.bin", tmp / "hw.json"
        hw.write_text(json.dumps(self.HARDWARE), encoding="utf-8")
        save_descriptor(net, desc)
        save_weights(net, random_weights(net, 7), blob)
        data = bytearray(blob.read_bytes())
        if fault and fault[0] == "nan":
            for i, d, array in fault[1]:
                layer = net.layers[i]
                at = 16 + sum(model.cell_weight_bytes(l, 4) * l.num_directions
                              for l in net.layers[:i]) + model.cell_weight_bytes(layer, 4) * d
                for name, values in _zero_cell(layer).parts():
                    if name == array:
                        break
                    at += values.size * 4
                data[at:at + 4] = struct.pack("<f", float("nan"))
        elif fault and fault[0] == "short":
            del data[-fault[1]:]
        blob.write_bytes(bytes(data))
        return ["--network", str(desc), "--weights", str(blob), "--hw-config", str(hw)]

    @staticmethod
    def fail_lane(mp, lane, log):
        """Makes the pass of ``lane`` (run, layer, direction) raise, in
        whichever process runs it, and logs the layer of each pass of that
        run: each run's hook goes to the passes with its run's index."""
        run, i, d = lane
        real_infer, real_run, real_load = (model.network_infer, model.run_direction,
                                           netio.load_descriptor)
        loaded = []

        def load_descriptor(path):
            loaded.append(real_load(path))
            return loaded[-1]

        def network_infer(net, weights, inp, hooks, swap):
            return real_infer(net, weights, inp, list(enumerate(hooks)), swap)

        def run_direction(weights, frames, named_hook):
            r, hook = named_hook
            layer = [l is weights.layer for l in loaded[-1].layers].index(True)
            if r == run:
                TestConcurrently.record(log, "pass", layer)
                if (layer, frames.strides[0] < 0) == (i, d == 1):
                    raise model.NumericError(f"run {r} failed")
            return real_run(weights, frames, hook)

        mp.setattr(netio, "load_descriptor", load_descriptor)
        mp.setattr(arch, "network_infer", network_infer)
        mp.setattr(model, "run_direction", run_direction)

    @staticmethod
    def log_reads(mp, net, log):
        """Logs the layer of each weight read."""
        real, ends = os.preadv, []
        for layer in net.layers:
            ends.append((ends[-1] if ends else 16)
                        + model.cell_weight_bytes(layer, 4) * layer.num_directions)

        def preadv(fd, buffers, offset):
            TestConcurrently.record(log, "read", sum(end <= offset for end in ends))
            return real(fd, buffers, offset)

        mp.setattr(netio.os, "preadv", preadv)

    def answer(self, tmp, net, argv, fault, slots):
        """What ``argv`` run with ``slots`` CPU slots, in a directory of its
        own, gives: its exit code, stdout, stderr and {name: bytes} of the
        files it wrote; the last layer any process read weights of; and
        with a failing lane, the last layer its run reached.  No process
        reads a layer past one a process sharing its runs failed to read,
        or runs a failed run past the layer it failed in."""
        where, log = tmp / str(slots), tmp / f"log{slots}"
        where.mkdir()
        log.touch()
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(where)
            mp.setattr(cli, "_cpu_slots", lambda: slots)
            self.log_reads(mp, net, log)
            if fault and fault[0] == "lane":
                self.fail_lane(mp, fault[1], log)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_cli(*argv, "--out", "out.json")
        last = {}
        for kind, layer in TestConcurrently.records(log):
            last[kind] = max(last.get(kind, 0), int(layer))
        return rc, out.getvalue(), err.getvalue(), {
            p.name: p.read_bytes() for p in sorted(where.iterdir())}, last

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_cut_gives_one_process_answer(self, seed):
        net, argv, slots, fault = case = _cut_case(seed)
        note(case)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = [*argv, *self.write_network(tmp, net, fault)]
            one = self.answer(tmp, net, argv, fault, 1)
            assert self.answer(tmp, net, argv, fault, slots) == one
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
