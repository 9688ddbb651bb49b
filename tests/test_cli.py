import contextlib
import csv
import errno
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import pytest

from conftest import random_weights, save_descriptor, save_weights
from epursim import arch, cli, model, presets, sched
from epursim.netio import load_sequence

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


def run_module(*argv, **env):
    """``python -m epursim`` in a new process, on this checkout's package."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "epursim", *argv],
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

    def test_module_entry_point_prints_help(self):
        proc = run_module("--help")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.startswith("usage: epursim ")


class TestInfer:
    def test_oracle_run_and_output(self, gen, tmp_path):
        desc, blob = gen
        out = tmp_path / "h.bin"
        rc = run_cli("infer", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "4", "--save-output", str(out),
                     "--out", str(tmp_path / "report.json"))
        assert rc == cli.EXIT_OK
        seq = load_sequence(out)
        assert seq.frames.shape == (4, 16)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["output_finite"]


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
        cfg = arch.HardwareConfig().to_json()
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


    def test_one_oracle_run_serves_both_sides(self, gen, tmp_path, monkeypatch):
        # counted in a file, which a run in a forked child writes to as well
        real, calls = model.network_infer, tmp_path / "calls"

        def counted(*args):
            with open(calls, "a") as f:
                f.write("network_infer\n")
            return real(*args)

        monkeypatch.setattr(model, "network_infer", counted)
        desc, blob = gen
        out = tmp_path / "cmp.json"
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "5", "--out", str(out))
        assert rc == cli.EXIT_OK
        assert calls.read_text() == "network_infer\n"
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
            traffic.input_bytes += 1
            return traffic

        monkeypatch.setattr(arch, "dram_traffic", inflated)
        assert self.simulate(gen) == cli.EXIT_CHECK
        assert "dram_counters_consistent" in capsys.readouterr().err
        desc, blob = gen
        rc = run_cli("compare", "--network", str(desc), "--weights", str(blob),
                     "--synthetic-t", "3")
        assert rc == cli.EXIT_CHECK

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

    def test_gen_network_without_shape_exits_2(self, tmp_path, capsys):
        rc = run_cli("gen-network", "--layers", "2", "--out-descriptor",
                     str(tmp_path / "d.json"), "--out-weights", str(tmp_path / "w.bin"))
        assert rc == cli.EXIT_USAGE
        assert self.one_line(capsys) == "gen-network needs --preset or --layers/--hidden\n"
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
        monkeypatch.setattr(arch, "simulate", lambda *a: started.append("datapath"))
        monkeypatch.setattr(model, "network_infer", lambda *a: started.append("oracle"))
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
        def exhausted(*args):
            raise MemoryError("Unable to allocate 1.25 GiB for an array")

        monkeypatch.setattr(model, "network_infer", exhausted)
        out = tmp_path / "sim.json"
        assert self.simulate(gen, "--out", str(out)) == cli.EXIT_CAPACITY
        assert self.one_line(capsys).startswith("host memory error: Unable to allocate")
        assert not out.exists()

    def test_simulated_run_error_wins_over_the_oracle(self, gen, monkeypatch, capsys):
        # the oracle fails first in time; the datapath comes first in call order
        def datapath(*args):
            time.sleep(0.05)
            raise model.NumericError("datapath overflow")

        def oracle(*args):
            raise MemoryError("oracle allocation")

        monkeypatch.setattr(arch, "simulate", datapath)
        monkeypatch.setattr(model, "network_infer", oracle)
        assert self.simulate(gen) == cli.EXIT_NUMERIC
        assert self.one_line(capsys) == "numeric error: datapath overflow\n"

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


def _peak_rss_bytes(*argv) -> int:
    """The peak RSS of a fresh process that runs the command ``argv``."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in KiB on Linux
    return int(proc.stdout.splitlines()[-1]) * unit


class TestHostMemory:
    def test_simulate_holds_the_weights_once(self, tmp_path):
        # the peak RSS a ~33 MB blob adds to simulate, over a tiny net's:
        # holding the weights twice (the whole blob beside per-gate copies,
        # or per-gate copies beside stacked ones) would add twice its size
        pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))

        def peak_bytes(layers, hidden):
            desc, blob = tmp_path / f"{hidden}.json", tmp_path / f"{hidden}.bin"
            assert run_cli("gen-network", "--layers", str(layers), "--hidden", str(hidden),
                           "--seed", "1", "--out-descriptor", str(desc),
                           "--out-weights", str(blob)) == cli.EXIT_OK
            proc = subprocess.run(
                [sys.executable, "-c", LAUNCHER, sys.executable, "-c", PEAK_RSS_CHILD,
                 "simulate", "--network", str(desc), "--weights", str(blob),
                 "--synthetic-t", "2", "--policy", "conventional"],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in KiB on Linux
            return int(proc.stdout.splitlines()[-1]) * unit, blob.stat().st_size

        base, _ = peak_bytes(1, 8)
        peak, blob_bytes = peak_bytes(16, 256)
        assert blob_bytes > 32 * 10**6
        assert peak - base < 1.5 * blob_bytes, (peak - base) / blob_bytes

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


class TestConcurrently:
    """cli._concurrently: results in call order, at most one running call
    per CPU with the caller running calls too, every child reaped, and the
    first failing call's error.  A call in a forked child changes nothing
    in this process, so each call records what it saw in a file."""

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

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_results_in_call_order_on_at_most_one_thread_per_cpu(self, monkeypatch,
                                                                  tmp_path, n_cpus):
        self.cpus(monkeypatch, n_cpus)
        log = tmp_path / "calls"

        def call(i):
            start = time.monotonic()
            time.sleep(0.005 * (7 - i))  # later calls finish first
            self.record(log, i, os.getpid(), start, time.monotonic())
            return i

        assert cli._concurrently([partial(call, i) for i in range(7)]) == list(range(7))
        self.no_child_left()
        recs = self.records(log)
        assert sorted(int(r[0]) for r in recs) == list(range(7))
        # an end sorts before a start at the same instant
        edges = sorted([(float(r[2]), 1) for r in recs] + [(float(r[3]), -1) for r in recs])
        running = [sum(step for _, step in edges[:k + 1]) for k in range(len(edges))]
        assert max(running) <= n_cpus
        pids = {int(r[1]) for r in recs}
        assert os.getpid() in pids  # the caller runs calls
        assert len(pids) == 1 if n_cpus == 1 else len(pids) > 1

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_first_failing_call_in_call_order_is_raised(self, monkeypatch, tmp_path,
                                                        n_cpus):
        # the first n_cpus - 1 calls go to children, which wait until the
        # next call, on the caller, has failed: the failure of "first" comes
        # later in time but first in call order, and the calls after the
        # caller's never start
        self.cpus(monkeypatch, n_cpus)
        log, release, caller = tmp_path / "calls", tmp_path / "release", os.getpid()

        def wait_in_a_child():
            deadline = time.monotonic() + 10
            while (os.getpid() != caller and not release.exists()
                   and time.monotonic() < deadline):
                time.sleep(0.001)

        def fail(name):
            wait_in_a_child()
            self.record(log, name)
            release.touch()
            raise ValueError(name)

        calls = ([partial(fail, "first")] + [wait_in_a_child] * (n_cpus - 2)
                 + [partial(fail, "second")] + [partial(self.record, log, "after")] * 2)
        with pytest.raises(ValueError, match="^first$"):
            cli._concurrently(calls)
        self.no_child_left()
        ran = [r[0] for r in self.records(log)]
        assert ran == (["first"] if n_cpus == 1 else ["second", "first"])

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

    def test_cpu_count_stands_in_for_the_affinity(self, monkeypatch):
        # where os has no sched_getaffinity; an unknown count is one CPU
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        monkeypatch.setattr(cli.os, "fork", lambda: pytest.fail("forked with one CPU"))
        assert cli._concurrently([lambda: 1, lambda: 2]) == [1, 2]

    def test_killed_run_exits_5(self, gen, monkeypatch, capsys):
        # both runs kill themselves if they run in a child, and never the
        # test process itself
        self.cpus(monkeypatch, 2)
        caller = os.getpid()

        def killed_in_a_child(real):
            def run(*args):
                if os.getpid() != caller:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)
            return run

        monkeypatch.setattr(arch, "simulate", killed_in_a_child(arch.simulate))
        monkeypatch.setattr(model, "network_infer", killed_in_a_child(model.network_infer))
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
        # the datapath, call 0 of 2, is the one that runs in a child
        self.cpus(monkeypatch, 2)
        caller, real = os.getpid(), arch.simulate

        def datapath(*args):
            if os.getpid() != caller:
                raise error
            return real(*args)

        monkeypatch.setattr(arch, "simulate", datapath)
        desc, blob = gen
        assert run_cli("simulate", "--network", str(desc), "--weights", str(blob),
                       "--synthetic-t", "3") == rc
        assert TestBoundary.one_line(capsys) == line + "\n"
        self.no_child_left()

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
    ])
    def test_outputs_do_not_depend_on_the_cpus(self, tiny, tmp_path, monkeypatch,
                                               capsys, cmd):
        # calibrated alphas are set inside each run: one left behind in a
        # child would change the report
        seen = []
        for n_cpus in (1, 2, 3):
            self.cpus(monkeypatch, n_cpus)
            out = tmp_path / f"report{n_cpus}.json"
            assert run_cli(*cmd, *tiny, "--out", str(out)) == cli.EXIT_OK
            seen.append((capsys.readouterr(), out.read_bytes()))
            monkeypatch.undo()
        assert seen[0] == seen[1] == seen[2]
