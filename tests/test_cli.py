import csv
import json
from pathlib import Path

import pytest

from epursim import cli, model, presets, sched
from epursim.netio import load_sequence, save_descriptor

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


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
        from epursim.arch import baseline_config
        cfg = baseline_config().to_json()
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

    def test_trace_csv_golden(self, tmp_path):
        """A layer whose 4400-byte forward rows overflow the row buffer, then
        a bidirectional layer whose rows are pinned; the CSV as recorded
        from the event-list implementation the columnar traces replaced."""
        desc, csv_path = tmp_path / "net.json", tmp_path / "trace.csv"
        desc.write_text(json.dumps({"input_dim": 1100, "layers": [
            {"hidden_size": 1, "input_size": 1100},
            {"hidden_size": 1, "input_size": 1, "direction": "bidirectional"}]}),
            encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="row buffer"):
            rc = run_cli("analyze-reuse", "--network", str(desc), "--policy", "mwl",
                         "--t", "2", "--trace-csv", str(csv_path))
        assert rc == cli.EXIT_OK
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
