import hashlib
import json
import os
import struct
import warnings

import numpy as np
import pytest

from conftest import (random_frames, random_network, random_weights,
                      save_descriptor, save_sequence, save_weights)
from epursim import cli, netio
from epursim.model import GATES, STACK_ORDER, NumericError, Precision, Sequence
from epursim.netio import (MAX_SIZE, FormatError, descriptor_from_json,
                           descriptor_to_bytes, load_descriptor, load_sequence,
                           load_weights, weight_blob_chunks)
from epursim.presets import (PRESETS, custom_descriptor, preset_descriptor,
                             random_parts)


class TestDescriptor:
    def test_json_round_trip(self, tmp_path):
        net, _ = random_network(3)
        path = tmp_path / "net.json"
        save_descriptor(net, path)
        assert load_descriptor(path) == net

    def test_defaults_fill_in(self):
        net = descriptor_from_json({
            "input_dim": 4,
            "layers": [{"hidden_size": 4, "input_size": 4}],
        })
        assert net.numeric_precision is Precision.fp32
        assert not net.layers[0].peephole

    def test_malformed_json_is_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_descriptor(path)

    def test_missing_field_is_format_error(self):
        with pytest.raises(FormatError):
            descriptor_from_json({"layers": []})

    @pytest.mark.parametrize("layer,match", [
        pytest.param({"peephole": "false"}, "peephole must be true or false",
                     id="peephole-string"),
        pytest.param({"peephole": 1}, "peephole must be true or false", id="peephole-int"),
        pytest.param({"hidden_size": 2.7},
                     "hidden_size must be a positive integer, got 2.7", id="size-float"),
        pytest.param({"hidden_size": 4.0}, "hidden_size must be a positive integer",
                     id="size-integral-float"),
        pytest.param({"hidden_size": "4"}, "hidden_size must be a positive integer",
                     id="size-string"),
        pytest.param({"input_size": True},
                     "input_size must be a positive integer, got true", id="size-bool"),
        pytest.param({"hidden_size": 0}, "hidden_size must be a positive integer",
                     id="size-zero"),
        pytest.param({"hidden_size": -3}, "hidden_size must be a positive integer",
                     id="size-negative"),
        pytest.param({"hidden_size": 2**31},
                     r"layers\[0\].hidden_size must be at most 2147483647, got 2147483648",
                     id="size-over-int32"),
        pytest.param({"direction": "sideways"},
                     "direction must be forward_only or bidirectional", id="direction"),
        pytest.param({"gates": 4}, r'unknown key\(s\) in layers\[0\]: "gates"',
                     id="extra-key"),
    ])
    def test_layer_fields_are_not_coerced(self, layer, match):
        doc = {"input_dim": 4, "layers": [{"hidden_size": 4, "input_size": 4, **layer}]}
        with pytest.raises(FormatError, match=match):
            descriptor_from_json(doc)

    @pytest.mark.parametrize("top,match", [
        pytest.param({"input_dim": 4.0}, "input_dim must be a positive integer",
                     id="dim-float"),
        pytest.param({"input_dim": False}, "input_dim must be a positive integer",
                     id="dim-bool"),
        pytest.param({"input_dim": 10**30}, "input_dim must be at most 2147483647",
                     id="dim-huge"),
        pytest.param({"numeric_precision": "fp64"},
                     "numeric_precision must be fp32 or fp16", id="precision"),
        pytest.param({"layers": []}, "layers must be a non-empty list", id="no-layers"),
        pytest.param({"layers": [4]}, r"layers\[0\] is not a JSON object",
                     id="layer-not-object"),
        pytest.param({"name": "x"}, r'unknown key\(s\) in descriptor: "name"',
                     id="extra-key"),
    ])
    def test_network_fields_are_not_coerced(self, top, match):
        doc = {"input_dim": 4, "layers": [{"hidden_size": 4, "input_size": 4}], **top}
        with pytest.raises(FormatError, match=match):
            descriptor_from_json(doc)

    def test_largest_sizes_load(self):
        net = descriptor_from_json({"input_dim": MAX_SIZE, "layers": [
            {"hidden_size": MAX_SIZE, "input_size": MAX_SIZE}]})
        assert net.input_dim == net.layers[0].hidden_size == MAX_SIZE == 2**31 - 1

    def test_not_an_object(self):
        with pytest.raises(FormatError, match="descriptor is not a JSON object"):
            descriptor_from_json([])

    @pytest.mark.parametrize("precision", [Precision.fp32, Precision.fp16])
    def test_every_written_descriptor_loads(self, precision):
        # what gen-network writes: every preset, and a custom stack
        nets = [preset_descriptor(name, precision) for name in PRESETS]
        nets.append(custom_descriptor(3, 5, True, True, 7, precision))
        for net in nets:
            assert descriptor_from_json(json.loads(descriptor_to_bytes(net))) == net


class TestWeightBlob:
    @pytest.mark.parametrize("precision", [Precision.fp32, Precision.fp16])
    def test_round_trip(self, tmp_path, precision):
        net, weights = random_network(11, precision=precision)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        back = load_weights(net, path)
        for li, layer in enumerate(net.layers):
            for d in range(layer.num_directions):
                a, b = weights[li][d].parts(), back[li][d].parts()
                assert [name for name, _ in a] == [name for name, _ in b]
                for (_, x), (_, y) in zip(a, b):
                    assert np.array_equal(x, y)

    def test_header_layout(self, tmp_path):
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        raw = path.read_bytes()
        magic, version, tag, reserved = struct.unpack("<4sIII", raw[:16])
        assert magic == b"LSTW"
        assert version == 1
        assert tag == 0 and reserved == 0

    def test_payload_order_is_documented_order(self, tmp_path):
        # one tiny layer: first values after the header are row 0 of the
        # input gate's forward matrix
        from epursim.model import LayerDescriptor, NetworkDescriptor
        from conftest import cell_for_layer, weights_for
        layer = LayerDescriptor(2, 3)
        net = NetworkDescriptor((layer,), input_dim=3)
        weights = weights_for(net, lambda i, d, l: cell_for_layer(l, 5))
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        payload = np.frombuffer(path.read_bytes(), dtype="<f4", offset=16)
        want = dict(weights[0][0].parts())["input.w_x"].reshape(-1)
        assert np.array_equal(payload[:6], want)

    def test_bad_magic(self, tmp_path):
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_weights(net, path)

    def test_unknown_precision_tag(self, tmp_path):
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown precision tag 2$"):
            load_weights(net, path)

    def test_truncated_blob(self, tmp_path):
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="short"):
            load_weights(net, path)

    def test_blob_that_shrinks_during_the_read(self, tmp_path, monkeypatch):
        # the size check passed on the whole blob, then the file lost bytes
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(netio.os, "fstat", lambda _fd: os.stat_result(
            (0,) * 6 + (full,) + (0,) * 3))
        with pytest.raises(FormatError, match="blob too short$"):
            load_weights(net, path)

    @pytest.mark.parametrize("values", [0, 1000], ids=["header-only", "some-values"])
    def test_short_blob_is_refused_before_allocation(self, tmp_path, capsys, values):
        # one stacked forward matrix of this layer would take 16 EiB, so the
        # blob's size must be checked against the descriptor before any
        # weight array is allocated
        size = 2**30
        assert size < MAX_SIZE
        desc, path = tmp_path / "net.json", tmp_path / "w.bin"
        desc.write_text(json.dumps({"input_dim": size, "layers": [
            {"hidden_size": size, "input_size": size}]}), encoding="utf-8")
        path.write_bytes(struct.pack("<4sIII", b"LSTW", 1, 0, 0) + bytes(4 * values))
        with pytest.raises(FormatError, match="short"):
            load_weights(load_descriptor(desc), path)
        rc = cli.main(["simulate", "--network", str(desc), "--weights", str(path),
                       "--synthetic-t", "2"])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "short" in err
        assert len(err.strip().splitlines()) == 1, err

    def test_trailing_bytes(self, tmp_path):
        net, weights = random_network(1)
        path = tmp_path / "w.bin"
        save_weights(net, weights, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="trailing"):
            load_weights(net, path)

    def test_precision_mismatch(self, tmp_path):
        net16, weights16 = random_network(1, precision=Precision.fp16)
        path = tmp_path / "w.bin"
        save_weights(net16, weights16, path)
        net32, _ = random_network(1, precision=Precision.fp32)
        with pytest.raises(FormatError, match="precision"):
            load_weights(net32, path)


class TestBlobFromDraws:
    """gen-network writes the blob from the generator's draws, one array at
    a time; the bytes are those of the weight sets the draws fill."""

    # sha256 of gen-network's blob for --layers 2 --hidden 16 --bidirectional
    # --peephole --input-dim 5 (seed 0), recorded before the blob was written
    # from the draws
    GOLDEN_SHA256 = {
        "fp32": "f1c1bca4913b54b796901bca5bd9ec5b8e502090d0b9b6f9c480c1860430655b",
        "fp16": "8532e90563044230dbd6468d196551a249643ce70f91c682b77a9308493ab3ae",
    }

    @pytest.mark.parametrize("precision", ["fp32", "fp16"])
    def test_gen_network_blob_golden(self, tmp_path, precision):
        blob = tmp_path / "w.bin"
        rc = cli.main(["gen-network", "--layers", "2", "--hidden", "16",
                       "--bidirectional", "--peephole", "--input-dim", "5",
                       "--precision", precision, "--out-descriptor",
                       str(tmp_path / "n.json"), "--out-weights", str(blob)])
        assert rc == cli.EXIT_OK
        assert hashlib.sha256(blob.read_bytes()).hexdigest() == self.GOLDEN_SHA256[precision]

    @pytest.mark.parametrize("precision", [Precision.fp32, Precision.fp16])
    def test_chunks_are_the_saved_weight_sets(self, tmp_path, precision):
        net = custom_descriptor(2, 6, True, True, 5, precision)
        path = tmp_path / "w.bin"
        save_weights(net, random_weights(net, 9), path)
        assert b"".join(weight_blob_chunks(net, random_parts(net, 9))) == path.read_bytes()

    @pytest.mark.parametrize("precision,value", [(Precision.fp32, np.inf),
                                                 (Precision.fp16, 7e4)],
                             ids=["inf", "fp16-overflow"])
    def test_non_finite_array_is_refused_by_name(self, precision, value):
        net = custom_descriptor(1, 4, False, True, 3, precision)
        parts = [(name, arr.copy()) for name, arr in random_parts(net, 0)]
        dict(parts)["forget.w_h"][1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the fp16 cast overflows
            with pytest.raises(NumericError,
                               match=r"^forget\.w_h contains non-finite values$"):
                list(weight_blob_chunks(net, parts))


class TestWeightsHeldOnce:
    """A weight set holds each weight once: the per-gate arrays of its
    ``parts`` are rows of the stacked arrays the datapath reads."""

    @pytest.mark.parametrize("source", ["loaded", "generated"])
    def test_gates_are_views_of_the_stacked_arrays(self, tmp_path, source):
        net = custom_descriptor(2, 6, True, True, 5)
        weights = random_weights(net, 4)
        if source == "loaded":
            path = tmp_path / "w.bin"
            save_weights(net, weights, path)
            weights = load_weights(net, path)
        for layer, sets in zip(net.layers, weights):
            h = layer.hidden_size
            for ws in sets:
                wx, wh, b = ws.stacked()
                peep_if, peep_o = ws.stacked_peepholes()
                assert all(x is y for x, y in zip(ws.stacked(), ws.stacked()))
                assert all(x is y for x, y in zip(ws.stacked_peepholes(),
                                                  ws.stacked_peepholes()))
                peeps = {"input": peep_if[0], "forget": peep_if[1], "output": peep_o}
                p = dict(ws.parts())
                for g in GATES:
                    i = STACK_ORDER.index(g)
                    rows = slice(i * h, (i + 1) * h)
                    for field, stacked in (("w_x", wx[rows]), ("w_h", wh[rows]),
                                           ("bias", b[rows])):
                        assert np.shares_memory(p[f"{g}.{field}"], stacked)
                        assert np.array_equal(p[f"{g}.{field}"], stacked)
                    if g in peeps:
                        assert np.shares_memory(p[f"{g}.peephole"], peeps[g])


class TestSequences:
    def test_binary_round_trip(self, tmp_path):
        net, _ = random_network(9)
        seq = random_frames(net, 7, 1)
        path = tmp_path / "in.bin"
        save_sequence(seq, path)
        back = load_sequence(path)
        assert np.array_equal(back.frames, seq.frames.astype(np.float32))

    def test_csv_round_trip(self, tmp_path):
        frames = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "in.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        back = load_sequence(path)
        assert np.array_equal(back.frames, frames)

    def test_header_is_t_then_dim(self, tmp_path):
        seq = Sequence(np.zeros((3, 5), dtype=np.float32))
        path = tmp_path / "in.bin"
        save_sequence(seq, path)
        t, dim = struct.unpack("<II", path.read_bytes()[:8])
        assert (t, dim) == (3, 5)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "in.bin"
        path.write_bytes(struct.pack("<II", 3, 5) + b"\x00" * 4 * 7)
        with pytest.raises(FormatError, match="values follow"):
            load_sequence(path)

    def test_bad_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_sequence(path)
