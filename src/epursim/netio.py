"""On-disk formats: network descriptor JSON, weight blobs, input sequences.

Weight blob layout (little-endian IEEE-754 throughout):

    header   16 bytes: magic b"LSTW", u32 version (1), u32 precision tag
             (0 = fp32, 1 = fp16), u32 reserved
    payload  per layer, per direction, gates in order
             [input, forget, cell_updater, output]; within a gate
             W_gx (row-major, one row per neuron), W_gh (row-major),
             bias, then the peephole vector for peephole layers
             (cell_updater has none).

Input sequences: an 8-byte header (u32 T, u32 dim) followed by T*dim fp32
values, or a headerless CSV with one frame per row.
"""
from __future__ import annotations

import json
import struct
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .model import (GATES, Direction, GateParams, LayerDescriptor,
                    NetworkDescriptor, NetworkWeights, Precision, Sequence,
                    WeightSet)

MAGIC = b"LSTW"
VERSION = 1
_PRECISION_TAG = {Precision.fp32: 0, Precision.fp16: 1}
_TAG_PRECISION = {v: k for k, v in _PRECISION_TAG.items()}


class FormatError(ValueError):
    """Malformed or inconsistent on-disk data."""


# ---------------------------------------------------------------------------
# network descriptor JSON

def descriptor_to_json(net: NetworkDescriptor) -> dict:
    return {
        "input_dim": net.input_dim,
        "numeric_precision": net.numeric_precision.value,
        "layers": [
            {
                "hidden_size": l.hidden_size,
                "input_size": l.input_size,
                "direction": l.direction.value,
                "peephole": l.peephole,
            }
            for l in net.layers
        ],
    }


def descriptor_from_json(obj: dict) -> NetworkDescriptor:
    try:
        layers = tuple(
            LayerDescriptor(
                hidden_size=int(l["hidden_size"]),
                input_size=int(l["input_size"]),
                direction=Direction(l.get("direction", "forward_only")),
                peephole=bool(l.get("peephole", False)),
            )
            for l in obj["layers"]
        )
        return NetworkDescriptor(
            layers=layers,
            input_dim=int(obj["input_dim"]),
            numeric_precision=Precision(obj.get("numeric_precision", "fp32")),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad network descriptor: {e}") from e


def descriptor_to_bytes(net: NetworkDescriptor) -> bytes:
    return (json.dumps(descriptor_to_json(net), indent=2) + "\n").encode("utf-8")


def save_descriptor(net: NetworkDescriptor, path: str | Path) -> None:
    Path(path).write_bytes(descriptor_to_bytes(net))


def load_descriptor(path: str | Path) -> NetworkDescriptor:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e
    return descriptor_from_json(obj)


# ---------------------------------------------------------------------------
# weight blob

def _gate_arrays(layer: LayerDescriptor, gate: str, ws: WeightSet):
    p = ws.gates[gate]
    arrs = [p.w_x, p.w_h, p.bias]
    if layer.peephole and gate != "cell_updater":
        arrs.append(p.peephole)
    return arrs


def weight_blob_chunks(net: NetworkDescriptor, weights: NetworkWeights) -> Iterator[bytes]:
    """The weight blob, as the header and then one chunk per array."""
    dt = np.dtype(net.numeric_precision.storage_dtype).newbyteorder("<")
    yield struct.pack("<4sIII", MAGIC, VERSION,
                      _PRECISION_TAG[net.numeric_precision], 0)
    for i, layer in enumerate(net.layers):
        for d in range(layer.num_directions):
            ws = weights.layers[i][d]
            for gate in GATES:
                for arr in _gate_arrays(layer, gate, ws):
                    yield np.ascontiguousarray(arr, dtype=dt).tobytes()


def save_weights(net: NetworkDescriptor, weights: NetworkWeights,
                 path: str | Path) -> None:
    with open(path, "wb") as f:
        f.writelines(weight_blob_chunks(net, weights))


def load_weights(net: NetworkDescriptor, path: str | Path) -> NetworkWeights:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header")
    magic, version, tag, _ = struct.unpack("<4sIII", raw[:16])
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if tag not in _TAG_PRECISION:
        raise FormatError(f"{path}: unknown precision tag {tag}")
    if _TAG_PRECISION[tag] != net.numeric_precision:
        raise FormatError(
            f"{path}: blob precision {_TAG_PRECISION[tag].value} does not match "
            f"descriptor precision {net.numeric_precision.value}"
        )
    dt = np.dtype(net.numeric_precision.storage_dtype).newbyteorder("<")
    if (len(raw) - 16) % dt.itemsize:
        raise FormatError(f"{path}: payload is not a whole number of "
                          f"{dt.itemsize}-byte values")
    data = np.frombuffer(raw, dtype=dt, offset=16)

    pos = 0

    def take(shape) -> np.ndarray:
        nonlocal pos
        n = int(np.prod(shape))
        if pos + n > data.size:
            raise FormatError(f"{path}: blob too short")
        out = data[pos:pos + n].reshape(shape).astype(net.numeric_precision.storage_dtype)
        pos += n
        return out

    layers = []
    for layer in net.layers:
        h, nx = layer.hidden_size, layer.input_size
        dirs = []
        for _ in range(layer.num_directions):
            gates = {}
            for gate in GATES:
                w_x = take((h, nx))
                w_h = take((h, h))
                bias = take((h,))
                peep = None
                if layer.peephole and gate != "cell_updater":
                    peep = take((h,))
                gates[gate] = GateParams(w_x, w_h, bias, peep)
            dirs.append(WeightSet(layer, gates, net.numeric_precision))
        layers.append(dirs)
    if pos != data.size:
        raise FormatError(f"{path}: {data.size - pos} trailing values in blob")
    return NetworkWeights(layers)


# ---------------------------------------------------------------------------
# input sequences

def sequence_to_bytes(seq: Sequence) -> bytes:
    return (struct.pack("<II", seq.length, seq.dim)
            + np.ascontiguousarray(seq.frames, dtype="<f4").tobytes())


def save_sequence(seq: Sequence, path: str | Path) -> None:
    Path(path).write_bytes(sequence_to_bytes(seq))


def load_sequence(path: str | Path) -> Sequence:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            with warnings.catch_warnings():
                # an empty file is rejected below, as a sequence of no frames
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                frames = np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
        except ValueError as e:
            raise FormatError(f"{path}: bad CSV sequence: {e}") from e
        return Sequence(frames)
    raw = path.read_bytes()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated sequence header")
    t, dim = struct.unpack("<II", raw[:8])
    if (len(raw) - 8) % 4:
        raise FormatError(f"{path}: payload is not a whole number of 4-byte values")
    data = np.frombuffer(raw, dtype="<f4", offset=8)
    if data.size != t * dim:
        raise FormatError(f"{path}: header says {t}x{dim} but {data.size} values follow")
    return Sequence(data.reshape(t, dim).astype(np.float32))
