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
import math
import os
import struct
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .model import (ACC_DTYPE, Direction, LayerDescriptor, NetworkDescriptor,
                    NetworkWeights, Precision, Sequence, WeightSet, _as_finite,
                    cell_weight_bytes, network_weight_bytes)

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


#: the largest size a descriptor may give: traces store steps and neuron
#: indices as 32-bit integers
MAX_SIZE = 2**31 - 1


def _positive_int(v) -> bool:
    return type(v) is int and v > 0


def _one_of(enum):
    values = [m.value for m in enum]
    return (lambda v: v in values), " or ".join(values)


# field: (accepts the JSON value?, what it accepts, default; None: required)
_NETWORK_FIELDS = {
    "input_dim": (_positive_int, "a positive integer", None),
    "numeric_precision": (*_one_of(Precision), "fp32"),
    "layers": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list", None),
}
_LAYER_FIELDS = {
    "hidden_size": (_positive_int, "a positive integer", None),
    "input_size": (_positive_int, "a positive integer", None),
    "direction": (*_one_of(Direction), "forward_only"),
    "peephole": (lambda v: type(v) is bool, "true or false", False),
}


def _fields(obj, spec: dict, where: str) -> dict:
    """The fields of a descriptor object, absent optional ones defaulted;
    FormatError on an unknown key, a missing required one or a value of the
    wrong JSON type or range, sizes above MAX_SIZE included (nothing is
    coerced)."""
    if not isinstance(obj, dict):
        raise FormatError(f"bad network descriptor: {where} is not a JSON object")
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise FormatError(f"bad network descriptor: unknown key(s) in {where}: "
                          + ", ".join(map(json.dumps, unknown)))
    out = {}
    for key, (accepts, want, default) in spec.items():
        if key not in obj and default is None:
            raise FormatError(f"bad network descriptor: {where} has no {key}")
        out[key] = obj.get(key, default)
        if not accepts(out[key]):
            raise FormatError(f"bad network descriptor: {where}.{key} must be "
                              f"{want}, got {json.dumps(out[key])}")
        if accepts is _positive_int and out[key] > MAX_SIZE:
            raise FormatError(f"bad network descriptor: {where}.{key} must be at "
                              f"most {MAX_SIZE}, got {out[key]}")
    return out


def descriptor_from_json(obj) -> NetworkDescriptor:
    """The descriptor of its JSON form, parsed strictly (see ``_fields``)."""
    top = _fields(obj, _NETWORK_FIELDS, "descriptor")
    layers = [_fields(l, _LAYER_FIELDS, f"layers[{i}]")
              for i, l in enumerate(top["layers"])]
    try:
        return NetworkDescriptor(
            layers=tuple(LayerDescriptor(l["hidden_size"], l["input_size"],
                                         Direction(l["direction"]), l["peephole"])
                         for l in layers),
            input_dim=top["input_dim"],
            numeric_precision=Precision(top["numeric_precision"]),
        )
    except ValueError as e:  # layer widths that do not chain
        raise FormatError(f"bad network descriptor: {e}") from e


def descriptor_to_bytes(net: NetworkDescriptor) -> bytes:
    return (json.dumps(descriptor_to_json(net), indent=2) + "\n").encode("utf-8")


def load_descriptor(path: str | Path) -> NetworkDescriptor:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e
    return descriptor_from_json(obj)


# ---------------------------------------------------------------------------
# weight blob

def weight_blob_chunks(net: NetworkDescriptor, parts: Iterable[tuple[str, np.ndarray]]
                       ) -> Iterator[bytes | np.ndarray]:
    """The weight blob of ``parts``, every cell's (name, array) pairs in blob
    order, as the header bytes and then each array C-ordered at storage
    precision (each a bytes-like chunk, as ``file.writelines`` takes).
    NumericError if an array is not finite at storage precision."""
    dt = np.dtype(net.numeric_precision.storage_dtype).newbyteorder("<")
    yield struct.pack("<4sIII", MAGIC, VERSION,
                      _PRECISION_TAG[net.numeric_precision], 0)
    for name, arr in parts:
        yield _as_finite(name, np.ascontiguousarray(arr, dtype=dt))


def load_weights(net: NetworkDescriptor, path: str | Path) -> NetworkWeights:
    """The weights of a blob for ``net``.

    The header and the payload size are checked against the descriptor
    before any weight array is allocated; then each array is read, one at a
    time, checked finite, and copied into its rows of the weight set's
    stacked arrays, all views of one allocation for the whole network.
    """
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise FormatError(f"{path}: truncated header")
        magic, version, tag, _ = struct.unpack("<4sIII", header)
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
        payload = os.fstat(f.fileno()).st_size - 16
        if payload % dt.itemsize:
            raise FormatError(f"{path}: payload is not a whole number of "
                              f"{dt.itemsize}-byte values")
        values = network_weight_bytes(net) // dt.itemsize
        extra = payload // dt.itemsize - values
        if extra < 0:
            raise FormatError(f"{path}: blob too short")
        if extra > 0:
            raise FormatError(f"{path}: {extra} trailing values in blob")

        # one array at a time passes through this buffer
        buf = np.empty(max(l.hidden_size * max(l.hidden_size, l.input_size)
                           for l in net.layers), dt)

        def read(_name: str, shape: tuple[int, ...]) -> np.ndarray:
            chunk = buf[:math.prod(shape)]
            if f.readinto(chunk) != chunk.nbytes:
                raise FormatError(f"{path}: blob too short")
            return chunk.reshape(shape)

        # the whole network's fp32 values in one allocation, each cell's
        # weight set a view of its run; numpy advises huge pages for arrays
        # of 4 MiB and up, so a large network's one array faults in far
        # fewer pages than one array per cell
        store, at, weights = np.empty(values, ACC_DTYPE), 0, []
        for layer in net.layers:
            n, cells = cell_weight_bytes(layer, 1), []
            for _ in range(layer.num_directions):
                cells.append(WeightSet(layer, net.numeric_precision, read, store[at:at + n]))
                at += n
            weights.append(cells)
        return weights


# ---------------------------------------------------------------------------
# input sequences

def sequence_to_bytes(seq: Sequence) -> bytes:
    return (struct.pack("<II", seq.length, seq.dim)
            + np.ascontiguousarray(seq.frames, dtype="<f4").tobytes())


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
