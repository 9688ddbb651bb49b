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
from collections.abc import Callable, Collection, Iterable, Iterator
from pathlib import Path

import numpy as np

from .model import (ACC_DTYPE, Direction, LayerDescriptor, NetworkDescriptor,
                    Precision, Sequence, WeightSet, _as_finite, cell_weight_bytes,
                    network_weight_bytes)

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
    except ValueError as e:  # bad JSON or UTF-8, or an int past Python's digit limit
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


def load_weights(net: NetworkDescriptor, path: str | Path) -> WeightStream:
    """The weight blob at ``path`` for ``net``, opened as a stream of its
    layers.  The header, the precision and the payload size are checked
    against the descriptor here; no weight array is allocated, and the
    weights are read only as the stream is iterated."""
    f = open(path, "rb")
    try:
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
        itemsize = net.numeric_precision.elem_bytes
        payload = os.fstat(f.fileno()).st_size - 16
        if payload % itemsize:
            raise FormatError(f"{path}: payload is not a whole number of "
                              f"{itemsize}-byte values")
        extra = (payload - network_weight_bytes(net)) // itemsize
        if extra < 0:
            raise FormatError(f"{path}: blob too short")
        if extra > 0:
            raise FormatError(f"{path}: {extra} trailing values in blob")
    except BaseException:
        f.close()
        raise
    return WeightStream(net, path, f)


class WeightStream:
    """A checked weight blob (see ``load_weights``), read one layer at a
    time; closed on leaving a ``with`` block.

    Each iteration (``read``) reads the blob from its start and yields, per
    layer, one weight set per direction.  Every layer's weight sets are
    views of one fp32 array sized for the largest layer's directions that
    are read, which the next layer overwrites: a layer's weight sets hold
    until the next layer is read.  Each array passes through one reusable
    buffer, is checked finite and is copied into place (see
    ``WeightSet``).  Reads are positional (``os.preadv``), so processes
    forked while the file is open iterate on their own, sharing no file
    offset.
    """

    def __init__(self, net: NetworkDescriptor, path: str | Path, file):
        self.net, self.path, self._file = net, path, file

    def __enter__(self) -> WeightStream:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __iter__(self) -> Iterator[list[WeightSet]]:
        return self.read()

    def read(self, directions: Collection[int] = (0, 1)
             ) -> Iterator[list[WeightSet | None]]:
        """Per layer, a weight set for each of its directions in
        ``directions`` and None for each other one, whose bytes are skipped
        unread."""
        net, fd = self.net, self._file.fileno()
        dt = np.dtype(net.numeric_precision.storage_dtype).newbyteorder("<")
        eb = net.numeric_precision.elem_bytes
        # one array at a time passes through this buffer
        buf = np.empty(max(l.hidden_size * max(l.hidden_size, l.input_size)
                           for l in net.layers), dt)
        # one array for every layer: an array per layer would fault its
        # pages in anew for each layer
        store = np.empty(max(cell_weight_bytes(l, 1)
                             * sum(d in directions for d in range(l.num_directions))
                             for l in net.layers), ACC_DTYPE)
        at = 16

        def read(_name: str, shape: tuple[int, ...]) -> np.ndarray:
            nonlocal at
            chunk = buf[:math.prod(shape)]
            got, view = 0, chunk.view(np.uint8)
            while got < chunk.nbytes:  # a read may stop short of the request
                n = os.preadv(fd, [view[got:]], at + got)
                if n == 0:
                    raise FormatError(f"{self.path}: blob too short")
                got += n
            at += got
            return chunk.reshape(shape)

        for layer in net.layers:
            n, sets = cell_weight_bytes(layer, 1), []
            cells = (store[k * n:(k + 1) * n] for k in range(layer.num_directions))
            for d in range(layer.num_directions):
                if d in directions:
                    sets.append(WeightSet(layer, net.numeric_precision, read, next(cells)))
                else:
                    sets.append(None)
                    at += n * eb  # the direction's bytes, skipped unread
            yield sets


# ---------------------------------------------------------------------------
# input sequences

def sequence_to_bytes(seq: Sequence) -> bytes:
    return (struct.pack("<II", seq.length, seq.dim)
            + np.ascontiguousarray(seq.frames, dtype="<f4").tobytes())


def open_sequence(path: str | Path) -> tuple[int, int, Callable[[], np.ndarray]]:
    """A sequence file's frame count T, its frame width and a call that
    returns its [T, dim] fp32 frames, not yet checked finite.  A CSV is read
    here; of a binary file only the 8-byte header is, checked against the
    file's size, and its frames when the call is made."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            with warnings.catch_warnings():
                # an empty file is rejected by the caller, as a sequence of
                # no frames
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                frames = np.loadtxt(path, delimiter=",", dtype=np.float32, ndmin=2)
        except ValueError as e:
            raise FormatError(f"{path}: bad CSV sequence: {e}") from e
        return *frames.shape, lambda: frames
    with open(path, "rb") as f:
        header = f.read(8)
        size = os.fstat(f.fileno()).st_size
    if len(header) < 8:
        raise FormatError(f"{path}: truncated sequence header")
    t, dim = struct.unpack("<II", header)
    if (size - 8) % 4:
        raise FormatError(f"{path}: payload is not a whole number of 4-byte values")

    def check(values: int) -> None:
        if values != t * dim:
            raise FormatError(f"{path}: header says {t}x{dim} but {values} values follow")

    def read() -> np.ndarray:
        frames = np.empty((t, dim), "<f4")
        with open(path, "rb") as f:
            f.seek(8)
            check(f.readinto(frames.reshape(-1).view(np.uint8)) // 4)
        return frames.astype(np.float32, copy=False)

    check((size - 8) // 4)
    return t, dim, read
