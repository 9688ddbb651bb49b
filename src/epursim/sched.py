"""Weight access schedules and their locality analysis.

Two evaluation orders are modeled for one cell (one direction of a layer):

conventional
    every timestep evaluates each neuron completely: row j of the forward
    matrix, then row j of the recurrent matrix, for t = 1..T.

mwl (maximize weight locality)
    phase 1 walks neurons in the outer loop and the sequence in the inner
    loop, so each forward row is fetched once and reused from a small row
    buffer; quantized partial outputs go to the intermediate memory.
    phase 2 then evaluates the recurrent connections in conventional order,
    reading the partials back.

Traces record weight-matrix row accesses (plus the row buffer and partial
traffic mwl adds) as integer columns; reuse distances are exact LRU stack
distances measured in bytes of distinct data touched, computed per
computation-unit stream.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (ACC_DTYPE, GATES, LayerDescriptor, NetworkDescriptor,
                    ShapeError, cell_weight_bytes, gate_matrix_bytes)
from .quant import QuantConfig


class Policy(str, Enum):
    conventional = "conventional"
    mwl = "mwl"


class Target(str, Enum):
    weight_buffer = "weight_buffer"
    row_buffer = "row_buffer"
    input_buffer = "input_buffer"
    intermediate_memory = "intermediate_memory"
    dram = "dram"


# column codes of a GateTrace
TARGETS = tuple(Target)
_WB, _RB, _IM = (TARGETS.index(t) for t in (Target.weight_buffer, Target.row_buffer,
                                             Target.intermediate_memory))
KINDS = ("wx", "wh", "partial")
_WX, _WH, _PARTIAL = range(3)
RW = ("r", "w")
_R, _W = range(2)


@dataclass(frozen=True)
class GateTrace:
    """The access stream of one cell as equal-length, read-only integer
    columns.  Its four CUs are independent but follow one schedule, so this
    is every gate's stream.

    ``target`` indexes ``TARGETS`` and ``rw`` indexes ``RW``.  ``kind``
    indexes ``KINDS``: forward row ``neuron`` ("wx"), recurrent row
    ``neuron`` ("wh"), or the partial of ``neuron`` at step ``t``.  ``obj``
    numbers those objects within the gate (wx j is j, wh j is h + j, the
    partial of j at t is (t + 1) * h + j).
    """

    target: np.ndarray
    kind: np.ndarray
    obj: np.ndarray
    rw: np.ndarray
    bytes: np.ndarray
    t: np.ndarray
    neuron: np.ndarray

    def __len__(self) -> int:
        return len(self.obj)

    @property
    def events(self) -> dict[str, GateTrace]:
        """Each gate's stream: this one, for every gate (the benchmark
        counts these as ``sched.events``)."""
        return dict.fromkeys(GATES, self)


def _gate_trace(hidden: int, widths: tuple[int, int, int], target, kind, rw,
                t, neuron) -> GateTrace:
    """A GateTrace from its columns; ``widths`` gives the bytes of a wx row,
    a wh row and a partial."""
    kind = np.asarray(kind, np.int8)
    t = np.asarray(t, np.int32)
    neuron = np.asarray(neuron, np.int32)
    obj = (kind.astype(np.int64) + (kind == _PARTIAL) * (t - 1)) * hidden + neuron
    cols = dict(target=np.asarray(target, np.int8), kind=kind, obj=obj,
                rw=np.asarray(rw, np.int8),
                bytes=np.asarray(widths, np.int64)[kind], t=t, neuron=neuron)
    for col in cols.values():
        col.flags.writeable = False
    return GateTrace(**cols)


def trace_conventional(layer: LayerDescriptor, T: int,
                       elem_bytes: int = 4) -> GateTrace:
    """Weight-buffer reads for T sweeps in per-neuron interleaved order."""
    if T < 1:
        raise ShapeError("T must be >= 1")
    h = layer.hidden_size
    widths = (layer.input_size * elem_bytes, h * elem_bytes, 0)
    n = 2 * T * h  # per step and neuron: wx row, then wh row
    return _gate_trace(h, widths, np.full(n, _WB), np.tile([_WX, _WH], T * h),
                       np.full(n, _R), np.repeat(np.arange(1, T + 1), 2 * h),
                       np.tile(np.repeat(np.arange(h), 2), T))


def trace_mwl(layer: LayerDescriptor, T: int, elem_bytes: int = 4,
              quant: QuantConfig | None = None,
              row_buffer_bytes: int = 4096) -> GateTrace:
    """Two-phase MWL access stream for one cell, partials stored as codes of
    ``quant`` (None: at full accumulator precision, as in exact mode).

    Forward rows wider than the row buffer cannot be pinned; those gates fall
    back to re-reading the weight buffer every timestep (with a warning), so
    the schedule degrades to conventional forward traffic.
    """
    if T < 1:
        raise ShapeError("T must be >= 1")
    h = layer.hidden_size
    rowx = layer.input_size * elem_bytes
    widths = (rowx, h * elem_bytes, partial_bytes(quant))
    pinned = pins_forward_rows(layer, elem_bytes, row_buffer_bytes)
    if not pinned:
        warn_row_buffer_fallback(rowx, row_buffer_bytes)
    steps = np.arange(1, T + 1)
    # phase 1, per neuron: pin the forward row (weight-buffer read, row-buffer
    # write), then per step read it and write the partial
    pin = 2 if pinned else 0
    source = _RB if pinned else _WB
    per_neuron = pin + 2 * T
    target = [np.tile([_WB, _RB][:pin] + [source, _IM] * T, h)]
    kind = [np.tile([_WX] * pin + [_WX, _PARTIAL] * T, h)]
    rw = [np.tile([_R, _W], h * per_neuron // 2)]
    t = [np.tile(np.concatenate([np.ones(pin, int), np.repeat(steps, 2)]), h)]
    neuron = [np.repeat(np.arange(h), per_neuron)]
    # phase 2, per step and neuron: read the partial, then the wh row
    target.append(np.tile([_IM, _WB], T * h))
    kind.append(np.tile([_PARTIAL, _WH], T * h))
    rw.append(np.full(2 * T * h, _R))
    t.append(np.repeat(steps, 2 * h))
    neuron.append(np.tile(np.repeat(np.arange(h), 2), T))
    return _gate_trace(h, widths, *map(np.concatenate, (target, kind, rw, t, neuron)))


def layer_traces(layer: LayerDescriptor, T: int, policy: Policy,
                 elem_bytes: int = 4, quant: QuantConfig | None = None,
                 row_buffer_bytes: int = 4096) -> list[GateTrace]:
    """One trace per direction.  The directions of a bidirectional layer are
    two cells that follow one schedule, so they share one trace."""
    trace = (trace_conventional(layer, T, elem_bytes) if policy is Policy.conventional
             else trace_mwl(layer, T, elem_bytes, quant, row_buffer_bytes))
    return [trace] * layer.num_directions


# ---------------------------------------------------------------------------
# reuse analysis (exact LRU stack distances, Mattson et al. 1970)

def weight_storage_bytes(stats: dict[Target, dict]) -> int:
    """Smallest weight storage with no capacity refetch: the sum of the
    weight-holding buffers' minimal LRU capacities."""
    return sum(stats[tgt]["min_buffer_bytes"]
               for tgt in (Target.weight_buffer, Target.row_buffer) if tgt in stats)


def _live_sums(size: np.ndarray, nxt: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """For each query q, the sum of ``size[j]`` over ``lo[q] <= j < hi[q]``
    with ``nxt[j] >= hi[q]``.

    Offline, on a bottom-up merge-sort tree: at level k, block b holds
    positions [b * 2**k, (b + 1) * 2**k) sorted by ``nxt``, with a running
    sum of their sizes.  Each query's range splits into at most two blocks
    per level, as in an iterative segment tree, and one binary search per
    block finds the entries with ``nxt >= hi``.
    """
    n = len(size)
    order = np.arange(n)
    out = np.zeros(len(lo), np.int64)
    left, right = lo.copy(), hi.copy()
    level = 0
    while True:
        active = left < right
        if not active.any():
            return out
        take_l = np.flatnonzero(active & ((left & 1) == 1))
        take_r = np.flatnonzero(active & ((right & 1) == 1))
        right[take_r] -= 1
        # sort each block by (block, nxt); the previous level's order leaves
        # two sorted runs per block, which a stable sort merges
        key = (order >> level) * (n + 1) + nxt[order]
        resort = np.argsort(key, kind="stable")
        order, key = order[resort], key[resort]
        csum = np.concatenate(([0], np.cumsum(size[order])))
        blocks = np.concatenate((left[take_l], right[take_r]))
        queries = np.concatenate((take_l, take_r))
        first = np.searchsorted(key, blocks * (n + 1) + hi[queries])
        end = np.minimum((blocks + 1) << level, n)
        got = csum[end] - csum[first]
        out[take_l] += got[:len(take_l)]
        out[take_r] += got[len(take_l):]
        left[take_l] += 1
        left >>= 1
        right >>= 1
        level += 1


def _analyze_stream(obj: np.ndarray, nbytes: np.ndarray,
                    write: np.ndarray) -> dict:
    """Access totals and exact LRU stack distances of one stream of object
    ids, their access bytes and a write mask, in the form ``analyze-reuse``
    writes.

    The distance of a reuse at i is the bytes of the distinct objects
    touched since the previous access to the same object (at ``prev``),
    inclusive of it: the sizes of the accesses j in [prev, i) that are the
    last to their object before i.  An object's size is its first access's.
    """
    n = len(obj)
    nbytes = np.asarray(nbytes, np.int64)
    order = np.argsort(obj, kind="stable")
    same = obj[order][1:] == obj[order][:-1]  # order[k + 1] reuses order[k]'s object
    first = np.concatenate(([True], ~same))
    size = np.empty(n, np.int64)
    size[order] = nbytes[order[first]][np.cumsum(first) - 1]
    reuse, before = order[1:][same], order[:-1][same]
    nxt = np.full(n, n)
    nxt[before] = reuse
    dist = _live_sums(size, nxt, before, reuse)
    max_dist = int(dist.max(initial=0))
    return {
        "access_count": n,
        "read_bytes": int(nbytes[~write].sum()),
        "write_bytes": int(nbytes[write].sum()),
        "distinct_bytes": int(nbytes[order[first]].sum()),
        "reuse_count": len(dist),
        "max_reuse_distance": max_dist,
        "total_reuse_distance": int(dist.sum()),
        "min_buffer_bytes": max(max_dist, int(nbytes.max())),
    }


def reuse_analysis(gt: GateTrace) -> dict[Target, dict]:
    """Exact LRU stack distances of a trace, in byte units: a stats dict
    per target, in order of first access.  The four gates share the trace,
    so this is every gate's result."""
    if not len(gt):
        raise ValueError("trace is empty")
    codes, first_at = np.unique(gt.target, return_index=True)
    stats = {}
    for code in codes[np.argsort(first_at)]:
        mask = gt.target == code
        stats[TARGETS[code]] = _analyze_stream(gt.obj[mask], gt.bytes[mask],
                                               gt.rw[mask] == _W)
    return stats


# ---------------------------------------------------------------------------
# the schedule in closed form (cross-checked against the traces in tests)

def partial_bytes(quant: QuantConfig | None) -> int:
    """Bytes one stored MWL partial occupies: a code of ``quant``, or the
    full accumulator precision when the partials are not quantized."""
    return quant.storage_bytes if quant is not None else np.dtype(ACC_DTYPE).itemsize


def pins_forward_rows(layer: LayerDescriptor, elem_bytes: int,
                      row_buffer_bytes: int) -> bool:
    """True when a forward row fits the row buffer, where MWL pins it for the
    whole sequence; otherwise its reads fall back to the weight buffer."""
    return layer.input_size * elem_bytes <= row_buffer_bytes


def warn_row_buffer_fallback(row_bytes: int, row_buffer_bytes: int) -> None:
    """Warns that forward rows of ``row_bytes`` cannot be pinned in the row
    buffer, so MWL reads them from the weight buffer every timestep."""
    warnings.warn(f"forward row ({row_bytes} B) exceeds the row buffer "
                  f"({row_buffer_bytes} B); falling back to weight-buffer reads "
                  "for forward connections", RuntimeWarning)


def gate_accesses(layer: LayerDescriptor, T: int, policy: Policy,
                  elem_bytes: int, qbytes: int,
                  row_buffer_bytes: int) -> dict[tuple[Target, str], tuple[int, int]]:
    """``{(target, rw): (count, bytes)}`` of the weight-matrix rows, pinned
    forward rows and ``qbytes``-wide stored partials one gate moves in one
    pass: the traces above, summed."""
    h = layer.hidden_size
    wx, wh = gate_matrix_bytes(layer, elem_bytes)
    if policy is Policy.mwl and pins_forward_rows(layer, elem_bytes, row_buffer_bytes):
        accesses = {(Target.weight_buffer, "r"): (h + T * h, wx + T * wh),
                    (Target.row_buffer, "w"): (h, wx),
                    (Target.row_buffer, "r"): (T * h, T * wx)}
    else:
        accesses = {(Target.weight_buffer, "r"): (2 * T * h, T * (wx + wh))}
    if policy is Policy.mwl:
        accesses[(Target.intermediate_memory, "w")] = (T * h, T * h * qbytes)
        accesses[(Target.intermediate_memory, "r")] = (T * h, T * h * qbytes)
    return accesses


def weight_buffer_read_bytes(layer: LayerDescriptor, T: int, policy: Policy,
                             elem_bytes: int = 4,
                             row_buffer_bytes: int = 4096) -> int:
    """Weight-matrix bytes one gate reads from its weight buffer."""
    return gate_accesses(layer, T, policy, elem_bytes, partial_bytes(None),
                         row_buffer_bytes)[(Target.weight_buffer, "r")][1]


# ---------------------------------------------------------------------------
# DRAM traffic model

def dram_traffic(net: NetworkDescriptor, T: int) -> dict:
    """DRAM bytes for one full inference pass over a T-frame sequence, as
    the report's ``dram`` entry.

    Weights move from DRAM exactly once per layer-direction pass regardless
    of sequence length: the schedule does not change DRAM traffic, since
    both orders fetch each layer-direction's weights once (MWL keeps its
    partials on chip).  The spill variant replaces the on-chip intermediate
    memory with main memory: every layer's output sequence is written out
    and read back once per consuming pass; ``avoided_fraction`` is the share
    of that variant's traffic the on-chip memory removes.
    """
    if T < 1:
        raise ShapeError("T must be >= 1")
    eb = net.numeric_precision.elem_bytes
    per_pass = [{"layer": i, "direction": d, "bytes": cell_weight_bytes(layer, eb)}
                for i, layer in enumerate(net.layers)
                for d in range(layer.num_directions)]
    weight_bytes = sum(p["bytes"] for p in per_pass)
    input_bytes = T * net.input_dim * eb
    output_bytes = T * net.output_dim * eb
    total = weight_bytes + input_bytes + output_bytes
    # each layer's outputs are read once per pass of the next layer; the
    # last layer's, once by the output stage
    produced = [T * layer.output_size * eb for layer in net.layers]
    readers = [layer.num_directions for layer in net.layers[1:]] + [1]
    spill_write = sum(produced)
    spill_read = sum(r * p for r, p in zip(readers, produced))
    spill = spill_write + spill_read
    return {"per_pass_weight_bytes": per_pass, "weight_bytes": weight_bytes,
            "input_bytes": input_bytes, "output_bytes": output_bytes,
            "total_bytes": total, "spill_write_bytes": spill_write,
            "spill_read_bytes": spill_read, "avoided_fraction": spill / (total + spill)}
