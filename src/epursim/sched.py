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
traffic mwl adds); reuse distances are exact LRU stack distances measured in
bytes of distinct data touched, computed per computation-unit stream.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

from .model import (GATES, LayerDescriptor, NetworkDescriptor,
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


@dataclass(frozen=True)
class AccessEvent:
    target: Target
    object_id: tuple
    rw: str  # "r" or "w"
    bytes: int
    timestep: int
    neuron: int

    def __post_init__(self):
        if self.bytes <= 0:
            raise ValueError("every access moves at least one byte")
        if self.rw not in ("r", "w"):
            raise ValueError(f"rw must be 'r' or 'w', got {self.rw!r}")


@dataclass
class AccessTrace:
    """Per-gate event streams for one cell; the four CUs are independent."""

    layer: LayerDescriptor
    T: int
    policy: Policy
    elem_bytes: int
    events: dict[str, list[AccessEvent]] = field(default_factory=dict)

    def gate_events(self, gate: str) -> list[AccessEvent]:
        return self.events[gate]

    def all_events(self):
        for g in GATES:
            yield from self.events[g]


def trace_conventional(layer: LayerDescriptor, T: int,
                       elem_bytes: int = 4) -> AccessTrace:
    """Weight-buffer reads for T sweeps in per-neuron interleaved order."""
    if T < 1:
        raise ShapeError("T must be >= 1")
    rowx = layer.input_size * elem_bytes
    rowh = layer.hidden_size * elem_bytes
    trace = AccessTrace(layer, T, Policy.conventional, elem_bytes)
    for gate in GATES:
        ev = []
        for t in range(1, T + 1):
            for j in range(layer.hidden_size):
                ev.append(AccessEvent(Target.weight_buffer, ("wx", gate, j), "r", rowx, t, j))
                ev.append(AccessEvent(Target.weight_buffer, ("wh", gate, j), "r", rowh, t, j))
        trace.events[gate] = ev
    return trace


def trace_mwl(layer: LayerDescriptor, T: int, elem_bytes: int = 4,
              quant: QuantConfig | None = None,
              row_buffer_bytes: int = 4096) -> AccessTrace:
    """Two-phase MWL access stream for one cell.

    Forward rows wider than the row buffer cannot be pinned; those gates fall
    back to re-reading the weight buffer every timestep (with a warning), so
    the schedule degrades to conventional forward traffic.
    """
    if T < 1:
        raise ShapeError("T must be >= 1")
    quant = quant or QuantConfig()
    rowx = layer.input_size * elem_bytes
    rowh = layer.hidden_size * elem_bytes
    qbytes = quant.storage_bytes
    if rowx > row_buffer_bytes:
        warnings.warn(
            f"forward row ({rowx} B) exceeds the row buffer ({row_buffer_bytes} B); "
            "falling back to weight-buffer reads for forward connections",
            RuntimeWarning,
        )
    trace = AccessTrace(layer, T, Policy.mwl, elem_bytes)
    for gate in GATES:
        ev = []
        # phase 1: forward connections, whole sequence per neuron
        for j in range(layer.hidden_size):
            if rowx > row_buffer_bytes:
                for t in range(1, T + 1):
                    ev.append(AccessEvent(Target.weight_buffer, ("wx", gate, j), "r", rowx, t, j))
                    ev.append(AccessEvent(Target.intermediate_memory,
                                          ("partial", gate, j, t), "w", qbytes, t, j))
                continue
            ev.append(AccessEvent(Target.weight_buffer, ("wx", gate, j), "r", rowx, 1, j))
            ev.append(AccessEvent(Target.row_buffer, ("wx", gate, j), "w", rowx, 1, j))
            for t in range(1, T + 1):
                ev.append(AccessEvent(Target.row_buffer, ("wx", gate, j), "r", rowx, t, j))
                ev.append(AccessEvent(Target.intermediate_memory,
                                      ("partial", gate, j, t), "w", qbytes, t, j))
        # phase 2: recurrent connections in conventional order
        for t in range(1, T + 1):
            for j in range(layer.hidden_size):
                ev.append(AccessEvent(Target.intermediate_memory,
                                      ("partial", gate, j, t), "r", qbytes, t, j))
                ev.append(AccessEvent(Target.weight_buffer, ("wh", gate, j), "r", rowh, t, j))
        trace.events[gate] = ev
    return trace


def layer_traces(layer: LayerDescriptor, T: int, policy: Policy,
                 elem_bytes: int = 4, quant: QuantConfig | None = None,
                 row_buffer_bytes: int = 4096) -> list[AccessTrace]:
    """One trace per direction; a bidirectional layer is two independent cells."""
    if policy is Policy.conventional:
        one = lambda: trace_conventional(layer, T, elem_bytes)
    else:
        one = lambda: trace_mwl(layer, T, elem_bytes, quant, row_buffer_bytes)
    return [one() for _ in range(layer.num_directions)]


# ---------------------------------------------------------------------------
# reuse analysis (exact LRU stack distances, Olken-style)

class _Fenwick:
    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, v: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += v
            i += i & -i

    def prefix(self, i: int) -> int:
        # sum of [0, i]; i may be -1 for an empty prefix
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return s


@dataclass
class TargetStats:
    access_count: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    distinct_bytes: int = 0
    reuse_count: int = 0
    max_reuse_distance: int = 0
    total_reuse_distance: int = 0
    min_buffer_bytes: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ReuseStats:
    """Per gate, per target: access totals and LRU stack-distance results."""

    per_gate: dict[str, dict[Target, TargetStats]]

    def gate_target(self, gate: str, target: Target) -> TargetStats:
        return self.per_gate[gate][target]

    def weight_storage_bytes(self, gate: str) -> int:
        """Smallest weight storage with no capacity refetch: the sum of the
        weight-holding buffers' minimal LRU capacities."""
        total = 0
        for tgt in (Target.weight_buffer, Target.row_buffer):
            if tgt in self.per_gate[gate]:
                total += self.per_gate[gate][tgt].min_buffer_bytes
        return total

    def to_json(self) -> dict:
        return {
            gate: {tgt.value: st.to_json() for tgt, st in targets.items()}
            for gate, targets in self.per_gate.items()
        }


def _analyze_stream(events: list[AccessEvent]) -> TargetStats:
    st = TargetStats()
    n = len(events)
    bit = _Fenwick(n)
    last_pos: dict[tuple, int] = {}
    sizes: dict[tuple, int] = {}
    max_single = 0
    for i, ev in enumerate(events):
        st.access_count += 1
        if ev.rw == "r":
            st.read_bytes += ev.bytes
        else:
            st.write_bytes += ev.bytes
        max_single = max(max_single, ev.bytes)
        prev = last_pos.get(ev.object_id)
        if prev is not None:
            # bytes of distinct objects touched since the previous access,
            # inclusive of the object itself
            dist = bit.prefix(i - 1) - bit.prefix(prev - 1)
            st.reuse_count += 1
            st.max_reuse_distance = max(st.max_reuse_distance, dist)
            st.total_reuse_distance += dist
            bit.add(prev, -sizes[ev.object_id])
        else:
            sizes[ev.object_id] = ev.bytes
            st.distinct_bytes += ev.bytes
        bit.add(i, sizes[ev.object_id])
        last_pos[ev.object_id] = i
    st.min_buffer_bytes = max(st.max_reuse_distance, max_single)
    return st


def reuse_analysis(trace: AccessTrace) -> ReuseStats:
    """Exact LRU stack distances per gate and per target, in byte units."""
    if not any(trace.events.values()):
        raise ValueError("trace is empty")
    per_gate: dict[str, dict[Target, TargetStats]] = {}
    for gate in GATES:
        streams: dict[Target, list[AccessEvent]] = {}
        for ev in trace.events.get(gate, []):
            streams.setdefault(ev.target, []).append(ev)
        per_gate[gate] = {tgt: _analyze_stream(evs) for tgt, evs in streams.items()}
    return ReuseStats(per_gate)


# ---------------------------------------------------------------------------
# closed-form access counts (cross-checked against the traces in tests)

def weight_buffer_read_bytes(layer: LayerDescriptor, T: int, policy: Policy,
                             elem_bytes: int = 4,
                             row_buffer_bytes: int = 4096) -> int:
    """Weight-matrix bytes one gate reads from its weight buffer."""
    wx, wh = gate_matrix_bytes(layer, elem_bytes)
    rowx = layer.input_size * elem_bytes
    if policy is Policy.conventional or rowx > row_buffer_bytes:
        return T * (wx + wh)
    return wx + T * wh


# ---------------------------------------------------------------------------
# DRAM traffic model

@dataclass
class DramTraffic:
    """Per-pass DRAM bytes, plus the spill-policy comparison.

    Weights move from DRAM exactly once per layer-direction pass regardless
    of sequence length.  The spill variant replaces the on-chip intermediate
    memory with main memory: every layer's output sequence is written out
    and read back once per consuming pass.
    """

    per_pass_weight_bytes: list[tuple[int, int, int]]  # (layer, direction, bytes)
    weight_bytes: int
    input_bytes: int
    output_bytes: int
    spill_write_bytes: int
    spill_read_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.input_bytes + self.output_bytes

    @property
    def spill_intermediate_bytes(self) -> int:
        return self.spill_write_bytes + self.spill_read_bytes

    @property
    def avoided_fraction(self) -> float:
        """Fraction of spill-policy DRAM traffic the on-chip memory removes."""
        spill_total = self.total_bytes + self.spill_intermediate_bytes
        return self.spill_intermediate_bytes / spill_total

    def to_json(self) -> dict:
        return {
            "per_pass_weight_bytes": [
                {"layer": l, "direction": d, "bytes": b}
                for (l, d, b) in self.per_pass_weight_bytes
            ],
            "weight_bytes": self.weight_bytes,
            "input_bytes": self.input_bytes,
            "output_bytes": self.output_bytes,
            "total_bytes": self.total_bytes,
            "spill_write_bytes": self.spill_write_bytes,
            "spill_read_bytes": self.spill_read_bytes,
            "avoided_fraction": self.avoided_fraction,
        }


def dram_traffic(net: NetworkDescriptor, policy: Policy, T: int) -> DramTraffic:
    """DRAM bytes for one full inference pass over a T-frame sequence.

    The schedule does not change DRAM traffic: both orders fetch each
    layer-direction's weights once (MWL keeps its partials on chip).
    """
    if T < 1:
        raise ShapeError("T must be >= 1")
    eb = net.numeric_precision.elem_bytes
    per_pass = []
    for i, layer in enumerate(net.layers):
        for d in range(layer.num_directions):
            per_pass.append((i, d, cell_weight_bytes(layer, eb)))
    weight_bytes = sum(b for _, _, b in per_pass)
    input_bytes = T * net.input_dim * eb
    output_bytes = T * net.output_dim * eb

    spill_write = 0
    spill_read = 0
    for i, layer in enumerate(net.layers):
        produced = T * layer.output_size * eb
        spill_write += produced
        if i + 1 < len(net.layers):
            readers = net.layers[i + 1].num_directions
        else:
            readers = 1  # consumed once by the output stage
        spill_read += readers * produced
    return DramTraffic(per_pass, weight_bytes, input_bytes, output_bytes,
                       spill_write, spill_read)
