"""Cycle-level model of the accelerator: four computation units (one per
gate), each a dot-product unit plus a multifunctional unit, fed by per-CU
weight/input buffers and a shared double-buffered intermediate memory.

The functional values produced by a simulation follow the exact accumulation
order contract of the reference model, so exact-mode runs are bit-identical
to it.  The timing and event counts come from ``cost_model``, which reads
only shapes, the sequence length, the schedule and the configuration, and
sums one ``PassCost`` record per layer-direction pass.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .model import (GATES, PEEPHOLE_GATES, LayerDescriptor,
                    NetworkDescriptor, NetworkWeights, PartialsHook, Sequence,
                    ShapeError, cell_weight_bytes, gate_matrix_bytes,
                    gate_weight_bytes, layer_infer)
from .quant import QuantConfig, calibrate_alpha, quantize
from .sched import (RW, Policy, Target, dram_traffic, gate_accesses,
                    partial_bytes, pins_forward_rows, warn_row_buffer_fallback)

DEFAULT_OP_LATENCY = {
    # add/mul/exp come straight from the hardware parameter table; div is
    # not listed there and defaults to the exp value, move is a
    # register-file transfer
    "add": 2,
    "mul": 4,
    "exp": 5,
    "div": 5,
    "move": 1,
}

#: functional units per MU: two adders (the stage table schedules two
#: add-class ops in the same cycle), one each of the rest.  Units are
#: pipelined: multi-cycle latency, one issue per cycle.
FU_UNITS = {"add": 2, "mul": 1, "exp": 1, "div": 1, "move": 1}


class CapacityError(RuntimeError):
    """A layer does not fit the configured on-chip memories."""


class MuBottleneckError(RuntimeError):
    """The multifunctional units cannot keep up with the dot-product units."""


class ConfigError(ValueError):
    """A hardware configuration document with an unknown key or a bad value."""


@dataclass
class HardwareConfig:
    frequency_hz: float = 500e6
    dpu_width: int = 16
    weight_mem_bytes_per_cu: int = 4 * 2**20
    input_mem_bytes_per_cu: int = 8 * 2**10
    intermediate_mem_bytes: int = 6 * 2**20
    row_buffer_bytes: int = 4 * 2**10
    op_latency: dict = field(default_factory=lambda: dict(DEFAULT_OP_LATENCY))
    mu_comm_cycles: int = 2
    peak_dram_bandwidth: float = 30e9
    dram_latency_s: float = 100e-9
    bank_bytes: int = 256 * 2**10

    def __post_init__(self):
        n = self.dpu_width
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"dpu_width must be a power of two, got {n}")
        for k, v in self.op_latency.items():
            if v < 1:
                raise ValueError(f"op latency {k} must be >= 1, got {v}")
        for name in ("weight_mem_bytes_per_cu", "input_mem_bytes_per_cu",
                     "intermediate_mem_bytes", "row_buffer_bytes", "bank_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.frequency_hz <= 0 or self.peak_dram_bandwidth <= 0:
            raise ValueError("frequency and bandwidth must be positive")
        if self.mu_comm_cycles < 1:
            raise ValueError("mu_comm_cycles must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict,
                  base: "HardwareConfig | None" = None) -> "HardwareConfig":
        """Config from its JSON form, merged over ``base`` (default: the epur
        preset): absent fields keep the base's values and a partial
        op_latency table is merged over the base's latencies.  Raises
        ConfigError on an unknown key or an unusable value."""
        base = base or cls()
        if not isinstance(obj, dict) or not isinstance(obj.get("op_latency", {}), dict):
            raise ConfigError("hardware config and its op_latency must be JSON objects")
        kwargs = dict(obj, op_latency={**base.op_latency, **obj.get("op_latency", {})})
        unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
        unknown += sorted(f"op_latency.{k}" for k in kwargs["op_latency"]
                          if k not in DEFAULT_OP_LATENCY)
        if unknown:
            raise ConfigError(f"unknown hardware config key(s): {', '.join(unknown)}")
        try:
            return replace(base, **kwargs)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad hardware config: {e}") from e


#: Each ``--hw-preset`` name and the constructor of its config: ``epur``
#: has 4 MiB weight and 8 KiB input memory per CU, ``epur-mwl`` halves both.
HW_PRESETS: dict[str, Callable[..., HardwareConfig]] = {
    "epur": HardwareConfig,
    "epur-mwl": functools.partial(HardwareConfig, weight_mem_bytes_per_cu=2 * 2**20,
                                  input_mem_bytes_per_cu=4 * 2**10),
}


def dpu_dot_cycles(m: int, cfg: HardwareConfig) -> int:
    """Cycles for one dot product of length m on an N-wide DPU.

    ceil(m/N) sub-vector issues at one per cycle (short vectors pad to one
    sub-vector), plus multiplier latency, the log2(N)-deep reduction tree and
    the final accumulator add.  Sub-vectors overlap, so latency counts once.
    """
    if m < 1:
        raise ShapeError("dot-product length must be >= 1")
    k = math.ceil(m / cfg.dpu_width)
    return (k + cfg.op_latency["mul"] + int(math.log2(cfg.dpu_width))
            + cfg.op_latency["add"])


# ---------------------------------------------------------------------------
# multifunctional-unit plan

@dataclass
class MuOp:
    gate: str
    name: str
    fu: str  # add | mul | exp | div | move | link
    deps: tuple[str, ...]
    start: int = -1
    latency: int = 0

    @property
    def ready(self) -> int:
        return self.start + self.latency


def _mu_op_list(peephole: bool) -> list[MuOp]:
    """Dependency graph of the per-element MU work, all four gates.

    Dep names are "gate.op"; sigmoid is negate/exp/+1/reciprocal, tanh is the
    two-exponential ratio, matching the stage table of the design.  Sends run
    on dedicated links and deliver their value when they complete.
    """
    ops: list[MuOp] = []

    def add(gate, name, fu, *deps):
        ops.append(MuOp(gate, name, fu, deps))

    for gate in ("input", "forget"):
        add(gate, "load", "move")  # R0 = DPU output
        if peephole:
            add(gate, "peep_mul", "mul")  # R1 = W_c (.) c_{t-1}
            add(gate, "acc_peep", "add", f"{gate}.load", f"{gate}.peep_mul")
            add(gate, "acc_bias", "add", f"{gate}.acc_peep")
        else:
            add(gate, "acc_bias", "add", f"{gate}.load")
        add(gate, "neg", "add", f"{gate}.acc_bias")
        add(gate, "exp", "exp", f"{gate}.neg")
        add(gate, "inc", "add", f"{gate}.exp")
        add(gate, "recip", "div", f"{gate}.inc")
        add(gate, "send", "link", f"{gate}.recip")

    g = "cell_updater"
    add(g, "acc_bias", "add")
    add(g, "t1_neg", "add", f"{g}.acc_bias")
    add(g, "t1_exp_p", "exp", f"{g}.acc_bias")
    add(g, "t1_exp_n", "exp", f"{g}.t1_neg")
    add(g, "t1_num", "add", f"{g}.t1_exp_p", f"{g}.t1_exp_n")
    add(g, "t1_den", "add", f"{g}.t1_exp_p", f"{g}.t1_exp_n")
    add(g, "t1_div", "div", f"{g}.t1_num", f"{g}.t1_den")  # g_t
    add(g, "mul_i", "mul", f"{g}.t1_div", "input.send")
    add(g, "mul_f", "mul", "forget.send")  # f_t * c_{t-1}
    add(g, "acc_c", "add", f"{g}.mul_i", f"{g}.mul_f")  # c_t
    add(g, "send_c", "link", f"{g}.acc_c")
    add(g, "t2_neg", "add", f"{g}.acc_c")
    add(g, "t2_exp_p", "exp", f"{g}.acc_c")
    add(g, "t2_exp_n", "exp", f"{g}.t2_neg")
    add(g, "t2_num", "add", f"{g}.t2_exp_p", f"{g}.t2_exp_n")
    add(g, "t2_den", "add", f"{g}.t2_exp_p", f"{g}.t2_exp_n")
    add(g, "t2_div", "div", f"{g}.t2_num", f"{g}.t2_den")  # phi(c_t)
    add(g, "send_phi", "link", f"{g}.t2_div")

    g = "output"
    add(g, "acc_bias", "add")
    if peephole:
        add(g, "peep_mul", "mul", "cell_updater.send_c")
        add(g, "acc_peep", "add", f"{g}.acc_bias", f"{g}.peep_mul")
        sig_in = f"{g}.acc_peep"
    else:
        sig_in = f"{g}.acc_bias"
    add(g, "neg", "add", sig_in)
    add(g, "exp", "exp", f"{g}.neg")
    add(g, "inc", "add", f"{g}.exp")
    add(g, "recip", "div", f"{g}.inc")  # o_t
    add(g, "move_phi", "move", "cell_updater.send_phi")
    add(g, "mul_h", "mul", f"{g}.recip", f"{g}.move_phi")  # h_t
    return ops


@dataclass
class MuPlan:
    ops: dict[str, MuOp]  # keyed "gate.name"

    def gate_ops(self, gate: str) -> list[MuOp]:
        return [op for op in self.ops.values() if op.gate == gate]

    @property
    def critical_path(self) -> int:
        """Cycle at which h_t is ready, measured from DPU output delivery."""
        return self.ops["output.mul_h"].ready

    def fu_counts(self, gate: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.gate_ops(gate):
            counts[op.fu] = counts.get(op.fu, 0) + 1
        return counts


def mu_plan(cfg: HardwareConfig, peephole: bool = True) -> MuPlan:
    """ASAP schedule of the per-element MU dependency graph (all gates)."""
    scheduled: dict[str, MuOp] = {}
    for op in _mu_op_list(peephole):  # the list is already in topological order
        op.latency = cfg.mu_comm_cycles if op.fu == "link" else cfg.op_latency[op.fu]
        op.start = max((scheduled[d].ready for d in op.deps), default=0)
        scheduled[f"{op.gate}.{op.name}"] = op
    return MuPlan(scheduled)


def mu_initiation_interval(plan: MuPlan, gate: str) -> int:
    """Cycles between elements one MU can sustain (per-FU issue-slot bound).

    Functional units are pipelined, so each op occupies one issue slot on its
    unit; link transfers ride dedicated wires and occupy nothing.
    """
    worst = 0
    for fu, count in plan.fu_counts(gate).items():
        if fu == "link":
            continue
        worst = max(worst, math.ceil(count / FU_UNITS[fu]))
    return worst


# quantize: scale multiply, round (add-one plus two logic steps), pack;
# dequantize: one table lookup.  Overlapped with the DPU's next element.
_QUANT_FU_OPS = (("mul", 1), ("add", 1), ("move", 2))
_QUANT_OP_COUNT = sum(c for _, c in _QUANT_FU_OPS)
_DEQUANT_OP_COUNT = 1
# pipelined units: the cycles between quantized elements are an issue-slot count
_QUANT_MU_INTERVAL = max(math.ceil(c / FU_UNITS[fu]) for fu, c in _QUANT_FU_OPS)


# ---------------------------------------------------------------------------
# event counts

#: ``{(target, rw): (count, bytes)}``, the format of ``sched.gate_accesses``
Traffic = dict[tuple[Target, str], tuple[int, int]]


def _add_traffic(total: Traffic, traffic: Traffic, scale: int = 1) -> None:
    """Add ``scale`` times each entry of ``traffic`` into ``total``."""
    for key, (count, nbytes) in traffic.items():
        c, b = total.get(key, (0, 0))
        total[key] = (c + scale * count, b + scale * nbytes)


@dataclass(frozen=True)
class PassCost:
    """The cost of one layer-direction pass; a report's totals are their sum."""

    compute_cycles: int
    dram_fetch_cycles: int  # the pass's weights, fetched from DRAM once
    mu_critical_path: int
    dpu_ops_per_cu: int
    mu_ops: int
    traffic: Traffic


@dataclass
class SimReport:
    policy: Policy
    exact_mode: bool
    quant: QuantConfig | None
    precision: str
    T: int
    cycles: int
    compute_cycles: int
    stall_cycles: int
    seconds: float
    access: Traffic  # every (target, rw) key
    dpu_ops_per_cu: int  # the four CUs run one schedule
    mu_ops: int
    dram: dict
    storage: dict
    checks: dict
    mu_critical_path: int
    config: HardwareConfig
    network_summary: dict
    realtime: dict | None = None
    notes: list[str] = field(default_factory=list)
    # attached by simulate(), empty from cost_model()
    outputs: Sequence | None = None
    pass_alphas: list[float] = field(default_factory=list)

    @property
    def avg_dram_bandwidth(self) -> float:
        return self.dram["total_bytes"] / self.seconds

    def to_json(self) -> dict:
        """Fixed report schema; functional outputs are kept off-document."""
        return {
            "schema_version": 2,
            "policy": self.policy.value,
            "exact_mode": self.exact_mode,
            "quant": (dict(self.quant.to_json(),
                           calibrated_per_pass=bool(self.pass_alphas),
                           pass_alphas=list(self.pass_alphas))
                      if self.quant else None),
            "precision": self.precision,
            "sequence_length": self.T,
            "network": self.network_summary,
            "hardware": self.config.to_json(),
            "cycles": self.cycles,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "seconds": self.seconds,
            "access_counts": {t.value: {rw: dict(zip(("count", "bytes"), self.access[t, rw]))
                                        for rw in RW} for t in Target},
            "dpu_ops_per_cu": {g: self.dpu_ops_per_cu for g in GATES},
            "mu_ops": self.mu_ops,
            "dram": dict(self.dram),
            "avg_dram_bandwidth_bytes_per_s": self.avg_dram_bandwidth,
            "storage": dict(self.storage),
            "checks": dict(self.checks),
            "mu_critical_path": self.mu_critical_path,
            "realtime": self.realtime,
            "notes": list(self.notes),
        }

    def text_table(self) -> str:
        rows = [
            ("policy", self.policy.value),
            ("cycles", f"{self.cycles:,}"),
            ("stall cycles", f"{self.stall_cycles:,}"),
            ("seconds", f"{self.seconds:.6g}"),
            ("dram bytes", f"{self.dram['total_bytes']:,}"),
            ("avg dram bandwidth", f"{self.avg_dram_bandwidth / 1e6:.3g} MB/s"),
        ]
        if self.realtime:
            rows.append(("realtime dram bandwidth",
                         f"{self.realtime['bandwidth_bytes_per_s'] / 1e6:.3g} MB/s"))
        for t in Target:
            rows.append((f"{t.value} read bytes", f"{self.access[t, 'r'][1]:,}"))
            rows.append((f"{t.value} write bytes", f"{self.access[t, 'w'][1]:,}"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


# ---------------------------------------------------------------------------
# capacity and pass costs

def _check_capacity(net: NetworkDescriptor, T: int, policy: Policy,
                    cfg: HardwareConfig, qbytes: int) -> dict:
    """Storage high-water marks.

    The intermediate memory holds two sequence halves, one read and one
    written by each layer, beside one partial region sized for the largest
    layer.  Raises CapacityError for the first layer that does not fit.
    """
    eb = net.numeric_precision.elem_bytes
    partial = (max(4 * T * l.hidden_size * qbytes for l in net.layers)
               if policy is Policy.mwl else 0)
    half = (cfg.intermediate_mem_bytes - partial) // 2
    weight_hwm = input_hwm = row_hwm = 0
    for i, layer in enumerate(net.layers):
        # every gate holds the same matrices and bias, and the input gate has
        # a peephole whenever any gate does, so it is a largest gate
        wb_need = gate_weight_bytes(layer, "input", eb)
        if policy is Policy.mwl and pins_forward_rows(layer, eb, cfg.row_buffer_bytes):
            # recurrent matrix, bias, peephole stay resident; forward rows
            # stream through the row buffer
            wb_need -= gate_matrix_bytes(layer, eb)[0]
            row_hwm = max(row_hwm, layer.input_size * eb)
        if wb_need > cfg.weight_mem_bytes_per_cu:
            raise CapacityError(
                f"layer {i}: gate 'input' needs {wb_need} B of weight memory "
                f"per CU, {wb_need - cfg.weight_mem_bytes_per_cu} B over the "
                f"{cfg.weight_mem_bytes_per_cu} B configured"
            )
        weight_hwm = max(weight_hwm, wb_need)
        if policy is Policy.mwl:
            in_need = max(layer.input_size, layer.hidden_size) * eb
        else:
            in_need = (layer.input_size + layer.hidden_size) * eb
        if in_need > cfg.input_mem_bytes_per_cu:
            raise CapacityError(
                f"layer {i}: input buffer needs {in_need} B per CU, "
                f"{in_need - cfg.input_mem_bytes_per_cu} B over the "
                f"{cfg.input_mem_bytes_per_cu} B configured"
            )
        input_hwm = max(input_hwm, in_need)

        in_seq = T * layer.input_size * eb
        out_seq = T * layer.output_size * eb
        if in_seq > half or out_seq > half:
            need = 2 * max(in_seq, out_seq) + partial
            raise CapacityError(
                f"layer {i}: intermediate memory needs {need} B "
                f"(sequences {in_seq}/{out_seq} B plus {partial} B of partials), "
                f"{need - cfg.intermediate_mem_bytes} B over the "
                f"{cfg.intermediate_mem_bytes} B configured"
            )
    inter_hwm = (max(T * l.input_size for l in net.layers) * eb
                 + max(T * l.output_size for l in net.layers) * eb + partial)
    return {
        "weight_bytes_per_cu_hwm": weight_hwm,
        "weight_banks_per_cu": math.ceil(weight_hwm / cfg.bank_bytes),
        "input_buffer_hwm": input_hwm,
        "row_buffer_hwm": row_hwm,
        "partial_store_hwm": partial,
        "intermediate_hwm": inter_hwm,
        "intermediate_banks": math.ceil(inter_hwm / cfg.bank_bytes),
    }


def _dram_fetch_cycles(nbytes: int, cfg: HardwareConfig) -> int:
    per_cycle = cfg.peak_dram_bandwidth / cfg.frequency_hz
    return math.ceil(nbytes / per_cycle) + math.ceil(cfg.dram_latency_s * cfg.frequency_hz)


def _pass_cost(layer: LayerDescriptor, T: int, policy: Policy,
               cfg: HardwareConfig, quant: QuantConfig | None,
               eb: int) -> PassCost:
    """The cost of one pass of ``layer`` over T steps, all four CUs.

    In each timestep the DPUs deliver one element every ``interval`` cycles
    for ``stream`` cycles, and the MU latency ``tail`` of the last element
    follows.  Raises MuBottleneckError when the MUs, not the DPUs, would set
    that pace: an MU needing more issue slots per element than the
    interval, or a tail longer than the stream.
    """
    h, nx = layer.hidden_size, layer.input_size
    dotx, doth = dpu_dot_cycles(nx, cfg), dpu_dot_cycles(h, cfg)
    plan = mu_plan(cfg, peephole=layer.peephole)
    cp = plan.critical_path
    if policy is Policy.conventional:
        # the next timestep's forward dots overlap part of the MU tail
        interval, phase, tail = dotx + doth, "conventional", max(0, cp - dotx)
    else:
        # the quantizer keeps pace with the forward dots: its interval (2)
        # is below the shortest dot any valid config allows (3: one
        # sub-vector, mul >= 1, add >= 1), so the MUs need no check for it
        interval, phase, tail = doth, "mwl-recurrent", cp
    stream = h * interval
    for gate in GATES:
        ii = mu_initiation_interval(plan, gate)
        if ii > interval:
            raise MuBottleneckError(
                f"MU of gate '{gate}' needs {ii} issue slots/element but the "
                f"DPU delivers one every {interval} cycles ({phase}, hidden="
                f"{h}, input={nx}); the MU would be the end-to-end bottleneck"
            )
    if tail > stream:
        raise MuBottleneckError(
            f"the MU latency tail ({tail} cycles) exceeds a whole timestep "
            f"of DPU work ({stream} cycles) for hidden={h}, input={nx} "
            f"({phase}); the MU would be the end-to-end bottleneck"
        )
    if policy is Policy.conventional:
        cycles = T * stream + (T - 1) * tail + cp
    else:
        # the forward phase, the quantizer drain (once), the recurrent phase
        drain = _QUANT_MU_INTERVAL if quant is not None else 0
        cycles = T * h * dotx + drain + T * (stream + tail)

    n = len(GATES)
    kx, kh = math.ceil(nx / cfg.dpu_width), math.ceil(h / cfg.dpu_width)
    quant_ops = n * (_QUANT_OP_COUNT + _DEQUANT_OP_COUNT) if quant is not None else 0
    # per-element bias and peephole scalars, read through the weight buffer
    scalars = T * h * (n + (len(PEEPHOLE_GATES) if layer.peephole else 0))
    weight_bytes = cell_weight_bytes(layer, eb)
    traffic: Traffic = {}
    _add_traffic(traffic, gate_accesses(layer, T, policy, eb, partial_bytes(quant),
                                        cfg.row_buffer_bytes), scale=n)
    _add_traffic(traffic, {
        (Target.weight_buffer, "r"): (scalars, scalars * eb),
        # the DPUs stream x_t and h_{t-1} from the input buffers
        (Target.input_buffer, "r"): (n * T * h * (kx + kh), n * T * h * (nx + h) * eb),
        # the step's inputs are broadcast into the four input buffers
        (Target.input_buffer, "w"): (n * T, n * T * (nx + h) * eb),
        # h_t is written back and the layer input read, once per step
        (Target.intermediate_memory, "w"): (T, T * h * eb),
        (Target.intermediate_memory, "r"): (T, T * nx * eb),
        (Target.dram, "r"): (1, weight_bytes)})
    return PassCost(cycles, _dram_fetch_cycles(weight_bytes, cfg), cp,
                    T * h * (kx + kh), T * h * (len(plan.ops) + quant_ops), traffic)


# ---------------------------------------------------------------------------
# the simulator

def _quantize_partials(qcfg: QuantConfig, calibrate: bool,
                       alphas: list[float]) -> PartialsHook:
    """partials_hook of the quantized MWL schedule: the forward partials are
    stored as n-bit codes and read back as the table's values, in place.

    With ``calibrate`` each pass uses its own clamp magnitude (the measured
    peak |partial|, rounded up), standing in for an offline calibration run:
    the dequantization constants travel with each layer's weights anyway.
    The hook then appends the alpha it applied to ``alphas``, one per pass.
    """
    def hook(partials: np.ndarray) -> np.ndarray:
        applied = qcfg
        if calibrate:
            applied = QuantConfig(qcfg.n_bits,
                                  calibrate_alpha(float(np.max(np.abs(partials)))))
            alphas.append(applied.alpha)
        return quantize(partials, applied)
    return hook


def cost_model(net: NetworkDescriptor, T: int, policy: Policy,
               cfg: HardwareConfig, quant: QuantConfig | None = None,
               frames_per_second: float | None = None) -> SimReport:
    """Cycles, event counts, storage and DRAM traffic of one inference over
    a T-frame sequence, from shapes alone; the report carries no outputs.

    ``quant=None`` is exact mode; a QuantConfig stores the MWL partials as
    codes (the conventional schedule stores none, so it ignores ``quant``).
    Raises CapacityError when a layer does not fit on chip and
    MuBottleneckError when the MU latencies cannot keep up with the DPUs.
    """
    if policy is Policy.conventional:
        quant = None
    eb = net.numeric_precision.elem_bytes
    storage = _check_capacity(net, T, policy, cfg, partial_bytes(quant))

    notes: list[str] = []
    passes: list[PassCost] = []
    for i, layer in enumerate(net.layers):
        passes += [_pass_cost(layer, T, policy, cfg, quant, eb)] * layer.num_directions
        if policy is Policy.mwl and not pins_forward_rows(layer, eb, cfg.row_buffer_bytes):
            warn_row_buffer_fallback(layer.input_size * eb, cfg.row_buffer_bytes)
            notes.append(
                f"layer {i}: forward row ({layer.input_size * eb} B) exceeds the "
                "row buffer; forward reads fall back to the weight buffer"
            )

    # the passes, plus the input sequence in from DRAM to the first read
    # half and the final outputs out to the (pass-through) output stage
    access: Traffic = {(t, rw): (0, 0) for t in Target for rw in RW}
    network_io = {(Target.dram, "r"): (1, T * net.input_dim * eb),
                  (Target.intermediate_memory, "w"): (T, T * net.input_dim * eb),
                  (Target.dram, "w"): (1, T * net.output_dim * eb)}
    for traffic in (network_io, *(p.traffic for p in passes)):
        _add_traffic(access, traffic)

    compute_cycles = sum(p.compute_cycles for p in passes)
    # weight prefetch for pass p overlaps compute of pass p-1
    stall_cycles = passes[0].dram_fetch_cycles
    for prev, cur in zip(passes, passes[1:]):
        stall_cycles += max(0, cur.dram_fetch_cycles - prev.compute_cycles)

    cycles = compute_cycles + stall_cycles
    seconds = cycles / cfg.frequency_hz

    dram_summary = dram_traffic(net, T).to_json()
    avg_bw = dram_summary["total_bytes"] / seconds
    if avg_bw > cfg.peak_dram_bandwidth:
        warnings.warn(
            f"required average DRAM bandwidth {avg_bw / 1e9:.2f} GB/s exceeds the "
            f"peak {cfg.peak_dram_bandwidth / 1e9:.2f} GB/s",
            RuntimeWarning,
        )
        notes.append("bandwidth: required average exceeds configured peak")

    realtime = None
    if frames_per_second:
        audio_s = T / frames_per_second
        realtime = {
            "frames_per_second": frames_per_second,
            "audio_seconds": audio_s,
            "bandwidth_bytes_per_s": dram_summary["total_bytes"] / audio_s,
            "faster_than_realtime": audio_s / seconds,
        }

    checks = {
        # the simulator's own DRAM counts against the traffic model
        "dram_counters_consistent": (access[Target.dram, "r"][1] + access[Target.dram, "w"][1]
                                     == dram_summary["total_bytes"]),
    }

    return SimReport(
        policy=policy,
        exact_mode=quant is None,
        quant=quant,
        precision=net.numeric_precision.value,
        T=T,
        cycles=cycles,
        compute_cycles=compute_cycles,
        stall_cycles=stall_cycles,
        seconds=seconds,
        access=access,
        dpu_ops_per_cu=sum(p.dpu_ops_per_cu for p in passes),
        mu_ops=sum(p.mu_ops for p in passes),
        dram=dram_summary,
        storage=storage,
        checks=checks,
        mu_critical_path=max(p.mu_critical_path for p in passes),
        config=cfg,
        network_summary={
            "input_dim": net.input_dim,
            "precision": net.numeric_precision.value,
            "layers": [
                {"hidden_size": l.hidden_size, "input_size": l.input_size,
                 "direction": l.direction.value, "peephole": l.peephole}
                for l in net.layers
            ],
        },
        realtime=realtime,
        notes=notes,
    )


def simulate(net: NetworkDescriptor, weights: NetworkWeights, inp: Sequence,
             report: SimReport, quant_calibrate: bool = False) -> SimReport:
    """``report`` (``cost_model``'s report of ``net`` over ``inp``'s length)
    with the datapath's outputs attached.  ``quant_calibrate`` swaps the
    clamp magnitude of the report's quant for a per-pass calibrated one.

    The refusals of a run (capacity, MU bottleneck) are ``cost_model``'s, so
    a caller learns of them before any datapath work starts.
    """
    if inp.dim != net.input_dim or inp.length != report.T:
        raise ShapeError(f"input [{inp.length}, {inp.dim}] != report's "
                         f"[{report.T}, {net.input_dim}]")
    # both schedules run the one ordered accumulation; quantized MWL stores
    # its hoisted forward partials as codes
    hook = (_quantize_partials(report.quant, quant_calibrate, report.pass_alphas)
            if report.quant is not None else None)
    seq = inp
    for i, layer in enumerate(net.layers):
        seq = layer_infer(layer, weights[i], seq, hook)
    report.outputs = seq
    return report
