"""Cycle-level model of the accelerator: four computation units (one per
gate), each a dot-product unit plus a multifunctional unit, fed by per-CU
weight/input buffers and a shared double-buffered intermediate memory.

The functional values produced by a simulation follow the exact accumulation
order contract of the reference model, so exact-mode runs are bit-identical
to it.  The timing and event counts come from ``cost_model``, which reads
only shapes, the sequence length, the schedule and the configuration.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .model import (ACC_DTYPE, GATES, NetworkDescriptor, NetworkWeights,
                    PartialsHook, Sequence, ShapeError, cell_weight_bytes,
                    gate_matrix_bytes, gate_weight_bytes, layer_infer)
from .quant import DequantTable, QuantConfig, calibrate_alpha, quantize
from .sched import (Policy, Target, dram_traffic, gate_accesses,
                    partial_bytes, pins_forward_rows)

DEFAULT_OP_LATENCY = {
    # add/mul/exp come straight from the hardware parameter table; div and
    # cmp are not listed there and default to the exp/add values, move is a
    # register-file transfer
    "add": 2,
    "mul": 4,
    "exp": 5,
    "div": 5,
    "cmp": 2,
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


def baseline_config(**overrides) -> HardwareConfig:
    """Baseline preset: 4 MB weight memory and 8 KB input memory per CU."""
    return HardwareConfig(**overrides)


def mwl_config(**overrides) -> HardwareConfig:
    """MWL preset: weight and input memories halved (2 MB / 4 KB per CU)."""
    kwargs = dict(weight_mem_bytes_per_cu=2 * 2**20,
                  input_mem_bytes_per_cu=4 * 2**10)
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


HW_PRESETS: dict[str, Callable[..., HardwareConfig]] = {
    "epur": baseline_config,
    "epur-mwl": mwl_config,
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
    peephole: bool
    unit_latencies: bool

    def gate_ops(self, gate: str) -> list[MuOp]:
        return [op for op in self.ops.values() if op.gate == gate]

    def start_of(self, gate: str, name: str) -> int:
        return self.ops[f"{gate}.{name}"].start

    def gate_span(self, gate: str) -> int:
        """Index of the last stage the gate occupies (unit-latency view)."""
        return max(op.start + op.latency - 1 for op in self.gate_ops(gate))

    @property
    def critical_path(self) -> int:
        """Cycle at which h_t is ready, measured from DPU output delivery."""
        return self.ops["output.mul_h"].ready

    def fu_counts(self, gate: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.gate_ops(gate):
            counts[op.fu] = counts.get(op.fu, 0) + 1
        return counts

    def op_count(self, gate: str) -> int:
        return len(self.gate_ops(gate))


def mu_plan(cfg: HardwareConfig, peephole: bool = True,
            unit_latencies: bool = False) -> MuPlan:
    """ASAP schedule of the per-element MU dependency graph (all gates)."""
    lat = {k: 1 for k in DEFAULT_OP_LATENCY} if unit_latencies else cfg.op_latency
    comm = 1 if unit_latencies else cfg.mu_comm_cycles
    ops = _mu_op_list(peephole)
    scheduled: dict[str, MuOp] = {}
    for op in ops:  # the list is already in topological order
        op.latency = comm if op.fu == "link" else lat[op.fu]
        op.start = max((scheduled[d].ready for d in op.deps), default=0)
        scheduled[f"{op.gate}.{op.name}"] = op
    return MuPlan(scheduled, peephole, unit_latencies)


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
_QUANT_OP_COUNT = 4
_DEQUANT_OP_COUNT = 1
# pipelined units: the cycles between quantized elements are an issue-slot count
_QUANT_MU_INTERVAL = max(math.ceil(c / FU_UNITS[fu]) for fu, c in _QUANT_FU_OPS)


# ---------------------------------------------------------------------------
# event counters

class Counters:
    def __init__(self):
        self.data: dict[Target, dict[str, dict[str, int]]] = {
            t: {"r": {"count": 0, "bytes": 0}, "w": {"count": 0, "bytes": 0}}
            for t in Target
        }
        self.dpu_ops_per_cu: dict[str, int] = {g: 0 for g in GATES}
        self.mu_ops: int = 0

    def bump(self, target: Target, rw: str, count: int, nbytes: int) -> None:
        cell = self.data[target][rw]
        cell["count"] += count
        cell["bytes"] += nbytes

    def to_json(self) -> dict:
        return {t.value: {rw: dict(v) for rw, v in sides.items()}
                for t, sides in self.data.items()}


@dataclass
class PassTiming:
    compute_cycles: int
    dram_fetch_cycles: int


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
    access: Counters
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
            "schema_version": 1,
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
            "access_counts": self.access.to_json(),
            "dpu_ops_per_cu": dict(self.access.dpu_ops_per_cu),
            "mu_ops": self.access.mu_ops,
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
        for t, sides in self.access.data.items():
            rows.append((f"{t.value} read bytes", f"{sides['r']['bytes']:,}"))
            rows.append((f"{t.value} write bytes", f"{sides['w']['bytes']:,}"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


# ---------------------------------------------------------------------------
# capacity checks

def _check_capacity(net: NetworkDescriptor, T: int, policy: Policy,
                    cfg: HardwareConfig, qbytes: int) -> dict:
    eb = net.numeric_precision.elem_bytes
    weight_hwm = 0
    input_hwm = 0
    row_hwm = 0
    partial_hwm = 0
    for i, layer in enumerate(net.layers):
        pinned = (policy is Policy.mwl
                  and pins_forward_rows(layer, eb, cfg.row_buffer_bytes))
        for g in GATES:
            full = gate_weight_bytes(layer, g, eb)
            if pinned:
                # recurrent matrix, bias, peephole stay resident; forward rows
                # stream through the row buffer
                wb_need = full - gate_matrix_bytes(layer, eb)[0]
                row_hwm = max(row_hwm, layer.input_size * eb)
            else:
                wb_need = full
            if wb_need > cfg.weight_mem_bytes_per_cu:
                raise CapacityError(
                    f"layer {i}: gate '{g}' needs {wb_need} B of weight memory "
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

        partial = 4 * T * layer.hidden_size * qbytes if policy is Policy.mwl else 0
        partial_hwm = max(partial_hwm, partial)
        half = (cfg.intermediate_mem_bytes - partial) // 2
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
                 + max(T * l.output_size for l in net.layers) * eb + partial_hwm)
    return {
        "weight_bytes_per_cu_hwm": weight_hwm,
        "weight_banks_per_cu": math.ceil(weight_hwm / cfg.bank_bytes),
        "input_buffer_hwm": input_hwm,
        "row_buffer_hwm": row_hwm,
        "partial_store_hwm": partial_hwm,
        "intermediate_hwm": inter_hwm,
        "intermediate_banks": math.ceil(inter_hwm / cfg.bank_bytes),
    }


def _check_mu_throughput(net: NetworkDescriptor, policy: Policy,
                         cfg: HardwareConfig) -> None:
    """Raise if the MUs would become the end-to-end bottleneck.

    Two conditions guard the claim that the dot-product units set the pace:
    the per-element MU issue rate must keep up with the DPU delivery rate,
    and the MU latency tail paid at each timestep boundary (the last
    element's trip to h_t) must not dominate the timestep's DPU stream.
    """
    for layer in net.layers:
        dotx = dpu_dot_cycles(layer.input_size, cfg)
        doth = dpu_dot_cycles(layer.hidden_size, cfg)
        plan = mu_plan(cfg, peephole=layer.peephole)
        if policy is Policy.mwl and _QUANT_MU_INTERVAL > dotx:
            raise MuBottleneckError(
                f"quantization work ({_QUANT_MU_INTERVAL} cycles/element) outpaces "
                f"the forward DPU interval ({dotx}) for layer with "
                f"input_size={layer.input_size}"
            )
        interval, phase, stream, tail = (
            (dotx + doth, "conventional",
             layer.hidden_size * (dotx + doth),
             max(0, plan.critical_path - dotx))
            if policy is Policy.conventional else
            (doth, "mwl-recurrent",
             layer.hidden_size * doth,
             plan.critical_path)
        )
        for gate in GATES:
            ii = mu_initiation_interval(plan, gate)
            if ii > interval:
                raise MuBottleneckError(
                    f"MU of gate '{gate}' needs {ii} issue slots/element but the "
                    f"DPU delivers one every {interval} cycles ({phase}, hidden="
                    f"{layer.hidden_size}, input={layer.input_size}); the MU "
                    "would be the end-to-end bottleneck"
                )
        if tail > stream:
            raise MuBottleneckError(
                f"the MU latency tail ({tail} cycles) exceeds a whole timestep "
                f"of DPU work ({stream} cycles) for hidden={layer.hidden_size}, "
                f"input={layer.input_size} ({phase}); the MU would be the "
                "end-to-end bottleneck"
            )


# ---------------------------------------------------------------------------
# the simulator

def _dram_fetch_cycles(nbytes: int, cfg: HardwareConfig) -> int:
    per_cycle = cfg.peak_dram_bandwidth / cfg.frequency_hz
    return math.ceil(nbytes / per_cycle) + math.ceil(cfg.dram_latency_s * cfg.frequency_hz)


def _quantize_partials(qcfg: QuantConfig, calibrate: bool,
                       alphas: list[float]) -> PartialsHook:
    """partials_hook of the quantized MWL schedule: the forward partials are
    stored as n-bit codes and read back through the dequantization table.

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
        return DequantTable(applied).lookup(quantize(partials, applied)).astype(ACC_DTYPE)
    return hook


def calibrate_network_alpha(net: NetworkDescriptor, weights: NetworkWeights,
                            inp: Sequence) -> float:
    """Measure max |forward partial| over a calibration run and round it up."""
    peaks = [0.0]

    def observe(partials: np.ndarray) -> np.ndarray:
        peaks.append(float(np.max(np.abs(partials))))
        return partials

    seq = inp
    for i, layer in enumerate(net.layers):
        seq = layer_infer(layer, weights.layers[i], seq, observe)
    return calibrate_alpha(max(peaks))


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
    qbytes = partial_bytes(quant)
    storage = _check_capacity(net, T, policy, cfg, qbytes)
    _check_mu_throughput(net, policy, cfg)

    counters = Counters()
    notes: list[str] = []
    mu_cp_worst = 0
    passes: list[PassTiming] = []

    # intermediate-memory layout: two sequence halves plus the partial region
    half = (cfg.intermediate_mem_bytes - storage["partial_store_hwm"]) // 2
    db_disjoint = True

    # input sequence arrives from DRAM into the first read half
    counters.bump(Target.dram, "r", 1, T * net.input_dim * eb)
    counters.bump(Target.intermediate_memory, "w", T, T * net.input_dim * eb)

    for i, layer in enumerate(net.layers):
        h, nx = layer.hidden_size, layer.input_size
        dotx = dpu_dot_cycles(nx, cfg)
        doth = dpu_dot_cycles(h, cfg)
        kx = math.ceil(nx / cfg.dpu_width)
        kh = math.ceil(h / cfg.dpu_width)
        plan = mu_plan(cfg, peephole=layer.peephole)
        mu_cp = plan.critical_path
        mu_cp_worst = max(mu_cp_worst, mu_cp)
        if policy is Policy.mwl and not pins_forward_rows(layer, eb, cfg.row_buffer_bytes):
            notes.append(
                f"layer {i}: forward row ({nx * eb} B) exceeds the row buffer; "
                "forward reads fall back to the weight buffer"
            )
        gate_traffic = gate_accesses(layer, T, policy, eb, qbytes, cfg.row_buffer_bytes)

        read_lo, read_hi = (i % 2) * half, (i % 2) * half + T * nx * eb
        write_lo = ((i + 1) % 2) * half
        write_hi = write_lo + T * layer.output_size * eb
        if max(read_lo, write_lo) < min(read_hi, write_hi):
            db_disjoint = False

        for _ in range(layer.num_directions):
            # --- per-pass cycle model
            if policy is Policy.conventional:
                stream = T * h * (dotx + doth)
                # the next timestep's forward dots overlap part of the MU tail
                tail = (T - 1) * max(0, mu_cp - dotx) + mu_cp
                pass_cycles = stream + tail
            else:
                phase1 = T * h * dotx
                if quant is not None:
                    phase1 += _QUANT_MU_INTERVAL  # quantizer drain, once
                phase2 = T * h * doth + T * mu_cp
                pass_cycles = phase1 + phase2

            # --- event counters
            for g in GATES:
                counters.dpu_ops_per_cu[g] += T * h * (kx + kh)
                counters.mu_ops += T * h * plan.op_count(g)
                if quant is not None:
                    counters.mu_ops += (_QUANT_OP_COUNT + _DEQUANT_OP_COUNT) * T * h
                # per-element bias (and peephole) scalars via the weight buffer
                mu_soft = T * h
                counters.bump(Target.weight_buffer, "r", mu_soft, mu_soft * eb)
                if layer.peephole and g in ("input", "forget", "output"):
                    counters.bump(Target.weight_buffer, "r", mu_soft, mu_soft * eb)
                for (target, rw), (count, nbytes) in gate_traffic.items():
                    counters.bump(target, rw, count, nbytes)
                # the DPU streams x_t and h_{t-1} from the input buffer
                counters.bump(Target.input_buffer, "r", T * h * (kx + kh),
                              T * h * (nx + h) * eb)
            # input frames broadcast into the four input buffers once per step
            counters.bump(Target.input_buffer, "w", T * 4, T * (nx + h) * 4 * eb)
            # h_t written back to the intermediate memory
            counters.bump(Target.intermediate_memory, "w", T, T * h * eb)
            # the layer input is read from the intermediate memory once per step
            counters.bump(Target.intermediate_memory, "r", T, T * nx * eb)

            # weights of this pass arrive from DRAM exactly once
            pass_weight_bytes = cell_weight_bytes(layer, eb)
            counters.bump(Target.dram, "r", 1, pass_weight_bytes)
            passes.append(PassTiming(pass_cycles, _dram_fetch_cycles(pass_weight_bytes, cfg)))

    # final outputs leave for the (pass-through) output stage
    counters.bump(Target.dram, "w", 1, T * net.output_dim * eb)

    compute_cycles = sum(p.compute_cycles for p in passes)
    # weight prefetch for pass p overlaps compute of pass p-1
    stall_cycles = passes[0].dram_fetch_cycles
    for prev, cur in zip(passes, passes[1:]):
        stall_cycles += max(0, cur.dram_fetch_cycles - prev.compute_cycles)

    cycles = compute_cycles + stall_cycles
    seconds = cycles / cfg.frequency_hz

    traffic = dram_traffic(net, policy, T)
    dram_summary = traffic.to_json()
    # cross-check the simulator's own DRAM counters against the traffic model
    counted = (counters.data[Target.dram]["r"]["bytes"]
               + counters.data[Target.dram]["w"]["bytes"])
    dram_consistent = counted == dram_summary["total_bytes"]

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

    dpu_counts = set(counters.dpu_ops_per_cu.values())
    checks = {
        "double_buffer_disjoint": db_disjoint,
        "cu_dot_products_balanced": len(dpu_counts) == 1,
        "dram_counters_consistent": dram_consistent,
        "mu_bottleneck": False,  # cost_model() raises before reporting otherwise
    }
    if not db_disjoint:
        raise RuntimeError("double-buffer invariant violated: read and write "
                           "intervals of the intermediate memory overlap")

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
        access=counters,
        dram=dram_summary,
        storage=storage,
        checks=checks,
        mu_critical_path=mu_cp_worst,
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
             policy: Policy, cfg: HardwareConfig,
             quant: QuantConfig | None = None,
             quant_calibrate: bool = False,
             frames_per_second: float | None = None) -> SimReport:
    """``cost_model``'s report of one inference, with the datapath's outputs
    attached.  ``quant_calibrate`` swaps the clamp magnitude of ``quant``
    for a per-pass calibrated one.
    """
    if inp.dim != net.input_dim:
        raise ShapeError(f"input dim {inp.dim} != network input_dim {net.input_dim}")
    report = cost_model(net, inp.length, policy, cfg, quant, frames_per_second)
    # both schedules run the one ordered accumulation; quantized MWL stores
    # its hoisted forward partials as codes
    hook = (_quantize_partials(report.quant, quant_calibrate, report.pass_alphas)
            if report.quant is not None else None)
    seq = inp
    for i, layer in enumerate(net.layers):
        seq = layer_infer(layer, weights.layers[i], seq, hook)
    report.outputs = seq
    return report
