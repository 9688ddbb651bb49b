"""Functional and cycle-level simulator of an LSTM inference accelerator
built around four per-gate computation units, with a weight-locality
(MWL) schedule option and event-based energy accounting."""

from .model import (CellState, Direction, GateParams, LayerDescriptor,
                    NetworkDescriptor, NetworkWeights, Precision, Sequence,
                    WeightSet, cell_step, gate_preactivation, layer_infer,
                    network_infer)
from .quant import DequantTable, QuantConfig, quantize
from .sched import (AccessEvent, AccessTrace, Policy, ReuseStats, Target,
                    dram_traffic, reuse_analysis, trace_conventional,
                    trace_mwl)
from .arch import (CapacityError, HardwareConfig, MuBottleneckError, SimReport,
                   baseline_config, cost_model, dpu_dot_cycles, mu_plan,
                   mwl_config, simulate)
from .energy import EnergyReport, EnergyTable, account, compare

__version__ = "0.1.0"

__all__ = [
    "CellState", "Direction", "GateParams", "LayerDescriptor",
    "NetworkDescriptor", "NetworkWeights", "Precision", "Sequence",
    "WeightSet", "cell_step", "gate_preactivation", "layer_infer",
    "network_infer",
    "DequantTable", "QuantConfig", "quantize",
    "AccessEvent", "AccessTrace", "Policy", "ReuseStats", "Target",
    "dram_traffic", "reuse_analysis", "trace_conventional", "trace_mwl",
    "CapacityError", "HardwareConfig", "MuBottleneckError", "SimReport",
    "baseline_config", "dpu_dot_cycles", "mu_plan", "mwl_config",
    "cost_model", "simulate",
    "EnergyReport", "EnergyTable", "account", "compare",
]
