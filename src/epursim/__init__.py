"""Functional and cycle-level simulator of an LSTM inference accelerator
built around four per-gate computation units, with a weight-locality
(MWL) schedule option and event-based energy accounting."""

from .model import (Direction, LayerDescriptor, NetworkDescriptor,
                    NetworkWeights, Precision, Sequence, WeightSet,
                    layer_infer, network_infer)
from .quant import QuantConfig, quantize
from .sched import (GateTrace, Policy, Target, dram_traffic, reuse_analysis,
                    trace_conventional, trace_mwl)
from .arch import (CapacityError, HardwareConfig, MuBottleneckError, SimReport,
                   cost_model, dpu_dot_cycles, mu_plan, simulate)
from .energy import EnergyReport, EnergyTable, account, compare

__version__ = "0.1.0"

__all__ = [
    "Direction", "LayerDescriptor",
    "NetworkDescriptor", "NetworkWeights", "Precision", "Sequence",
    "WeightSet", "layer_infer", "network_infer",
    "QuantConfig", "quantize",
    "GateTrace", "Policy", "Target",
    "dram_traffic", "reuse_analysis", "trace_conventional", "trace_mwl",
    "CapacityError", "HardwareConfig", "MuBottleneckError", "SimReport",
    "dpu_dot_cycles", "mu_plan", "cost_model", "simulate",
    "EnergyReport", "EnergyTable", "account", "compare",
]
