"""Event-counting energy model.

Dynamic energy is a dot product of event counts with a per-event cost table;
leakage charges each powered component for the whole run's wall time, with
unused memory banks power-gated.  The default table carries representative
28 nm-class relative costs only (DRAM roughly 200x on-chip SRAM per byte);
every assertion downstream is about ratios and counts, never absolute joules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .sched import Target

MIB = float(2**20)


class EnergyConfigError(ValueError):
    """A negative cost, or DRAM no dearer per byte than an on-chip memory."""


@dataclass(frozen=True)
class EnergyTable:
    # joules per byte moved
    weight_buffer_read: float = 1.0e-12
    weight_buffer_write: float = 1.2e-12
    row_buffer_read: float = 0.10e-12
    row_buffer_write: float = 0.12e-12
    input_buffer_read: float = 0.15e-12
    input_buffer_write: float = 0.18e-12
    intermediate_memory_read: float = 1.2e-12
    intermediate_memory_write: float = 1.4e-12
    dram_read: float = 200.0e-12
    dram_write: float = 200.0e-12
    # joules per operation
    dpu_subvector_op: float = 30.0e-12
    mu_op: float = 4.0e-12
    # leakage, watts; memories scale with powered capacity
    sram_leakage_w_per_mib: float = 3.0e-3
    logic_leakage_w: float = 20.0e-3

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if v < 0:
                raise EnergyConfigError(f"{name} must be non-negative")
        onchip = [self.weight_buffer_read, self.row_buffer_read,
                  self.input_buffer_read, self.intermediate_memory_read]
        if any(self.dram_read <= c for c in onchip):
            raise EnergyConfigError(
                "dram per-byte cost must exceed every on-chip per-byte cost")


_BYTE_CLASSES = {
    Target.weight_buffer: ("weight_buffer_read", "weight_buffer_write"),
    Target.row_buffer: ("row_buffer_read", "row_buffer_write"),
    Target.input_buffer: ("input_buffer_read", "input_buffer_write"),
    Target.intermediate_memory: ("intermediate_memory_read", "intermediate_memory_write"),
    Target.dram: ("dram_read", "dram_write"),
}

SCRATCHPAD_COMPONENTS = ("weight_buffer", "row_buffer", "input_buffer",
                         "intermediate_memory")
OPERATION_COMPONENTS = ("dpu", "mu")


def account(report: dict, table: EnergyTable) -> dict:
    """A report's event counts as an energy breakdown: joules per component,
    dynamic and leakage, their totals, each group's share of the total (on-
    chip scratchpads, operations, DRAM) and the run it describes."""
    access = report["access_counts"]
    dynamic: dict[str, float] = {}
    for target, (rname, wname) in _BYTE_CLASSES.items():
        counts = access[target.value]
        dynamic[target.value] = (counts["r"]["bytes"] * getattr(table, rname)
                                 + counts["w"]["bytes"] * getattr(table, wname))
    dynamic["dpu"] = sum(report["dpu_ops_per_cu"].values()) * table.dpu_subvector_op
    dynamic["mu"] = report["mu_ops"] * table.mu_op

    # leakage: banks actually touched stay powered for the whole run
    hw = report["hardware"]
    bank = hw["bank_bytes"]
    seconds = report["seconds"]
    powered = {
        "weight_memory": 4 * report["storage"]["weight_banks_per_cu"] * bank,
        "intermediate_memory": report["storage"]["intermediate_banks"] * bank,
        # small per-CU buffers are not banked; they stay powered at capacity
        "input_memory": 4 * hw["input_mem_bytes_per_cu"],
        "row_buffer": 4 * hw["row_buffer_bytes"],
    }
    leakage = {name: table.sram_leakage_w_per_mib * (nbytes / MIB) * seconds
               for name, nbytes in powered.items()}
    leakage["logic"] = table.logic_leakage_w * seconds

    dynamic_total = sum(dynamic.values())
    leakage_total = sum(leakage.values())
    total = dynamic_total + leakage_total
    scratch = (sum(dynamic[c] for c in SCRATCHPAD_COMPONENTS)
               + sum(v for k, v in leakage.items() if k != "logic"))
    ops = sum(dynamic[c] for c in OPERATION_COMPONENTS) + leakage["logic"]
    return {
        "dynamic_by_component": dynamic,
        "leakage_by_component": leakage,
        "dynamic_total": dynamic_total,
        "leakage_total": leakage_total,
        "total": total,
        "fractions": {"scratchpad": scratch / total, "operations": ops / total,
                      "dram": dynamic["dram"] / total},
        "meta": {
            "policy": report["policy"],
            "sequence_length": report["sequence_length"],
            "precision": report["precision"],
            "network": report["network"],
            "seconds": seconds,
            "powered_bytes": powered,
        },
    }


def compare(baseline: dict, other: dict) -> dict:
    """Per-component other/baseline energy ratios of two ``account`` dicts, as
    ``{"ratios", "total_ratio", "regressions"}``.

    Components where the second run consumes more are flagged (expected for
    the intermediate memory under MWL, which stores the partial outputs).
    """
    for key in ("sequence_length", "precision", "network"):
        if baseline["meta"][key] != other["meta"][key]:
            raise ValueError(f"reports disagree on {key}; refusing to compare")
    ratios: dict[str, float] = {}
    regressions: list[str] = []

    def ratio_into(kind: str, a: dict[str, float], b: dict[str, float]):
        for comp, base_val in a.items():
            val = b.get(comp, 0.0)
            name = f"{kind}.{comp}"
            if base_val > 0:
                ratios[name] = val / base_val
                if val > base_val * (1 + 1e-12):
                    regressions.append(name)
            elif val > 0:
                ratios[name] = math.inf
                regressions.append(name)

    ratio_into("dynamic", baseline["dynamic_by_component"], other["dynamic_by_component"])
    ratio_into("leakage", baseline["leakage_by_component"], other["leakage_by_component"])
    total_ratio = (other["total"] / baseline["total"] if baseline["total"] > 0
                   else math.inf)
    return {"ratios": ratios, "total_ratio": total_ratio, "regressions": regressions}
