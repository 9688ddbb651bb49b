import copy
import dataclasses
import math

import pytest

from conftest import cell_for_layer, random_frames, simulate, weights_for
from epursim.arch import HW_PRESETS, HardwareConfig
from epursim.energy import (EnergyConfigError, EnergyTable, account, compare)
from epursim.model import GATES, Direction, LayerDescriptor, NetworkDescriptor
from epursim.sched import RW, Policy, Target

TABLE = EnergyTable()


def square_net(hidden, peephole=False, seed=0):
    layer = LayerDescriptor(hidden, hidden, Direction.forward_only, peephole)
    net = NetworkDescriptor((layer,), input_dim=hidden)
    weights = weights_for(net, lambda i, d, l: cell_for_layer(l, seed))
    return net, weights


def run(hidden, T, policy, cfg=None, peephole=False):
    """The report of one simulated run of a square layer."""
    net, weights = square_net(hidden, peephole)
    cfg = cfg or HardwareConfig()
    return simulate(net, weights, random_frames(net, T, 1), policy, cfg)[0]


def empty_report():
    """A report with no events, no cost model could produce: T = 0.  Its wall
    time is nonzero, since the energy shares divide by the total."""
    return {
        "policy": Policy.conventional.value, "precision": "fp32", "sequence_length": 0,
        "network": {}, "hardware": dataclasses.asdict(HardwareConfig()), "seconds": 1e-6,
        "access_counts": {t.value: {rw: {"count": 0, "bytes": 0} for rw in RW}
                          for t in Target},
        "dpu_ops_per_cu": dict.fromkeys(GATES, 0), "mu_ops": 0,
        "storage": {"weight_banks_per_cu": 0, "intermediate_banks": 0},
    }


class TestAccount:
    def test_zero_run_zero_energy(self):
        rep = account(empty_report(), TABLE)
        assert set(rep["dynamic_by_component"].values()) == {0.0}
        assert rep["dynamic_total"] == 0.0
        assert rep["total"] == rep["leakage_total"]

    def test_linearity_in_event_counts(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        doubled = copy.deepcopy(sim)
        for counts in doubled["access_counts"].values():
            for c in counts.values():
                c["count"] *= 2
                c["bytes"] *= 2
        doubled["dpu_ops_per_cu"] = {g: 2 * n for g, n in sim["dpu_ops_per_cu"].items()}
        doubled["mu_ops"] *= 2
        got = account(doubled, TABLE)
        assert got["dynamic_total"] == pytest.approx(2 * base["dynamic_total"], rel=1e-12)
        assert got["leakage_total"] == pytest.approx(base["leakage_total"], rel=1e-12)

    def test_linearity_in_wall_time(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        slower = copy.deepcopy(sim)
        slower["seconds"] *= 3
        got = account(slower, TABLE)
        assert got["leakage_total"] == pytest.approx(3 * base["leakage_total"], rel=1e-12)
        assert got["dynamic_total"] == pytest.approx(base["dynamic_total"], rel=1e-12)

    def test_a_one_byte_row_buffer_leaks(self):
        # each CU's row buffer stays powered at its capacity, however small
        rep = run(16, 2, Policy.conventional, HardwareConfig(row_buffer_bytes=1))
        got = account(rep, TABLE)["leakage_by_component"]["row_buffer"]
        assert got == TABLE.sram_leakage_w_per_mib * 4 / 2**20 * rep["seconds"] > 0

    def test_fractions_sum_to_one(self):
        sim = run(16, 4, Policy.mwl)
        rep = account(sim, TABLE)
        assert sum(rep["fractions"].values()) == pytest.approx(1.0, abs=1e-9)
        assert 0 < rep["fractions"]["operations"] < 1

    def test_dram_ordering_enforced_in_table(self):
        with pytest.raises(EnergyConfigError, match="dram"):
            EnergyTable(dram_read=0.5e-12)

    def test_moving_traffic_off_chip_costs_more(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        moved = copy.deepcopy(sim)
        wb, dram = (moved["access_counts"][t]["r"] for t in ("weight_buffer", "dram"))
        dram["bytes"] += wb["bytes"]
        wb["bytes"] = 0
        got = account(moved, TABLE)
        assert got["dynamic_total"] > base["dynamic_total"]


class TestWeightBufferRatio:
    def test_mwl_weight_buffer_dynamic_half_of_baseline(self):
        T = 100
        a = account(run(32, T, Policy.conventional), TABLE)
        b = account(run(32, T, Policy.mwl), TABLE)
        ratio = (b["dynamic_by_component"]["weight_buffer"]
                 / a["dynamic_by_component"]["weight_buffer"])
        assert abs(ratio - 0.5) <= 1 / T + 0.005


class TestCompare:
    def test_identical_reports_ratio_one(self):
        sim = run(16, 3, Policy.conventional)
        a = account(sim, TABLE)
        cmp = compare(a, account(sim, TABLE))
        assert cmp["total_ratio"] == pytest.approx(1.0)
        assert all(r == pytest.approx(1.0) for r in cmp["ratios"].values())
        assert not cmp["regressions"]

    def test_mwl_flags_intermediate_memory_regression(self):
        T = 50
        a = account(run(32, T, Policy.conventional), TABLE)
        b = account(run(32, T, Policy.mwl), TABLE)
        cmp = compare(a, b)
        assert "dynamic.intermediate_memory" in cmp["regressions"]
        assert cmp["ratios"]["dynamic.weight_buffer"] == pytest.approx(0.5, abs=0.02)
        assert cmp["ratios"]["dynamic.intermediate_memory"] > 1

    def test_weight_memory_leakage_halves_under_mwl_preset(self):
        # 512x512 gates: ~2.1 MiB per CU conventionally, ~1.05 MiB resident
        # under the locality schedule, with capacity presets 4 MiB -> 2 MiB
        net, weights = square_net(512)
        seq = random_frames(net, 2, 0)
        a = account(simulate(net, weights, seq, Policy.conventional,
                             HardwareConfig())[0], TABLE)
        b = account(simulate(net, weights, seq, Policy.mwl, HW_PRESETS["epur-mwl"]())[0],
                    TABLE)
        # normalize out the (slightly) different wall times
        ra = a["leakage_by_component"]["weight_memory"] / a["meta"]["seconds"]
        rb = b["leakage_by_component"]["weight_memory"] / b["meta"]["seconds"]
        assert abs(rb / ra - 0.5) <= 0.1

    def test_baseline_of_no_energy_gives_an_infinite_ratio(self):
        other = account(empty_report(), TABLE)
        baseline = copy.deepcopy(other)
        baseline["leakage_by_component"] = dict.fromkeys(other["leakage_by_component"], 0.0)
        baseline["leakage_total"] = baseline["total"] = 0.0
        cmp = compare(baseline, other)
        assert cmp["total_ratio"] == math.inf
        assert cmp["regressions"] == [f"leakage.{c}" for c, joules
                                      in other["leakage_by_component"].items() if joules]

    def test_mismatched_metadata_refused(self):
        a = account(run(16, 3, Policy.conventional), TABLE)
        b = account(run(16, 4, Policy.conventional), TABLE)
        with pytest.raises(ValueError, match="sequence_length"):
            compare(a, b)


class TestTableSerialization:
    def test_negative_cost_rejected(self):
        with pytest.raises(EnergyConfigError):
            EnergyTable(mu_op=-1.0)

    def test_report_json(self):
        doc = account(run(16, 2, Policy.conventional), TABLE)
        assert set(doc) >= {"dynamic_by_component", "leakage_by_component",
                            "total", "fractions", "meta"}
        assert doc["total"] == pytest.approx(doc["dynamic_total"] + doc["leakage_total"])
