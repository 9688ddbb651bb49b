import copy

import numpy as np
import pytest

from conftest import cell_for_layer, random_frames, simulate, weights_for
from epursim.arch import HW_PRESETS, HardwareConfig, SimReport
from epursim.energy import (EnergyConfigError, EnergyTable, account, compare)
from epursim.model import Direction, LayerDescriptor, NetworkDescriptor, Sequence
from epursim.sched import RW, Policy, Target

TABLE = EnergyTable()


def square_net(hidden, peephole=False, seed=0):
    layer = LayerDescriptor(hidden, hidden, Direction.forward_only, peephole)
    net = NetworkDescriptor((layer,), input_dim=hidden)
    weights = weights_for(net, lambda i, d, l: cell_for_layer(l, seed))
    return net, weights


def run(hidden, T, policy, cfg=None, peephole=False):
    net, weights = square_net(hidden, peephole)
    cfg = cfg or HardwareConfig()
    return simulate(net, weights, random_frames(net, T, 1), policy, cfg)


def empty_report():
    return SimReport(
        policy=Policy.conventional, exact_mode=True, quant=None, precision="fp32",
        T=0, cycles=0, compute_cycles=0, stall_cycles=0, seconds=0.0,
        access={(t, rw): (0, 0) for t in Target for rw in RW}, dpu_ops_per_cu=0,
        mu_ops=0, dram={"total_bytes": 0}, storage={
            "weight_banks_per_cu": 0, "intermediate_banks": 0},
        checks={}, mu_critical_path=0, config=HardwareConfig(),
        outputs=Sequence(np.zeros((1, 1))), network_summary={},
    )


class TestAccount:
    def test_zero_run_zero_energy(self):
        rep = account(empty_report(), TABLE)
        assert rep.total == 0.0
        assert rep.dynamic_total == 0.0
        assert rep.leakage_total == 0.0

    def test_linearity_in_event_counts(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        doubled = copy.deepcopy(sim)
        doubled.access = {key: (2 * count, 2 * nbytes)
                          for key, (count, nbytes) in sim.access.items()}
        doubled.dpu_ops_per_cu *= 2
        doubled.mu_ops *= 2
        got = account(doubled, TABLE)
        assert got.dynamic_total == pytest.approx(2 * base.dynamic_total, rel=1e-12)
        assert got.leakage_total == pytest.approx(base.leakage_total, rel=1e-12)

    def test_linearity_in_wall_time(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        slower = copy.deepcopy(sim)
        slower.seconds *= 3
        got = account(slower, TABLE)
        assert got.leakage_total == pytest.approx(3 * base.leakage_total, rel=1e-12)
        assert got.dynamic_total == pytest.approx(base.dynamic_total, rel=1e-12)

    def test_fractions_sum_to_one(self):
        sim = run(16, 4, Policy.mwl)
        rep = account(sim, TABLE)
        assert sum(rep.fractions.values()) == pytest.approx(1.0, abs=1e-9)
        assert 0 < rep.fractions["operations"] < 1

    def test_dram_ordering_enforced_in_table(self):
        with pytest.raises(EnergyConfigError, match="dram"):
            EnergyTable(dram_read=0.5e-12)

    def test_moving_traffic_off_chip_costs_more(self):
        sim = run(16, 4, Policy.conventional)
        base = account(sim, TABLE)
        moved = copy.deepcopy(sim)
        wb, dram = (Target.weight_buffer, "r"), (Target.dram, "r")
        nbytes = moved.access[wb][1]
        moved.access[wb] = (moved.access[wb][0], 0)
        moved.access[dram] = (moved.access[dram][0], moved.access[dram][1] + nbytes)
        got = account(moved, TABLE)
        assert got.dynamic_total > base.dynamic_total


class TestWeightBufferRatio:
    def test_mwl_weight_buffer_dynamic_half_of_baseline(self):
        T = 100
        a = account(run(32, T, Policy.conventional), TABLE)
        b = account(run(32, T, Policy.mwl), TABLE)
        ratio = (b.dynamic_by_component["weight_buffer"]
                 / a.dynamic_by_component["weight_buffer"])
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
                             HardwareConfig()), TABLE)
        b = account(simulate(net, weights, seq, Policy.mwl, HW_PRESETS["epur-mwl"]()),
                    TABLE)
        # normalize out the (slightly) different wall times
        ra = a.leakage_by_component["weight_memory"] / a.meta["seconds"]
        rb = b.leakage_by_component["weight_memory"] / b.meta["seconds"]
        assert abs(rb / ra - 0.5) <= 0.1

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
        rep = account(run(16, 2, Policy.conventional), TABLE)
        doc = rep.to_json()
        assert set(doc) >= {"dynamic_by_component", "leakage_by_component",
                            "total", "fractions", "meta"}
        assert doc["total"] == pytest.approx(rep.total)
