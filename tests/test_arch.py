import math

import numpy as np
import pytest

from conftest import cell_for_layer, random_frames, random_network
from epursim.arch import (CapacityError, HardwareConfig, MuBottleneckError,
                          baseline_config, calibrate_network_alpha, cost_model,
                          dpu_dot_cycles, mu_initiation_interval, mu_plan,
                          mwl_config, simulate)
from epursim.model import (Direction, LayerDescriptor, NetworkDescriptor,
                           NetworkWeights, ShapeError, network_infer)
from epursim.quant import QuantConfig
from epursim.sched import Policy, Target

CFG = baseline_config()


class TestDpuDotCycles:
    def test_one_subvector(self):
        # 1 issue + 4 multiplier + log2(16) tree + 2 accumulator
        assert dpu_dot_cycles(16, CFG) == 11

    def test_twenty_subvectors(self):
        assert dpu_dot_cycles(320, CFG) == 30

    def test_short_vector_pads_to_one_subvector(self):
        assert dpu_dot_cycles(1, CFG) == dpu_dot_cycles(16, CFG)

    def test_invalid_length(self):
        with pytest.raises(ShapeError):
            dpu_dot_cycles(0, CFG)


class TestMuPlanUnitLatencies:
    """With every op and transfer at one cycle the plan must land exactly on
    the published stage grid."""

    def test_input_gate_stage_grid(self):
        plan = mu_plan(CFG, peephole=True, unit_latencies=True)
        expected = {"load": 0, "peep_mul": 0, "acc_peep": 1, "acc_bias": 2,
                    "neg": 3, "exp": 4, "inc": 5, "recip": 6, "send": 7}
        for name, stage in expected.items():
            assert plan.start_of("input", name) == stage, name
            assert plan.start_of("forget", name) == stage, name

    def test_input_and_forget_span_eight_stages(self):
        plan = mu_plan(CFG, peephole=True, unit_latencies=True)
        assert plan.gate_span("input") == 7
        assert plan.gate_span("forget") == 7

    def test_cell_updater_grid_points(self):
        plan = mu_plan(CFG, peephole=True, unit_latencies=True)
        assert plan.start_of("cell_updater", "t1_div") == 4
        assert plan.start_of("cell_updater", "mul_i") == 8  # after recv i_t & f_t
        assert plan.start_of("cell_updater", "mul_f") == 8
        assert plan.start_of("cell_updater", "acc_c") == 9  # c_t at stage 9
        assert plan.start_of("cell_updater", "send_phi") == 14

    def test_output_gate_completes_at_stage_17(self):
        plan = mu_plan(CFG, peephole=True, unit_latencies=True)
        assert plan.start_of("output", "peep_mul") == 11  # c_t usable at 11
        assert plan.start_of("output", "mul_h") == 17
        assert plan.gate_span("output") == 17

    def test_receive_precedes_use(self):
        for unit in (True, False):
            plan = mu_plan(CFG, peephole=True, unit_latencies=unit)
            i_ready = plan.ops["input.send"].ready
            f_ready = plan.ops["forget.send"].ready
            assert plan.start_of("cell_updater", "mul_i") >= i_ready
            assert plan.start_of("cell_updater", "mul_f") >= f_ready
            c_ready = plan.ops["cell_updater.send_c"].ready
            assert plan.start_of("output", "peep_mul") >= c_ready


class TestMuPlanTableLatencies:
    def _longest_path(self, plan, cfg):
        # independent longest-path pass over the dependency DAG
        ready = {}
        for key, op in plan.ops.items():
            start = max((ready[d] for d in op.deps), default=0)
            ready[key] = start + op.latency
        return ready["output.mul_h"]

    def test_critical_path_matches_longest_path(self):
        plan = mu_plan(CFG, peephole=True)
        assert plan.critical_path == self._longest_path(plan, CFG)

    def test_critical_path_stable_across_runs(self):
        a = mu_plan(CFG, peephole=True).critical_path
        b = mu_plan(CFG, peephole=True).critical_path
        assert a == b

    def test_mu_schedule_api(self):
        plan = mu_plan(CFG, unit_latencies=True)
        assert plan.start_of("output", "mul_h") == 17
        assert plan.gate_span("output") == 17
        assert plan.gate_span("input") + 1 == 8
        assert plan.gate_ops("bogus") == []

    def test_initiation_interval_leaves_dpu_in_charge(self):
        # per-element MU issue slots never exceed the smallest DPU interval
        plan = mu_plan(CFG, peephole=True)
        worst = max(mu_initiation_interval(plan, g)
                    for g in ("input", "forget", "cell_updater", "output"))
        assert worst <= dpu_dot_cycles(1, CFG)


def tiny_net(hidden=16, layers=1, bidirectional=False, peephole=True, seed=0):
    direction = Direction.bidirectional if bidirectional else Direction.forward_only
    descs = []
    in_size = hidden
    for _ in range(layers):
        layer = LayerDescriptor(hidden, in_size, direction, peephole)
        descs.append(layer)
        in_size = layer.output_size
    net = NetworkDescriptor(tuple(descs), input_dim=hidden)
    weights = NetworkWeights.for_network(
        net, lambda i, d, l: cell_for_layer(l, seed + 31 * i + d))
    return net, weights


class TestSimulateFunctional:
    def test_conventional_bit_identical_to_oracle(self):
        net, weights = tiny_net(hidden=16, layers=1)
        seq = random_frames(net, 2, 3)
        rep = simulate(net, weights, seq, Policy.conventional, CFG)
        want = network_infer(net, weights, seq)
        assert np.array_equal(rep.outputs.frames, want.frames)

    def test_mwl_exact_mode_bit_identical_to_conventional(self):
        net, weights = tiny_net(hidden=16, layers=2, bidirectional=True)
        seq = random_frames(net, 4, 9)
        a = simulate(net, weights, seq, Policy.conventional, CFG)
        b = simulate(net, weights, seq, Policy.mwl, CFG)
        assert np.array_equal(a.outputs.frames, b.outputs.frames)

    def test_quantized_mwl_close_but_not_exact(self):
        net, weights = tiny_net(hidden=24, layers=1)
        seq = random_frames(net, 6, 4)
        alpha = calibrate_network_alpha(net, weights, seq)
        rep = simulate(net, weights, seq, Policy.mwl, CFG,
                       quant=QuantConfig(8, alpha))
        want = network_infer(net, weights, seq)
        diff = np.abs(rep.outputs.frames.astype(np.float64)
                      - want.frames.astype(np.float64))
        assert diff.max() > 0  # quantization really happened
        # preactivation error is at most half a step; activations contract it
        assert diff.max() <= QuantConfig(8, alpha).step

    def test_fp16_simulation_matches_fp16_oracle(self):
        from epursim.model import Precision
        net, weights = random_network(404, max_layers=2, hidden_range=(8, 16),
                                      precision=Precision.fp16)
        seq = random_frames(net, 3, 5)
        rep = simulate(net, weights, seq, Policy.conventional, CFG)
        want = network_infer(net, weights, seq)
        assert rep.outputs.frames.dtype == np.float16
        assert np.array_equal(rep.outputs.frames, want.frames)


class TestSimulateTiming:
    def test_cycles_strictly_increase_with_t(self):
        net, weights = tiny_net()
        prev = 0
        for T in (1, 2, 5, 9):
            rep = simulate(net, weights, random_frames(net, T, 1), Policy.conventional, CFG)
            assert rep.cycles > prev
            prev = rep.cycles

    def test_wider_dpu_never_slower_when_vectors_fill_it(self):
        net, weights = tiny_net(hidden=64)
        seq = random_frames(net, 3, 2)
        cycles = []
        for n in (8, 16, 32, 64):
            rep = simulate(net, weights, seq, Policy.conventional,
                           HardwareConfig(dpu_width=n))
            cycles.append(rep.cycles)
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_seconds_follow_frequency(self):
        net, weights = tiny_net()
        seq = random_frames(net, 2, 1)
        rep = simulate(net, weights, seq, Policy.conventional, CFG)
        assert rep.seconds == pytest.approx(rep.cycles / CFG.frequency_hz)

    def test_first_layer_fetch_stalls(self):
        net, weights = tiny_net()
        rep = simulate(net, weights, random_frames(net, 2, 1), Policy.conventional, CFG)
        assert rep.stall_cycles > 0
        assert rep.cycles == rep.compute_cycles + rep.stall_cycles

    def test_policies_have_similar_cycle_counts(self):
        net, weights = tiny_net(hidden=32)
        seq = random_frames(net, 16, 0)
        a = simulate(net, weights, seq, Policy.conventional, CFG)
        b = simulate(net, weights, seq, Policy.mwl, CFG)
        # the locality schedule does not change the amount of DPU work
        assert abs(a.cycles - b.cycles) / a.cycles < 0.15


class TestChecksAndErrors:
    def test_weight_capacity_error_names_layer_and_deficit(self):
        net, weights = tiny_net(hidden=512)
        cfg = HardwareConfig(weight_mem_bytes_per_cu=2**20)
        with pytest.raises(CapacityError, match=r"layer 0.*B over"):
            simulate(net, weights, random_frames(net, 1, 0), Policy.conventional, cfg)

    def test_input_buffer_capacity_error(self):
        net, weights = tiny_net(hidden=512)
        cfg = HardwareConfig(input_mem_bytes_per_cu=1024)
        with pytest.raises(CapacityError, match="input buffer"):
            simulate(net, weights, random_frames(net, 1, 0), Policy.conventional, cfg)

    def test_intermediate_capacity_error_on_long_sequences(self):
        net, weights = tiny_net(hidden=64)
        cfg = HardwareConfig(intermediate_mem_bytes=16 * 2**10)
        with pytest.raises(CapacityError, match="intermediate"):
            simulate(net, weights, random_frames(net, 64, 0), Policy.conventional, cfg)

    def test_mwl_needs_room_for_partials(self):
        net, weights = tiny_net(hidden=64)
        T = 80
        seq = random_frames(net, T, 0)
        eb = 4
        need = 2 * T * 64 * eb  # two sequence halves, no partials
        cfg = HardwareConfig(intermediate_mem_bytes=need + 8)
        simulate(net, weights, seq, Policy.conventional, cfg)  # fits exactly
        with pytest.raises(CapacityError):
            simulate(net, weights, seq, Policy.mwl, cfg)  # partials do not fit

    def test_mu_bottleneck_diagnostic_on_doctored_latencies(self):
        net, weights = tiny_net(hidden=8)
        lat = dict(HardwareConfig().op_latency)
        lat["exp"] = 400
        cfg = HardwareConfig(op_latency=lat)
        with pytest.raises(MuBottleneckError, match="bottleneck"):
            simulate(net, weights, random_frames(net, 2, 0), Policy.conventional, cfg)

    def test_run_checks_recorded(self):
        net, weights = tiny_net(layers=2, bidirectional=True)
        rep = simulate(net, weights, random_frames(net, 3, 1), Policy.mwl, CFG)
        assert rep.checks["double_buffer_disjoint"]
        assert rep.checks["cu_dot_products_balanced"]
        assert rep.checks["dram_counters_consistent"]
        assert not rep.checks["mu_bottleneck"]

    def test_bandwidth_warning(self):
        net, weights = tiny_net()
        cfg = HardwareConfig(peak_dram_bandwidth=1e3)
        with pytest.warns(RuntimeWarning, match="bandwidth"):
            rep = simulate(net, weights, random_frames(net, 1, 0),
                           Policy.conventional, cfg)
        assert any("bandwidth" in n for n in rep.notes)

    def test_row_buffer_fallback_noted(self):
        layer = LayerDescriptor(8, 2000)
        net = NetworkDescriptor((layer,), input_dim=2000)
        weights = NetworkWeights.for_network(net, lambda i, d, l: cell_for_layer(l, 0))
        seq = random_frames(net, 2, 0)
        rep = simulate(net, weights, seq, Policy.mwl, CFG)
        assert any("row buffer" in n for n in rep.notes)
        oracle = network_infer(net, weights, seq)
        assert np.array_equal(rep.outputs.frames, oracle.frames)


class TestSimulateCounters:
    def test_weight_buffer_reads_match_schedule_identity(self):
        from epursim.sched import weight_buffer_read_bytes
        net, weights = tiny_net(hidden=16, peephole=False)
        T = 5
        seq = random_frames(net, T, 0)
        layer = net.layers[0]
        extras = 4 * T * 16 * 4  # per-element bias scalars, four gates
        for policy in (Policy.conventional, Policy.mwl):
            rep = simulate(net, weights, seq, policy, CFG)
            wb = rep.access.data[Target.weight_buffer]["r"]["bytes"]
            want = 4 * weight_buffer_read_bytes(layer, T, policy) + extras
            assert wb == want

    def test_mwl_partial_traffic_quantized(self):
        net, weights = tiny_net(hidden=16)
        T = 5
        rep = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG,
                       quant=QuantConfig(8, 2.0))
        im = rep.access.data[Target.intermediate_memory]
        partial = 4 * T * 16 * 1  # quantized to one byte per value
        # writes: input staging + h_t write-back + partials
        assert im["w"]["bytes"] == T * 16 * 4 + T * 16 * 4 + partial
        assert im["r"]["bytes"] == T * 16 * 4 + partial

    def test_mwl_partial_traffic_exact_mode_full_precision(self):
        net, weights = tiny_net(hidden=16)
        T = 5
        rep = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG)
        im = rep.access.data[Target.intermediate_memory]
        partial = 4 * T * 16 * 4  # partials kept in fp32 when not quantized
        assert im["w"]["bytes"] == T * 16 * 4 + T * 16 * 4 + partial
        assert im["r"]["bytes"] == T * 16 * 4 + partial

    def test_counters_match_materialized_traces(self):
        # the simulator counts events in closed form; the sched module can
        # materialize the same schedule as an explicit trace
        from epursim.sched import trace_mwl
        layer = LayerDescriptor(12, 20, Direction.forward_only, peephole=True)
        net = NetworkDescriptor((layer,), input_dim=20)
        weights = NetworkWeights.for_network(net, lambda i, d, l: cell_for_layer(l, 7))
        T, qcfg = 6, QuantConfig(8, 2.0)
        rep = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG,
                       quant=qcfg)
        trace = trace_mwl(layer, T, elem_bytes=4, quant=qcfg,
                          row_buffer_bytes=CFG.row_buffer_bytes)

        def trace_bytes(target, rw):
            return sum(e.bytes for e in trace.all_events()
                       if e.target is target and e.rw == rw)

        assert rep.access.data[Target.row_buffer]["r"]["bytes"] == \
            trace_bytes(Target.row_buffer, "r")
        assert rep.access.data[Target.row_buffer]["w"]["bytes"] == \
            trace_bytes(Target.row_buffer, "w")
        # simulator adds h_t write-back and input staging on top of partials
        extra_w = T * 12 * 4 + T * 20 * 4
        extra_r = T * 20 * 4
        assert rep.access.data[Target.intermediate_memory]["w"]["bytes"] == \
            trace_bytes(Target.intermediate_memory, "w") + extra_w
        assert rep.access.data[Target.intermediate_memory]["r"]["bytes"] == \
            trace_bytes(Target.intermediate_memory, "r") + extra_r

    @pytest.mark.parametrize("policy", [Policy.conventional, Policy.mwl])
    def test_cost_model_reads_shapes_only(self, policy):
        T = 4
        net, _ = tiny_net(layers=2, bidirectional=True)
        want = cost_model(net, T, policy, CFG, frames_per_second=100.0).to_json()
        for weight_seed in (0, 1):
            _, weights = tiny_net(layers=2, bidirectional=True, seed=weight_seed)
            for input_seed in (0, 1):
                rep = simulate(net, weights, random_frames(net, T, input_seed),
                               policy, CFG, frames_per_second=100.0)
                assert rep.to_json() == want

    def test_dpu_ops_balanced_and_sized(self):
        net, weights = tiny_net(hidden=32)
        T = 3
        rep = simulate(net, weights, random_frames(net, T, 0), Policy.conventional, CFG)
        kx = kh = math.ceil(32 / 16)
        per_cu = T * 32 * (kx + kh)
        assert set(rep.access.dpu_ops_per_cu.values()) == {per_cu}

    def test_report_json_schema(self):
        net, weights = tiny_net()
        rep = simulate(net, weights, random_frames(net, 2, 0), Policy.conventional,
                       CFG, frames_per_second=100.0)
        doc = rep.to_json()
        for key in ("schema_version", "policy", "cycles", "seconds",
                    "access_counts", "dram", "storage", "checks", "hardware",
                    "network", "realtime"):
            assert key in doc
        assert doc["realtime"]["frames_per_second"] == 100.0
        assert doc["hardware"]["weight_mem_bytes_per_cu"] == 4 * 2**20
        text = rep.text_table()
        assert "cycles" in text and "dram" in text

    def test_storage_high_water_marks(self):
        net, weights = tiny_net(hidden=64, peephole=True)
        T = 4
        conv = simulate(net, weights, random_frames(net, T, 0), Policy.conventional, CFG)
        mwl = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG)
        eb = 4
        full_gate = 64 * 64 * eb * 2 + 64 * eb * 2
        assert conv.storage["weight_bytes_per_cu_hwm"] == full_gate
        assert mwl.storage["weight_bytes_per_cu_hwm"] == full_gate - 64 * 64 * eb
        assert mwl.storage["row_buffer_hwm"] == 64 * eb
        assert conv.storage["row_buffer_hwm"] == 0


class TestHardwareConfig:
    def test_presets(self):
        assert baseline_config().weight_mem_bytes_per_cu == 4 * 2**20
        assert mwl_config().weight_mem_bytes_per_cu == 2 * 2**20
        assert mwl_config().input_mem_bytes_per_cu == 4 * 2**10

    def test_json_round_trip(self):
        cfg = mwl_config(frequency_hz=600e6)
        back = HardwareConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_dpu_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HardwareConfig(dpu_width=12)

    def test_latencies_at_least_one(self):
        with pytest.raises(ValueError):
            HardwareConfig(op_latency={**HardwareConfig().op_latency, "add": 0})
