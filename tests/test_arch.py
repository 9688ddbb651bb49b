import dataclasses
import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (cell_for_layer, gate_span, infer, random_frames, random_network,
                      random_weights, simulate, start_of, weights_for)
from epursim import arch
from epursim.arch import (HW_PRESETS, CapacityError, HardwareConfig,
                          MuBottleneckError, cost_model, dpu_dot_cycles,
                          mu_initiation_interval, mu_plan)
from epursim.model import (GATES, Direction, LayerDescriptor, NetworkDescriptor,
                           NumericError, ShapeError)
from epursim.presets import custom_descriptor, preset_descriptor
from epursim.quant import QuantConfig, calibrate_alpha
from epursim.sched import Policy, Target

CFG = HardwareConfig()
UNIT = HardwareConfig(op_latency=dict.fromkeys(arch.DEFAULT_OP_LATENCY, 1),
                      mu_comm_cycles=1)
README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_quantizer_keeps_pace_with_the_fastest_forward_dot(self):
        # MWL has no refusal for a quantizer slower than the forward dots
        # because none can be: the shortest dot any valid config allows is
        # one sub-vector on a 1-wide DPU at unit mul and add latency.  If
        # this fails, that refusal has to come back to arch._pass_cost.
        fastest = HardwareConfig(dpu_width=1, op_latency={
            **arch.DEFAULT_OP_LATENCY, "mul": 1, "add": 1})
        assert arch._QUANT_MU_INTERVAL <= dpu_dot_cycles(1, fastest)


class TestMuPlanUnitLatencies:
    """With every op and transfer at one cycle the plan must land exactly on
    the published stage grid."""

    def test_input_gate_stage_grid(self):
        plan = mu_plan(UNIT, peephole=True)
        expected = {"load": 0, "peep_mul": 0, "acc_peep": 1, "acc_bias": 2,
                    "neg": 3, "exp": 4, "inc": 5, "recip": 6, "send": 7}
        for name, stage in expected.items():
            assert start_of(plan, "input", name) == stage, name
            assert start_of(plan, "forget", name) == stage, name

    def test_input_and_forget_span_eight_stages(self):
        plan = mu_plan(UNIT, peephole=True)
        assert gate_span(plan, "input") == 7
        assert gate_span(plan, "forget") == 7

    def test_cell_updater_grid_points(self):
        plan = mu_plan(UNIT, peephole=True)
        assert start_of(plan, "cell_updater", "t1_div") == 4
        assert start_of(plan, "cell_updater", "mul_i") == 8  # after recv i_t & f_t
        assert start_of(plan, "cell_updater", "mul_f") == 8
        assert start_of(plan, "cell_updater", "acc_c") == 9  # c_t at stage 9
        assert start_of(plan, "cell_updater", "send_phi") == 14

    def test_output_gate_completes_at_stage_17(self):
        plan = mu_plan(UNIT, peephole=True)
        assert start_of(plan, "output", "peep_mul") == 11  # c_t usable at 11
        assert start_of(plan, "output", "mul_h") == 17
        assert gate_span(plan, "output") == 17

    def test_receive_precedes_use(self):
        for cfg in (UNIT, CFG):
            plan = mu_plan(cfg, peephole=True)
            i_ready = plan["input.send"].ready
            f_ready = plan["forget.send"].ready
            assert start_of(plan, "cell_updater", "mul_i") >= i_ready
            assert start_of(plan, "cell_updater", "mul_f") >= f_ready
            c_ready = plan["cell_updater.send_c"].ready
            assert start_of(plan, "output", "peep_mul") >= c_ready


class TestMuPlanTableLatencies:
    def _longest_path(self, plan, cfg):
        # independent longest-path pass over the dependency DAG
        ready = {}
        for key, op in plan.items():
            start = max((ready[d] for d in op.deps), default=0)
            ready[key] = start + op.latency
        return ready["output.mul_h"]

    def test_critical_path_matches_longest_path(self):
        plan = mu_plan(CFG, peephole=True)
        assert plan["output.mul_h"].ready == self._longest_path(plan, CFG)

    def test_critical_path_stable_across_runs(self):
        a = mu_plan(CFG, peephole=True)["output.mul_h"].ready
        b = mu_plan(CFG, peephole=True)["output.mul_h"].ready
        assert a == b

    def test_mu_schedule_api(self):
        plan = mu_plan(UNIT)
        assert start_of(plan, "output", "mul_h") == 17
        assert gate_span(plan, "output") == 17
        assert gate_span(plan, "input") + 1 == 8

    def test_initiation_interval_leaves_dpu_in_charge(self):
        # per-element MU issue slots never exceed the smallest DPU interval
        plan = mu_plan(CFG, peephole=True)
        worst = max(mu_initiation_interval(plan, g)
                    for g in ("input", "forget", "cell_updater", "output"))
        assert worst <= dpu_dot_cycles(1, CFG)


class TestMuPlanPinned:
    """The plan's figures under the default table and under unit latencies.
    The issue slots and the op count are the same under both; the critical
    path is not."""

    @pytest.mark.parametrize("cfg, peephole, ops, critical_path", [
        (CFG, True, 45, 56), (CFG, False, 39, 46),
        (UNIT, True, 45, 18), (UNIT, False, 39, 16)])
    def test_plan(self, cfg, peephole, ops, critical_path):
        plan = mu_plan(cfg, peephole=peephole)
        assert {g: mu_initiation_interval(plan, g) for g in GATES} == {
            "input": 2, "forget": 2, "cell_updater": 4, "output": 2}
        assert len(plan) == ops
        assert plan["output.mul_h"].ready == critical_path


def tiny_net(hidden=16, layers=1, bidirectional=False, peephole=True, seed=0):
    direction = Direction.bidirectional if bidirectional else Direction.forward_only
    descs = []
    in_size = hidden
    for _ in range(layers):
        layer = LayerDescriptor(hidden, in_size, direction, peephole)
        descs.append(layer)
        in_size = layer.output_size
    net = NetworkDescriptor(tuple(descs), input_dim=hidden)
    weights = weights_for(net, lambda i, d, l: cell_for_layer(l, seed + 31 * i + d))
    return net, weights


def quant_entry(qcfg):
    """A report's ``quant`` entry before any pass ran."""
    return dict(dataclasses.asdict(qcfg), calibrated_per_pass=False, pass_alphas=[])


class TestSimulateFunctional:
    def test_conventional_bit_identical_to_oracle(self):
        net, weights = tiny_net(hidden=16, layers=1)
        seq = random_frames(net, 2, 3)
        _, out = simulate(net, weights, seq, Policy.conventional, CFG)
        want = infer(net, weights, seq)
        assert np.array_equal(out.frames, want.frames)

    def test_mwl_exact_mode_bit_identical_to_conventional(self):
        net, weights = tiny_net(hidden=16, layers=2, bidirectional=True)
        seq = random_frames(net, 4, 9)
        _, a = simulate(net, weights, seq, Policy.conventional, CFG)
        _, b = simulate(net, weights, seq, Policy.mwl, CFG)
        assert np.array_equal(a.frames, b.frames)

    def test_mwl_long_sequence_bit_identical_to_oracle(self):
        # the one tier-1 run of the datapath at a long T: LDLRNN, 2000 frames
        from epursim.presets import preset_descriptor, random_sequence
        net = preset_descriptor("ldlrnn")
        weights = random_weights(net, 0)
        seq = random_sequence(net, 2000, 1)
        rep, out = simulate(net, weights, seq, Policy.mwl, CFG)
        assert rep["exact_mode"]
        want = infer(net, weights, seq)
        assert np.array_equal(out.frames, want.frames)

    def test_quantized_mwl_close_but_not_exact(self):
        net, weights = tiny_net(hidden=24, layers=1)
        seq = random_frames(net, 6, 4)
        rep, out = simulate(net, weights, seq, Policy.mwl, CFG, quant=QuantConfig(8),
                            quant_calibrate=True)
        want = infer(net, weights, seq)
        diff = np.abs(out.frames.astype(np.float64)
                      - want.frames.astype(np.float64))
        assert diff.max() > 0  # quantization really happened
        # preactivation error is at most half a step; activations contract it
        assert diff.max() <= QuantConfig(8, rep["quant"]["pass_alphas"][0]).step

    @pytest.mark.parametrize("seed", range(4))
    def test_calibrated_alpha_is_the_peak_magnitude_rounded_up(self, seed):
        # the peak |partial| from max and min, as np.abs would give it,
        # whichever sign holds it
        rng = np.random.default_rng(seed)
        partials = rng.normal(0, 3, (48, 7)).astype(np.float32)
        partials[seed, seed] = (-1) ** seed * 40.04
        quant = quant_entry(QuantConfig(8))
        arch.datapath_hook({"quant": quant}, True)(partials.copy())
        assert quant["pass_alphas"] == [calibrate_alpha(float(np.max(np.abs(partials))))] \
            == [40.1]

    def test_calibration_refuses_a_nan_partial(self):
        partials = np.zeros((8, 3), np.float32)
        partials[5, 1] = np.nan
        with pytest.raises(NumericError, match="calibration saw a non-finite"):
            arch.datapath_hook({"quant": quant_entry(QuantConfig(8))}, True)(partials)

    def test_fp16_simulation_matches_fp16_oracle(self):
        from epursim.model import Precision
        net, weights = random_network(404, max_layers=2, hidden_range=(8, 16),
                                      precision=Precision.fp16)
        seq = random_frames(net, 3, 5)
        _, out = simulate(net, weights, seq, Policy.conventional, CFG)
        want = infer(net, weights, seq)
        assert out.frames.dtype == np.float16
        assert np.array_equal(out.frames, want.frames)


class TestSimulateTiming:
    def test_cycles_strictly_increase_with_t(self):
        net, weights = tiny_net()
        prev = 0
        for T in (1, 2, 5, 9):
            rep, _ = simulate(net, weights, random_frames(net, T, 1), Policy.conventional, CFG)
            assert rep["cycles"] > prev
            prev = rep["cycles"]

    def test_wider_dpu_never_slower_when_vectors_fill_it(self):
        net, weights = tiny_net(hidden=64)
        seq = random_frames(net, 3, 2)
        cycles = []
        for n in (8, 16, 32, 64):
            rep, _ = simulate(net, weights, seq, Policy.conventional,
                              HardwareConfig(dpu_width=n))
            cycles.append(rep["cycles"])
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_seconds_follow_frequency(self):
        net, weights = tiny_net()
        seq = random_frames(net, 2, 1)
        rep, _ = simulate(net, weights, seq, Policy.conventional, CFG)
        assert rep["seconds"] == pytest.approx(rep["cycles"] / CFG.frequency_hz)

    def test_first_layer_fetch_stalls(self):
        net, weights = tiny_net()
        rep, _ = simulate(net, weights, random_frames(net, 2, 1), Policy.conventional, CFG)
        assert rep["stall_cycles"] > 0
        assert rep["cycles"] == rep["compute_cycles"] + rep["stall_cycles"]

    def test_policies_have_similar_cycle_counts(self):
        net, weights = tiny_net(hidden=32)
        seq = random_frames(net, 16, 0)
        a, _ = simulate(net, weights, seq, Policy.conventional, CFG)
        b, _ = simulate(net, weights, seq, Policy.mwl, CFG)
        # the locality schedule does not change the amount of DPU work
        assert abs(a["cycles"] - b["cycles"]) / a["cycles"] < 0.15


class TestChecksAndErrors:
    def test_datapath_input_must_match_the_report(self):
        net, weights = tiny_net()
        report = cost_model(net, 3, Policy.conventional, CFG)
        for T in (2, 4):
            want = rf"input \[{T}, 16\] != report's \[3, 16\]"
            with pytest.raises(ShapeError, match=want):
                arch.simulate(net, weights, random_frames(net, T, 0), [report])
        assert report == cost_model(net, 3, Policy.conventional, CFG)

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
        rep, _ = simulate(net, weights, random_frames(net, 3, 1), Policy.mwl, CFG)
        assert rep["checks"] == {"dram_counters_consistent": True}

    def test_bandwidth_warning(self):
        net, weights = tiny_net()
        cfg = HardwareConfig(peak_dram_bandwidth=1e3)
        with pytest.warns(RuntimeWarning, match="bandwidth"):
            rep, _ = simulate(net, weights, random_frames(net, 1, 0),
                              Policy.conventional, cfg)
        assert any("bandwidth" in n for n in rep["notes"])

    def test_row_buffer_fallback_noted(self):
        layer = LayerDescriptor(8, 2000)
        net = NetworkDescriptor((layer,), input_dim=2000)
        weights = weights_for(net, lambda i, d, l: cell_for_layer(l, 0))
        seq = random_frames(net, 2, 0)
        with pytest.warns(RuntimeWarning, match=r"forward row \(8000 B\) exceeds the row "
                                                r"buffer \(4096 B\)"):
            rep, out = simulate(net, weights, seq, Policy.mwl, CFG)
        assert any("row buffer" in n for n in rep["notes"])
        oracle = infer(net, weights, seq)
        assert np.array_equal(out.frames, oracle.frames)


class TestRefusalBoundaries:
    """Each refusal's boundary: a need equal to what is configured runs,
    one unit more is refused."""

    @staticmethod
    def one_layer(hidden, input_size, peephole=False):
        return NetworkDescriptor((LayerDescriptor(hidden, input_size, peephole=peephole),),
                                 input_dim=input_size)

    def test_weight_memory_of_exactly_the_layers_need_fits(self):
        net = self.one_layer(64, 32, peephole=True)
        need = arch.gate_weight_bytes(net.layers[0], "input", 4)
        rep = cost_model(net, 2, Policy.conventional,
                         HardwareConfig(weight_mem_bytes_per_cu=need))
        assert rep["storage"]["weight_bytes_per_cu_hwm"] == need
        with pytest.raises(CapacityError, match=r"^layer 0: gate 'input' needs "
                                                rf"{need} B .* 1 B over"):
            cost_model(net, 2, Policy.conventional,
                       HardwareConfig(weight_mem_bytes_per_cu=need - 1))

    def test_input_buffer_of_exactly_the_layers_need_fits(self):
        net = self.one_layer(64, 32)
        need = (32 + 64) * 4  # x_t and h_{t-1}, conventional
        rep = cost_model(net, 2, Policy.conventional,
                         HardwareConfig(input_mem_bytes_per_cu=need))
        assert rep["storage"]["input_buffer_hwm"] == need
        with pytest.raises(CapacityError, match=rf"^layer 0: input buffer needs {need} B "
                                                r"per CU, 1 B over"):
            cost_model(net, 2, Policy.conventional,
                       HardwareConfig(input_mem_bytes_per_cu=need - 1))

    def test_mu_issue_slots_equal_to_the_dpu_interval_pass_their_check(self):
        # the MUs need 4 issue slots per element.  A 1-wide DPU with unit
        # multiplier latency delivers a recurrent dot of length 1 every
        # 1 + 1 + add cycles; at 4 cycles the issue-slot check passes, and
        # the tail check (a 4-cycle timestep) refuses the layer instead
        net = self.one_layer(1, 1)
        plan = mu_plan(CFG, peephole=False)
        assert max(mu_initiation_interval(plan, g) for g in GATES) == 4

        def refusal(add):
            cfg = HardwareConfig(dpu_width=1, op_latency={**CFG.op_latency,
                                                          "mul": 1, "add": add})
            assert dpu_dot_cycles(1, cfg) == 2 + add
            with pytest.raises(MuBottleneckError) as err:
                cost_model(net, 2, Policy.mwl, cfg)
            return str(err.value)

        assert refusal(2).startswith("the MU latency tail (40 cycles) exceeds a whole "
                                     "timestep of DPU work (4 cycles)")
        assert refusal(1).startswith("MU of gate 'cell_updater' needs 4 issue "
                                     "slots/element but the DPU delivers one every 3 cycles")

    def test_mu_tail_equal_to_the_stream_runs(self):
        # a 1-wide DPU, multiplier 2 and adder 3 cycles: a 1x16 layer's
        # timestep streams 27 cycles (its forward and recurrent dots) and
        # its MU tail is 27; a 2x6 layer's streams 36, under a 37-cycle tail
        cfg = HardwareConfig(dpu_width=1, op_latency={**CFG.op_latency, "mul": 2, "add": 3})
        rep = cost_model(self.one_layer(1, 16), 2, Policy.conventional, cfg)
        assert rep["mu_critical_path"] - dpu_dot_cycles(16, cfg) == 27
        assert dpu_dot_cycles(16, cfg) + dpu_dot_cycles(1, cfg) == 27
        with pytest.raises(MuBottleneckError, match=r"^the MU latency tail \(37 cycles\) "
                                                    r"exceeds a whole timestep of DPU "
                                                    r"work \(36 cycles\)"):
            cost_model(self.one_layer(2, 6), 2, Policy.conventional, cfg)


class TestTimingAcrossPasses:
    def test_a_pass_stalls_against_the_previous_pass_compute(self):
        # at 0.3 GB/s EESEN's passes wait for their weights: pass p's fetch
        # overlaps pass p-1's compute (against its own it would be 65,404,376)
        rep = cost_model(preset_descriptor("eesen"), 50, Policy.conventional,
                         HardwareConfig(peak_dram_bandwidth=0.3e9))
        assert rep["stall_cycles"] == 65_723_396

    def test_text_table_stall_row_is_the_reports(self):
        rep = cost_model(preset_descriptor("eesen"), 50, Policy.conventional,
                         HardwareConfig(peak_dram_bandwidth=0.3e9))
        rows = dict(re.split(r"\s{2,}", line, maxsplit=1)
                    for line in arch.text_table(rep).splitlines())
        assert rows["stall cycles"] == "65,723,396" == f"{rep['stall_cycles']:,}"

    def test_dram_transfer_and_latency_round_up_apart(self):
        # 2176 weight bytes at 6 B a cycle take 362.67 cycles, and a 0.3 ns
        # latency 0.15 cycles: 363 + 1, where one rounding would give 363
        net = NetworkDescriptor((LayerDescriptor(8, 8),), input_dim=8)
        cfg = HardwareConfig(peak_dram_bandwidth=3e9, dram_latency_s=0.3e-9)
        assert arch.cell_weight_bytes(net.layers[0], 4) == 2176
        assert cost_model(net, 2, Policy.conventional, cfg)["stall_cycles"] == 364

    def test_mu_critical_path_is_the_longest_passs(self):
        net = NetworkDescriptor((LayerDescriptor(8, 8), LayerDescriptor(8, 8, peephole=True)),
                                input_dim=8)
        paths = [mu_plan(CFG, peephole=l.peephole)["output.mul_h"].ready for l in net.layers]
        assert paths == [46, 56]
        assert cost_model(net, 2, Policy.conventional, CFG)["mu_critical_path"] == 56


class TestSimulateCounters:
    def test_weight_buffer_reads_match_schedule_identity(self):
        from epursim.sched import weight_buffer_read_bytes
        net, weights = tiny_net(hidden=16, peephole=False)
        T = 5
        seq = random_frames(net, T, 0)
        layer = net.layers[0]
        extras = 4 * T * 16 * 4  # per-element bias scalars, four gates
        for policy in (Policy.conventional, Policy.mwl):
            rep, _ = simulate(net, weights, seq, policy, CFG)
            wb = rep["access_counts"]["weight_buffer"]["r"]["bytes"]
            want = 4 * weight_buffer_read_bytes(layer, T, policy) + extras
            assert wb == want

    def test_mwl_partial_traffic_quantized(self):
        net, weights = tiny_net(hidden=16)
        T = 5
        rep, _ = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG,
                          quant=QuantConfig(8, 2.0))
        im = "intermediate_memory"
        partial = 4 * T * 16 * 1  # quantized to one byte per value
        # writes: input staging + h_t write-back + partials
        assert rep["access_counts"][im]["w"]["bytes"] == T * 16 * 4 + T * 16 * 4 + partial
        assert rep["access_counts"][im]["r"]["bytes"] == T * 16 * 4 + partial

    def test_mwl_partial_traffic_exact_mode_full_precision(self):
        net, weights = tiny_net(hidden=16)
        T = 5
        rep, _ = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG)
        im = "intermediate_memory"
        partial = 4 * T * 16 * 4  # partials kept in fp32 when not quantized
        assert rep["access_counts"][im]["w"]["bytes"] == T * 16 * 4 + T * 16 * 4 + partial
        assert rep["access_counts"][im]["r"]["bytes"] == T * 16 * 4 + partial

    def test_counters_match_materialized_traces(self):
        # the simulator counts events in closed form; the sched module can
        # materialize the same schedule as an explicit trace
        from epursim.sched import RW, TARGETS, trace_mwl
        layer = LayerDescriptor(12, 20, Direction.forward_only, peephole=True)
        net = NetworkDescriptor((layer,), input_dim=20)
        weights = weights_for(net, lambda i, d, l: cell_for_layer(l, 7))
        T, qcfg = 6, QuantConfig(8, 2.0)
        rep, _ = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG,
                          quant=qcfg)
        trace = trace_mwl(layer, T, elem_bytes=4, quant=qcfg,
                          row_buffer_bytes=CFG.row_buffer_bytes)

        def trace_bytes(target, rw):
            # the four gates read one stream
            return len(GATES) * int(trace.bytes[(trace.target == TARGETS.index(target))
                                                & (trace.rw == RW.index(rw))].sum())

        assert rep["access_counts"]["row_buffer"]["r"]["bytes"] == \
            trace_bytes(Target.row_buffer, "r")
        assert rep["access_counts"]["row_buffer"]["w"]["bytes"] == \
            trace_bytes(Target.row_buffer, "w")
        # simulator adds h_t write-back and input staging on top of partials
        extra_w = T * 12 * 4 + T * 20 * 4
        extra_r = T * 20 * 4
        assert rep["access_counts"]["intermediate_memory"]["w"]["bytes"] == \
            trace_bytes(Target.intermediate_memory, "w") + extra_w
        assert rep["access_counts"]["intermediate_memory"]["r"]["bytes"] == \
            trace_bytes(Target.intermediate_memory, "r") + extra_r

    @pytest.mark.parametrize("policy", [Policy.conventional, Policy.mwl])
    def test_cost_model_reads_shapes_only(self, policy):
        T = 4
        net, _ = tiny_net(layers=2, bidirectional=True)
        want = cost_model(net, T, policy, CFG, frames_per_second=100.0)
        for weight_seed in (0, 1):
            _, weights = tiny_net(layers=2, bidirectional=True, seed=weight_seed)
            for input_seed in (0, 1):
                rep, _ = simulate(net, weights, random_frames(net, T, input_seed),
                                  policy, CFG, frames_per_second=100.0)
                assert rep == want

    def test_dpu_ops_balanced_and_sized(self):
        net, weights = tiny_net(hidden=32)
        T = 3
        rep, _ = simulate(net, weights, random_frames(net, T, 0), Policy.conventional, CFG)
        kx = kh = math.ceil(32 / 16)
        per_cu = T * 32 * (kx + kh)
        assert rep["dpu_ops_per_cu"] == dict.fromkeys(GATES, per_cu)

    def test_report_json_schema(self):
        net, weights = tiny_net()
        rep, _ = simulate(net, weights, random_frames(net, 2, 0), Policy.conventional,
                          CFG, frames_per_second=100.0)
        for key in ("schema_version", "policy", "cycles", "seconds",
                    "access_counts", "dram", "storage", "checks", "hardware",
                    "network", "realtime"):
            assert key in rep
        assert rep["realtime"]["frames_per_second"] == 100.0
        assert rep["hardware"]["weight_mem_bytes_per_cu"] == 4 * 2**20
        text = arch.text_table(rep)
        assert "cycles" in text and "dram" in text

    def test_storage_high_water_marks(self):
        net, weights = tiny_net(hidden=64, peephole=True)
        T = 4
        conv, _ = simulate(net, weights, random_frames(net, T, 0), Policy.conventional, CFG)
        mwl, _ = simulate(net, weights, random_frames(net, T, 0), Policy.mwl, CFG)
        eb = 4
        full_gate = 64 * 64 * eb * 2 + 64 * eb * 2
        assert conv["storage"]["weight_bytes_per_cu_hwm"] == full_gate
        assert mwl["storage"]["weight_bytes_per_cu_hwm"] == full_gate - 64 * 64 * eb
        assert mwl["storage"]["row_buffer_hwm"] == 64 * eb
        assert conv["storage"]["row_buffer_hwm"] == 0


class TestHardwareConfig:
    def test_presets(self):
        assert HW_PRESETS["epur"]().weight_mem_bytes_per_cu == 4 * 2**20
        assert HW_PRESETS["epur-mwl"]().weight_mem_bytes_per_cu == 2 * 2**20
        assert HW_PRESETS["epur-mwl"]().input_mem_bytes_per_cu == 4 * 2**10

    @pytest.mark.parametrize("name", sorted(HW_PRESETS))
    def test_preset_matches_the_readme_table(self, name):
        # | `epur` | 4 MiB | 8 KiB | 6 MiB | 16 | 500 MHz |
        (row,) = [line.split("|")[2:-1] for line in README.read_text().splitlines()
                  if line.startswith(f"| `{name}` ")]
        units = {"KiB": 2**10, "MiB": 2**20, "MHz": 1e6}

        def value(cell):
            n, unit = cell.split()
            return float(n) * units[unit]

        weight, inp, inter, width, freq = row
        cfg = HW_PRESETS[name]()
        assert cfg.weight_mem_bytes_per_cu == value(weight)
        assert cfg.input_mem_bytes_per_cu == value(inp)
        assert cfg.intermediate_mem_bytes == value(inter)
        assert cfg.dpu_width == int(width)
        assert cfg.frequency_hz == value(freq)

    def test_every_latency_is_read_by_a_functional_unit(self):
        # the MU ops (links ride wires and have no latency entry), the
        # quantizer's ops and the DPU's multiplier and adder tree: a latency
        # that none of them reads could change no cycle count
        mu = {op.fu for peephole in (False, True) for op in mu_plan(HardwareConfig(), peephole).values()}
        quantizer = {fu for fu, _ in arch._QUANT_FU_OPS}
        assert set(arch.DEFAULT_OP_LATENCY) == (mu - {"link"}) | quantizer | {"mul", "add"}

    @pytest.mark.parametrize("name", sorted(HW_PRESETS))
    def test_each_preset_call_is_a_new_config(self, name):
        first = HW_PRESETS[name]()
        first.op_latency["add"] = 9
        assert HW_PRESETS[name]().op_latency == arch.DEFAULT_OP_LATENCY

    def test_json_round_trip(self):
        cfg = HW_PRESETS["epur-mwl"](frequency_hz=600e6)
        back = HardwareConfig.from_json(dataclasses.asdict(cfg))
        assert back == cfg

    def test_dpu_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HardwareConfig(dpu_width=12)

    def test_latencies_at_least_one(self):
        with pytest.raises(ValueError):
            HardwareConfig(op_latency={**HardwareConfig().op_latency, "add": 0})


GOLDENS = Path(__file__).resolve().parent / "data" / "cost_model_goldens.json"
# the two presets, and one whose MU latency tail outlasts a small layer's timestep
GOLDEN_HW = {**HW_PRESETS, "slow-exp": lambda: HardwareConfig(
    op_latency=dict(HardwareConfig().op_latency, exp=400))}


def golden_cases():
    """(key, net, policy, n_bits or None, hardware preset) of each golden."""
    nets = {"ldlrnn": preset_descriptor("ldlrnn"),
            "eesen": preset_descriptor("eesen"),
            "bidir-peephole": custom_descriptor(2, 8, True, True, input_dim=5),
            # a 2000-wide forward row overflows the 4 KiB row buffer
            "wide-row": custom_descriptor(1, 8, False, False, input_dim=2000)}
    for (name, net), policy, bits, hw in itertools.product(
            nets.items(), Policy, (None, 8), GOLDEN_HW):
        yield f"{name}/{policy.value}/{bits or 'exact'}/{hw}", net, policy, bits, hw


def cost_model_doc(net, policy, bits, hw) -> dict:
    """The T=7 report as JSON, or the error the cost model raised."""
    try:
        rep = cost_model(net, 7, policy, GOLDEN_HW[hw](),
                         QuantConfig(bits) if bits else None, frames_per_second=100.0)
    except (CapacityError, MuBottleneckError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    return json.loads(json.dumps(rep))


class TestCostModelGoldens:
    @pytest.mark.filterwarnings("ignore:forward row:RuntimeWarning")  # the wide-row cases
    def test_reports_match_recorded(self):
        golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
        got = {key: cost_model_doc(*case) for key, *case in golden_cases()}
        assert sorted(got) == sorted(golden)
        for key, doc in golden.items():
            assert got[key] == doc, key


def shape_report(net, T, policy, bits):
    """The cost model of ``net`` at T on its policy's hardware preset."""
    cfg = HW_PRESETS["epur" if policy is Policy.conventional else "epur-mwl"]()
    return cost_model(net, T, policy, cfg, QuantConfig(bits) if bits else None)


class TestCostModelRelations:
    """Metamorphic relations of the shape-only cost model: each holds for
    any correct closed form, so none needs an oracle or a golden."""

    CASES = list(itertools.product(("eesen", "ldlrnn"), Policy, (None, 8)))

    @pytest.mark.parametrize("preset, policy, bits", CASES)
    def test_affine_in_t_and_stalls_do_not_grow(self, preset, policy, bits):
        r3, r4, r5 = (shape_report(preset_descriptor(preset), T, policy, bits)
                      for T in (3, 4, 5))
        assert (r5["compute_cycles"] - r4["compute_cycles"]
                == r4["compute_cycles"] - r3["compute_cycles"])
        for target, counts in r3["access_counts"].items():
            for rw, a in counts.items():
                b, c = r4["access_counts"][target][rw], r5["access_counts"][target][rw]
                for field in a:
                    assert c[field] - b[field] == b[field] - a[field], (target, rw, field)
        assert r3["stall_cycles"] >= r4["stall_cycles"] >= r5["stall_cycles"]

    @pytest.mark.parametrize("preset, policy, bits", CASES)
    def test_bidirectional_doubles_compute_cycles(self, preset, policy, bits):
        for layer in preset_descriptor(preset).layers:
            fwd, bi = (shape_report(NetworkDescriptor((replace(layer, direction=d),),
                                                      layer.input_size), 4, policy, bits)
                       for d in (Direction.forward_only, Direction.bidirectional))
            assert bi["compute_cycles"] == 2 * fwd["compute_cycles"]

    @pytest.mark.parametrize("preset, bits", itertools.product(("eesen", "ldlrnn"),
                                                               (None, 8)))
    def test_dram_traffic_is_the_same_under_both_policies(self, preset, bits):
        for T in (3, 4, 5):
            conv, mwl = (shape_report(preset_descriptor(preset), T, p, bits)
                         for p in (Policy.conventional, Policy.mwl))
            for rw in ("r", "w"):
                assert conv["access_counts"]["dram"][rw] == mwl["access_counts"]["dram"][rw]


@st.composite
def _stack(draw):
    """A stack of one to three small layers."""
    dim = draw(st.integers(1, 24))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        layer = LayerDescriptor(draw(st.integers(1, 24)), dim,
                                draw(st.sampled_from(Direction)), draw(st.booleans()))
        layers.append(layer)
        dim = layer.output_size
    return NetworkDescriptor(tuple(layers), input_dim=layers[0].input_size)


@settings(max_examples=200, deadline=None)
@given(net=_stack(), T=st.integers(1, 4), policy=st.sampled_from(Policy),
       bits=st.sampled_from([None, 8]), mem=st.integers(64, 4096))
# layer 0's sequences fit beside its own partials, not beside layer 1's
@example(net=NetworkDescriptor((LayerDescriptor(8, 64), LayerDescriptor(16, 8)),
                               input_dim=64),
         T=1, policy=Policy.mwl, bits=None, mem=700)
def test_cost_model_reports_or_refuses(net, T, policy, bits, mem):
    """Any intermediate-memory size either fits, with every check true and
    each layer's sequences in one double-buffer half, or is refused with a
    capacity or MU error."""
    cfg = HardwareConfig(intermediate_mem_bytes=mem)
    try:
        rep = cost_model(net, T, policy, cfg, QuantConfig(bits) if bits else None)
    except (CapacityError, MuBottleneckError):
        return
    assert all(rep["checks"].values()), rep["checks"]
    eb = net.numeric_precision.elem_bytes
    half = (mem - rep["storage"]["partial_store_hwm"]) // 2
    for layer in net.layers:
        assert T * layer.input_size * eb <= half
        assert T * layer.output_size * eb <= half
