import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epursim.model import (GATES, Direction, LayerDescriptor,
                           NetworkDescriptor, gate_matrix_bytes)
from epursim.quant import QuantConfig
from epursim.sched import (AccessEvent, Policy, Target, dram_traffic,
                           layer_traces, reuse_analysis,
                           trace_conventional, trace_mwl,
                           weight_buffer_read_bytes, _analyze_stream)


def wb_read_bytes_from_trace(trace, gate):
    return sum(ev.bytes for ev in trace.gate_events(gate)
               if ev.target is Target.weight_buffer and ev.rw == "r")


class TestConventionalTrace:
    def test_t1_reads_every_weight_byte_once(self):
        layer = LayerDescriptor(8, 6)
        wx, wh = gate_matrix_bytes(layer, 4)
        trace = trace_conventional(layer, 1)
        for g in GATES:
            assert wb_read_bytes_from_trace(trace, g) == wx + wh
            stats = reuse_analysis(trace).gate_target(g, Target.weight_buffer)
            assert stats.reuse_count == 0  # every access compulsory

    def test_t3_reads_every_weight_byte_three_times(self):
        layer = LayerDescriptor(5, 7)
        wx, wh = gate_matrix_bytes(layer, 4)
        trace = trace_conventional(layer, 3)
        for g in GATES:
            assert wb_read_bytes_from_trace(trace, g) == 3 * (wx + wh)

    def test_max_reuse_distance_is_both_matrices(self):
        layer = LayerDescriptor(320, 320)
        trace = trace_conventional(layer, 2)
        stats = reuse_analysis(trace)
        for g in GATES:
            st = stats.gate_target(g, Target.weight_buffer)
            assert st.max_reuse_distance == 2 * 320 * 320 * 4
            assert st.min_buffer_bytes == 2 * 320 * 320 * 4

    def test_interleaves_per_neuron(self):
        layer = LayerDescriptor(3, 3)
        ev = trace_conventional(layer, 1).gate_events("input")
        kinds = [e.object_id[0] for e in ev]
        assert kinds == ["wx", "wh"] * 3


class TestMwlTrace:
    def test_t1_no_gain_over_conventional(self):
        layer = LayerDescriptor(8, 8)
        conv = trace_conventional(layer, 1)
        mwl = trace_mwl(layer, 1)
        for g in GATES:
            assert wb_read_bytes_from_trace(mwl, g) == wb_read_bytes_from_trace(conv, g)

    @pytest.mark.parametrize("T", [1, 10, 100])
    def test_square_layer_access_identity(self, T):
        # mwl / conventional weight-buffer read bytes == (1 + T) / (2T), exactly
        layer = LayerDescriptor(8, 8)
        conv = trace_conventional(layer, T)
        mwl = trace_mwl(layer, T)
        for g in GATES:
            c = wb_read_bytes_from_trace(conv, g)
            m = wb_read_bytes_from_trace(mwl, g)
            assert m * 2 * T == c * (1 + T)

    def test_forward_phase_reuse_is_one_row(self):
        layer = LayerDescriptor(24, 40)
        stats = reuse_analysis(trace_mwl(layer, 6))
        for g in GATES:
            rb = stats.gate_target(g, Target.row_buffer)
            assert rb.max_reuse_distance == 40 * 4
            assert rb.min_buffer_bytes == 40 * 4

    def test_recurrent_phase_reuse_is_recurrent_matrix(self):
        layer = LayerDescriptor(24, 40)
        stats = reuse_analysis(trace_mwl(layer, 6))
        for g in GATES:
            wb = stats.gate_target(g, Target.weight_buffer)
            assert wb.max_reuse_distance == 24 * 24 * 4

    def test_min_weight_storage_is_recurrent_plus_one_row(self):
        layer = LayerDescriptor(16, 16)
        stats = reuse_analysis(trace_mwl(layer, 5))
        conv_stats = reuse_analysis(trace_conventional(layer, 5))
        for g in GATES:
            mwl_need = stats.weight_storage_bytes(g)
            conv_need = conv_stats.weight_storage_bytes(g)
            assert mwl_need == 16 * 16 * 4 + 16 * 4
            assert conv_need == 2 * 16 * 16 * 4
            assert mwl_need == conv_need // 2 + 16 * 4

    def test_partial_write_bytes_identity(self):
        layer = LayerDescriptor(12, 9)
        T, q = 7, QuantConfig(n_bits=8, alpha=20.0)
        trace = trace_mwl(layer, T, quant=q)
        written = sum(ev.bytes for ev in trace.all_events()
                      if ev.target is Target.intermediate_memory and ev.rw == "w")
        assert written == 4 * T * layer.hidden_size * 1
        assert written == 4 * T * layer.hidden_size * q.storage_bytes
        read_back = sum(ev.bytes for ev in trace.all_events()
                        if ev.target is Target.intermediate_memory and ev.rw == "r")
        assert read_back == written

    def test_row_larger_than_buffer_falls_back(self):
        layer = LayerDescriptor(4, 2000)  # 8000-byte rows vs 4 KB buffer
        with pytest.warns(RuntimeWarning, match="row buffer"):
            trace = trace_mwl(layer, 3)
        conv = trace_conventional(layer, 3)
        for g in GATES:
            assert wb_read_bytes_from_trace(trace, g) == wb_read_bytes_from_trace(conv, g)
            assert not any(ev.target is Target.row_buffer
                           for ev in trace.gate_events(g))


class TestClosedFormCounts:
    @pytest.mark.parametrize("policy", [Policy.conventional, Policy.mwl])
    @pytest.mark.parametrize("hidden,nx,T", [(8, 8, 1), (8, 8, 5), (6, 11, 4)])
    def test_trace_matches_closed_form(self, policy, hidden, nx, T):
        layer = LayerDescriptor(hidden, nx)
        trace = (trace_conventional(layer, T) if policy is Policy.conventional
                 else trace_mwl(layer, T))
        for g in GATES:
            assert wb_read_bytes_from_trace(trace, g) == \
                weight_buffer_read_bytes(layer, T, policy)

    def test_reduction_fraction_approaches_half(self):
        layer = LayerDescriptor(8, 8)
        wx, wh = gate_matrix_bytes(layer, 4)
        for T in (1, 4, 16, 64):
            ratio = (weight_buffer_read_bytes(layer, T, Policy.mwl)
                     / weight_buffer_read_bytes(layer, T, Policy.conventional))
            assert abs(ratio - wx / (wx + wh)) <= 1 / T


class TestReuseAnalysis:
    def test_single_repeated_row(self):
        ev = [AccessEvent(Target.weight_buffer, ("wx", "input", 0), "r", 64, t, 0)
              for t in (1, 2, 3)]
        st = _analyze_stream(ev)
        assert st.max_reuse_distance == 64
        assert st.reuse_count == 2
        assert st.min_buffer_bytes == 64

    def test_permutation_sensitive(self):
        layer = LayerDescriptor(6, 6)
        trace = trace_conventional(layer, 3)
        base = reuse_analysis(trace).gate_target("input", Target.weight_buffer)
        # sorting groups accesses to the same row together, collapsing distances
        grouped = sorted(trace.events["input"], key=lambda e: e.object_id)
        sorted_stats = _analyze_stream(grouped)
        assert sorted_stats.max_reuse_distance < base.max_reuse_distance
        assert sorted_stats.max_reuse_distance == 6 * 4  # one row

    def test_deterministic(self):
        layer = LayerDescriptor(5, 9)
        trace = trace_mwl(layer, 4)
        a = reuse_analysis(trace).to_json()
        b = reuse_analysis(trace).to_json()
        assert a == b

    def test_shuffle_changes_distances(self):
        layer = LayerDescriptor(6, 6)
        trace = trace_conventional(layer, 3)
        events = list(trace.events["input"])
        base = _analyze_stream(events).total_reuse_distance
        rng = random.Random(5)
        shuffled = events[:]
        rng.shuffle(shuffled)
        assert _analyze_stream(shuffled).total_reuse_distance != base

    def test_empty_trace_rejected(self):
        layer = LayerDescriptor(2, 2)
        trace = trace_conventional(layer, 1)
        trace.events = {g: [] for g in GATES}
        with pytest.raises(ValueError):
            reuse_analysis(trace)

    def test_min_buffer_not_more_than_footprint(self):
        layer = LayerDescriptor(10, 14)
        stats = reuse_analysis(trace_conventional(layer, 3))
        for g in GATES:
            st = stats.gate_target(g, Target.weight_buffer)
            assert st.min_buffer_bytes <= st.distinct_bytes

    @staticmethod
    def _brute_force(events):
        """Set-based reference: distance = bytes of distinct objects touched
        since the previous access to the same object, inclusive of it."""
        history = []
        sizes = {}
        max_dist = total = reuses = 0
        for ev in events:
            if ev.object_id in sizes:
                since = history[len(history) - 1 - history[::-1].index(ev.object_id):]
                touched = {ev.object_id} | set(since)
                dist = sum(sizes[o] for o in touched)
                max_dist = max(max_dist, dist)
                total += dist
                reuses += 1
            sizes[ev.object_id] = ev.bytes
            history.append(ev.object_id)
        return reuses, max_dist, total

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 9)),
                    min_size=1, max_size=60))
    def test_matches_brute_force_on_random_streams(self, accesses):
        sizes = {}
        events = []
        for obj, size in accesses:
            sizes.setdefault(obj, size)  # object size is fixed at first touch
            events.append(AccessEvent(Target.weight_buffer, ("o", obj), "r",
                                      sizes[obj], 1, 0))
        got = _analyze_stream(events)
        reuses, max_dist, total = self._brute_force(events)
        assert got.reuse_count == reuses
        assert got.max_reuse_distance == max_dist
        assert got.total_reuse_distance == total


class TestEventValidation:
    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            AccessEvent(Target.dram, ("x",), "r", 0, 1, 0)

    def test_bad_rw_rejected(self):
        with pytest.raises(ValueError):
            AccessEvent(Target.dram, ("x",), "rw", 4, 1, 0)


class TestLayerTraces:
    def test_bidirectional_yields_two_independent_traces(self):
        layer = LayerDescriptor(4, 4, Direction.bidirectional)
        traces = layer_traces(layer, 3, Policy.conventional)
        assert len(traces) == 2
        a, b = traces
        assert [e for e in a.all_events()] == [e for e in b.all_events()]
        assert a is not b


class TestDramTraffic:
    def _one_layer_net(self):
        return NetworkDescriptor((LayerDescriptor(8, 8),), input_dim=8)

    def test_weight_bytes_independent_of_t(self):
        net = self._one_layer_net()
        totals = {dram_traffic(net, Policy.conventional, T).weight_bytes
                  for T in (1, 10, 100)}
        assert len(totals) == 1

    def test_policy_does_not_change_dram(self):
        net = self._one_layer_net()
        a = dram_traffic(net, Policy.conventional, 10)
        b = dram_traffic(net, Policy.mwl, 10)
        assert a.weight_bytes == b.weight_bytes
        assert a.total_bytes == b.total_bytes

    def test_one_pass_per_layer_direction(self):
        l0 = LayerDescriptor(4, 4, Direction.bidirectional)
        l1 = LayerDescriptor(4, 8)
        net = NetworkDescriptor((l0, l1), input_dim=4)
        rep = dram_traffic(net, Policy.conventional, 5)
        assert len(rep.per_pass_weight_bytes) == 3  # 2 directions + 1

    def test_spill_fraction_counts_intermediates(self):
        net = NetworkDescriptor((LayerDescriptor(16, 16), LayerDescriptor(16, 16)),
                                input_dim=16)
        rep = dram_traffic(net, Policy.conventional, 50)
        eb = 4
        assert rep.spill_write_bytes == 2 * 50 * 16 * eb
        # layer 0 output read by layer 1 once, layer 1 output by the out stage
        assert rep.spill_read_bytes == 2 * 50 * 16 * eb
        assert 0 < rep.avoided_fraction < 1

    def test_eesen_preset_footprint(self):
        from epursim.presets import preset_descriptor
        net = preset_descriptor("eesen")
        rep = dram_traffic(net, Policy.conventional, 100)
        mib = rep.weight_bytes / 2**20
        assert abs(mib / 42 - 1) < 0.15  # published size, input dims assumed
