import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epursim.arch import HardwareConfig, cost_model
from epursim.model import (GATES, Direction, LayerDescriptor,
                           NetworkDescriptor, Precision, ShapeError, gate_matrix_bytes)
from epursim.quant import QuantConfig
from epursim.sched import (KINDS, RW, TARGETS, Policy, Target, dram_traffic,
                           gate_accesses, layer_traces, pins_forward_rows,
                           reuse_analysis, trace_conventional, trace_mwl,
                           weight_buffer_read_bytes, weight_storage_bytes,
                           _analyze_stream)


def stream_stats(obj, nbytes, write):
    """The reuse kernel on one stream given as (object id, bytes, is-write)
    columns."""
    return _analyze_stream(np.asarray(obj), np.asarray(nbytes),
                           np.asarray(write, bool))


def trace_bytes(gt, target, rw):
    """Bytes a trace (every gate's stream) moves to or from ``target``, by
    its columns."""
    mask = (gt.target == TARGETS.index(target)) & (gt.rw == RW.index(rw))
    return int(gt.bytes[mask].sum())


def wb_read_bytes_from_trace(gt):
    return trace_bytes(gt, Target.weight_buffer, "r")


class TestConventionalTrace:
    def test_t1_reads_every_weight_byte_once(self):
        layer = LayerDescriptor(8, 6)
        wx, wh = gate_matrix_bytes(layer, 4)
        trace = trace_conventional(layer, 1)
        assert wb_read_bytes_from_trace(trace) == wx + wh
        stats = reuse_analysis(trace)[Target.weight_buffer]
        assert stats["reuse_count"] == 0  # every access compulsory

    def test_t3_reads_every_weight_byte_three_times(self):
        layer = LayerDescriptor(5, 7)
        wx, wh = gate_matrix_bytes(layer, 4)
        trace = trace_conventional(layer, 3)
        assert wb_read_bytes_from_trace(trace) == 3 * (wx + wh)

    def test_max_reuse_distance_is_both_matrices(self):
        layer = LayerDescriptor(320, 320)
        trace = trace_conventional(layer, 2)
        st = reuse_analysis(trace)[Target.weight_buffer]
        assert st["max_reuse_distance"] == 2 * 320 * 320 * 4
        assert st["min_buffer_bytes"] == 2 * 320 * 320 * 4

    def test_interleaves_per_neuron(self):
        layer = LayerDescriptor(3, 3)
        gt = trace_conventional(layer, 1)
        kinds = [KINDS[k] for k in gt.kind]
        assert kinds == ["wx", "wh"] * 3


class TestMwlTrace:
    def test_t1_no_gain_over_conventional(self):
        layer = LayerDescriptor(8, 8)
        conv = trace_conventional(layer, 1)
        mwl = trace_mwl(layer, 1)
        assert wb_read_bytes_from_trace(mwl) == wb_read_bytes_from_trace(conv)

    @pytest.mark.parametrize("T", [1, 10, 100])
    def test_square_layer_access_identity(self, T):
        # mwl / conventional weight-buffer read bytes == (1 + T) / (2T), exactly
        layer = LayerDescriptor(8, 8)
        conv = trace_conventional(layer, T)
        mwl = trace_mwl(layer, T)
        c = wb_read_bytes_from_trace(conv)
        m = wb_read_bytes_from_trace(mwl)
        assert m * 2 * T == c * (1 + T)

    def test_forward_phase_reuse_is_one_row(self):
        layer = LayerDescriptor(24, 40)
        rb = reuse_analysis(trace_mwl(layer, 6))[Target.row_buffer]
        assert rb["max_reuse_distance"] == 40 * 4
        assert rb["min_buffer_bytes"] == 40 * 4

    def test_recurrent_phase_reuse_is_recurrent_matrix(self):
        layer = LayerDescriptor(24, 40)
        wb = reuse_analysis(trace_mwl(layer, 6))[Target.weight_buffer]
        assert wb["max_reuse_distance"] == 24 * 24 * 4

    def test_min_weight_storage_is_recurrent_plus_one_row(self):
        layer = LayerDescriptor(16, 16)
        mwl_need = weight_storage_bytes(reuse_analysis(trace_mwl(layer, 5)))
        conv_need = weight_storage_bytes(reuse_analysis(trace_conventional(layer, 5)))
        assert mwl_need == 16 * 16 * 4 + 16 * 4
        assert conv_need == 2 * 16 * 16 * 4
        assert mwl_need == conv_need // 2 + 16 * 4

    def test_partial_write_bytes_identity(self):
        layer = LayerDescriptor(12, 9)
        T, q = 7, QuantConfig(n_bits=8, alpha=20.0)
        trace = trace_mwl(layer, T, quant=q)
        written = trace_bytes(trace, Target.intermediate_memory, "w")
        assert written == T * layer.hidden_size * 1
        assert written == T * layer.hidden_size * q.storage_bytes
        assert trace_bytes(trace, Target.intermediate_memory, "r") == written

    def test_row_larger_than_buffer_falls_back(self):
        layer = LayerDescriptor(4, 2000)  # 8000-byte rows vs 4 KB buffer
        with pytest.warns(RuntimeWarning, match="row buffer"):
            trace = trace_mwl(layer, 3)
        conv = trace_conventional(layer, 3)
        assert wb_read_bytes_from_trace(trace) == wb_read_bytes_from_trace(conv)
        assert not np.any(trace.target == TARGETS.index(Target.row_buffer))
        # a row of exactly the buffer's size is still pinned
        assert pins_forward_rows(LayerDescriptor(4, 1024), 4, 4096)
        assert not pins_forward_rows(LayerDescriptor(4, 1025), 4, 4096)


class TestClosedFormCounts:
    @pytest.mark.parametrize("policy", [Policy.conventional, Policy.mwl])
    # (3, 1100, 2): 4400-byte forward rows overflow the 4 KB row buffer
    @pytest.mark.parametrize("hidden,nx,T", [(8, 8, 1), (8, 8, 5), (6, 11, 4),
                                             (3, 1100, 2)])
    @pytest.mark.filterwarnings("ignore:forward row:RuntimeWarning")
    def test_trace_matches_closed_form(self, policy, hidden, nx, T):
        layer = LayerDescriptor(hidden, nx)
        # partial width: fp32 when not quantized, else whole bytes per code
        for bits, qbytes in ((None, 4), (8, 1), (12, 2)):
            quant = QuantConfig(bits) if bits else None
            trace = (trace_conventional(layer, T) if policy is Policy.conventional
                     else trace_mwl(layer, T, quant=quant))
            want = gate_accesses(layer, T, policy, 4, qbytes, 4096)
            got = {}
            for code, r in set(zip(trace.target.tolist(), trace.rw.tolist())):
                mask = (trace.target == code) & (trace.rw == r)
                got[(TARGETS[code], RW[r])] = (int(mask.sum()),
                                               int(trace.bytes[mask].sum()))
            assert got == want
            assert wb_read_bytes_from_trace(trace) == \
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
        st = stream_stats([0] * 3, [64] * 3, [False] * 3)
        assert st["max_reuse_distance"] == 64
        assert st["reuse_count"] == 2
        assert st["min_buffer_bytes"] == 64

    def test_permutation_sensitive(self):
        layer = LayerDescriptor(6, 6)
        gt = trace_conventional(layer, 3)
        base = reuse_analysis(gt)[Target.weight_buffer]
        # sorting groups accesses to the same row together, collapsing distances
        grouped = np.argsort(gt.obj, kind="stable")
        sorted_stats = stream_stats(gt.obj[grouped], gt.bytes[grouped],
                                    gt.rw[grouped] == RW.index("w"))
        assert sorted_stats["max_reuse_distance"] < base["max_reuse_distance"]
        assert sorted_stats["max_reuse_distance"] == 6 * 4  # one row

    def test_deterministic(self):
        layer = LayerDescriptor(5, 9)
        trace = trace_mwl(layer, 4)
        a = reuse_analysis(trace)
        b = reuse_analysis(trace)
        assert a == b

    def test_shuffle_changes_distances(self):
        layer = LayerDescriptor(6, 6)
        gt = trace_conventional(layer, 3)
        write = gt.rw == RW.index("w")
        base = stream_stats(gt.obj, gt.bytes, write)["total_reuse_distance"]
        shuffled = np.random.default_rng(5).permutation(len(gt))
        assert stream_stats(gt.obj[shuffled], gt.bytes[shuffled],
                            write[shuffled])["total_reuse_distance"] != base

    def test_empty_trace_rejected(self):
        layer = LayerDescriptor(2, 2)
        trace = trace_conventional(layer, 1)
        empty = dataclasses.replace(trace, **{
            f.name: getattr(trace, f.name)[:0] for f in dataclasses.fields(trace)})
        with pytest.raises(ValueError):
            reuse_analysis(empty)

    def test_min_buffer_not_more_than_footprint(self):
        layer = LayerDescriptor(10, 14)
        st = reuse_analysis(trace_conventional(layer, 3))[Target.weight_buffer]
        assert st["min_buffer_bytes"] <= st["distinct_bytes"]

    @staticmethod
    def _brute_force(obj, nbytes):
        """Set-based reference: distance = bytes of distinct objects touched
        since the previous access to the same object, inclusive of it."""
        history = []
        sizes = {}
        max_dist = total = reuses = 0
        for o, size in zip(obj, nbytes):
            if o in sizes:
                since = history[len(history) - 1 - history[::-1].index(o):]
                dist = sum(sizes[x] for x in {o} | set(since))
                max_dist = max(max_dist, dist)
                total += dist
                reuses += 1
            sizes[o] = size
            history.append(o)
        return reuses, max_dist, total

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 9)),
                    min_size=1, max_size=60))
    def test_matches_brute_force_on_random_streams(self, accesses):
        sizes = {}
        obj = [o for o, _ in accesses]
        # object size is fixed at first touch
        nbytes = [sizes.setdefault(o, size) for o, size in accesses]
        got = stream_stats(obj, nbytes, [False] * len(obj))
        reuses, max_dist, total = self._brute_force(obj, nbytes)
        assert got["reuse_count"] == reuses
        assert got["max_reuse_distance"] == max_dist
        assert got["total_reuse_distance"] == total

    # long enough that the kernel's merge-sort tree spans several levels,
    # with lengths that are rarely a power of two
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 39), st.integers(1, 9), st.booleans()),
                    min_size=1, max_size=400))
    def test_matches_brute_force_on_long_streams(self, accesses):
        sizes = {}
        obj = [o for o, _, _ in accesses]
        # object size is fixed at first touch
        nbytes = [sizes.setdefault(o, size) for o, size, _ in accesses]
        write = [w for _, _, w in accesses]
        got = stream_stats(obj, nbytes, write)
        assert (got["reuse_count"], got["max_reuse_distance"],
                got["total_reuse_distance"]) == self._brute_force(obj, nbytes)
        assert got["access_count"] == len(obj)
        assert got["write_bytes"] == sum(b for b, w in zip(nbytes, write) if w)
        assert got["read_bytes"] == sum(b for b, w in zip(nbytes, write) if not w)
        assert got["distinct_bytes"] == sum(sizes.values())

    def test_one_event_stream(self):
        st_ = stream_stats([0], [7], [True])
        assert st_ == dict(
            access_count=1, read_bytes=0, write_bytes=7, distinct_bytes=7,
            reuse_count=0, max_reuse_distance=0, total_reuse_distance=0,
            min_buffer_bytes=7)

    def test_stream_without_reuse(self):
        st_ = stream_stats(range(5), [k + 1 for k in range(5)], [False] * 5)
        assert st_ == dict(
            access_count=5, read_bytes=15, write_bytes=0, distinct_bytes=15,
            reuse_count=0, max_reuse_distance=0, total_reuse_distance=0,
            min_buffer_bytes=5)

    def test_object_size_is_its_first_access(self):
        # as recorded from the Fenwick-tree implementation: every distance
        # counts object 0 at 5 bytes and object 1 at 3
        assert stream_stats([0, 1, 0, 1, 0], [5, 3, 9, 1, 2],
                            [False] * 5) == dict(
            access_count=5, read_bytes=20, write_bytes=0, distinct_bytes=8,
            reuse_count=3, max_reuse_distance=8, total_reuse_distance=24,
            min_buffer_bytes=9)


def _stats(access_count, read_bytes, write_bytes, distinct_bytes, reuse_count,
           max_reuse_distance, total_reuse_distance, min_buffer_bytes):
    return dict(access_count=access_count, read_bytes=read_bytes,
                write_bytes=write_bytes, distinct_bytes=distinct_bytes,
                reuse_count=reuse_count, max_reuse_distance=max_reuse_distance,
                total_reuse_distance=total_reuse_distance,
                min_buffer_bytes=min_buffer_bytes)


class TestReuseGoldens:
    """``reuse_analysis``'s per-target stats as recorded from the
    Fenwick-tree implementation this kernel replaced, with the targets in
    order of first access."""

    @staticmethod
    def check(trace, per_target):
        got = {t.value: st for t, st in reuse_analysis(trace).items()}
        assert json.dumps(got) == json.dumps(per_target)

    def test_mwl_quantized_partials(self):
        self.check(trace_mwl(LayerDescriptor(24, 40), 6, quant=QuantConfig()), {
            "weight_buffer": _stats(168, 17664, 0, 6144, 120, 2304, 276480, 2304),
            "row_buffer": _stats(168, 23040, 3840, 3840, 144, 160, 23040, 160),
            "intermediate_memory": _stats(288, 144, 144, 144, 144, 144, 16596, 144),
        })

    @pytest.mark.filterwarnings("ignore:forward row:RuntimeWarning")
    def test_mwl_wide_row_fallback(self):
        self.check(trace_mwl(LayerDescriptor(3, 1100), 2), {
            "weight_buffer": _stats(12, 26472, 0, 13236, 6, 4400, 13308, 4400),
            "intermediate_memory": _stats(12, 24, 24, 24, 6, 24, 132, 24),
        })

    def test_conventional(self):
        self.check(trace_conventional(LayerDescriptor(5, 9), 4), {
            "weight_buffer": _stats(40, 1120, 0, 280, 30, 280, 8400, 280),
        })


class TestLayerTraces:
    def test_bidirectional_directions_share_one_trace(self):
        # the two directions are independent cells that follow one schedule,
        # so they share one trace
        layer = LayerDescriptor(4, 4, Direction.bidirectional)
        for policy in Policy:
            traces = layer_traces(layer, 3, policy)
            assert len(traces) == 2
            a, b = traces
            assert a is b

    def test_every_gate_of_every_direction_reads_one_stream(self):
        # the count behind the benchmark's sched.events: one stream, read as
        # four gates of each direction
        layer = LayerDescriptor(4, 4, Direction.bidirectional)
        for policy in Policy:
            traces = layer_traces(layer, 3, policy)
            stream = traces[0]
            for tr in traces:
                assert all(tr.events[g] is stream for g in GATES)
            assert (sum(len(v) for tr in traces for v in tr.events.values())
                    == layer.num_directions * 4 * len(stream))


class TestDramTraffic:
    def _one_layer_net(self):
        return NetworkDescriptor((LayerDescriptor(8, 8),), input_dim=8)

    def test_weight_bytes_independent_of_t(self):
        net = self._one_layer_net()
        totals = {dram_traffic(net, T)["weight_bytes"]
                  for T in (1, 10, 100)}
        assert len(totals) == 1

    def test_t_below_one_is_refused(self):
        # Sequence holds at least one frame, so no command reaches this
        with pytest.raises(ShapeError, match="T must be >= 1"):
            dram_traffic(self._one_layer_net(), 0)

    def test_one_pass_per_layer_direction(self):
        l0 = LayerDescriptor(4, 4, Direction.bidirectional)
        l1 = LayerDescriptor(4, 8)
        net = NetworkDescriptor((l0, l1), input_dim=4)
        rep = dram_traffic(net, 5)
        assert len(rep["per_pass_weight_bytes"]) == 3  # 2 directions + 1

    def test_spill_fraction_counts_intermediates(self):
        net = NetworkDescriptor((LayerDescriptor(16, 16), LayerDescriptor(16, 16)),
                                input_dim=16)
        rep = dram_traffic(net, 50)
        eb = 4
        assert rep["spill_write_bytes"] == 2 * 50 * 16 * eb
        # layer 0 output read by layer 1 once, layer 1 output by the out stage
        assert rep["spill_read_bytes"] == 2 * 50 * 16 * eb
        assert 0 < rep["avoided_fraction"] < 1

    def test_eesen_preset_footprint(self):
        from epursim.presets import preset_descriptor
        net = preset_descriptor("eesen")
        rep = dram_traffic(net, 100)
        mib = rep["weight_bytes"] / 2**20
        assert abs(mib / 42 - 1) < 0.15  # published size, input dims assumed


@settings(max_examples=60, deadline=None)
@given(h=st.integers(6, 24), T=st.integers(2, 6), precision=st.sampled_from(Precision),
       peephole=st.booleans(), row_buffer=st.integers(64, 4096), data=st.data())
def test_mwl_weight_storage_is_the_cost_models_weight_need(h, T, precision, peephole,
                                                          row_buffer, data):
    # analyze-reuse's storage and simulate's agree, the paper's memory
    # claim: a pinned MWL layer's weight buffer holds the recurrent matrix,
    # whose rows are reused h*eb bytes apart, and its row buffer one forward
    # row; the cost model's weight need is the recurrent matrix, the bias
    # and the peephole.  It holds only for h*h >= input_size: a wider
    # forward row would set the weight buffer's own minimum.  Below h = 6
    # the default MUs cannot keep up with the DPUs, and no report is made.
    eb = precision.elem_bytes
    nx = data.draw(st.integers(1, min(h * h, row_buffer // eb)), label="input_size")
    layer = LayerDescriptor(h, nx, peephole=peephole)
    assert pins_forward_rows(layer, eb, row_buffer)
    storage = cost_model(NetworkDescriptor((layer,), nx, precision), T, Policy.mwl,
                         HardwareConfig(row_buffer_bytes=row_buffer))["storage"]
    stats = reuse_analysis(trace_mwl(layer, T, eb, QuantConfig(), row_buffer))
    bias_and_peephole = h * eb * (1 + peephole)
    assert weight_storage_bytes(stats) == \
        storage["weight_bytes_per_cu_hwm"] - bias_and_peephole + nx * eb
