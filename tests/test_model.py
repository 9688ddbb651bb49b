import contextlib
import itertools
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (F32, arrays_of, cell_for_layer, make_cell,
                      naive_lstm_step, naive_preactivation, naive_sigmoid,
                      random_frames, random_network, random_weights, weight_set,
                      weights_for)
from epursim import model
from epursim.model import (GATES, STACK_ORDER, Direction, LayerDescriptor,
                           NetworkDescriptor, NumericError,
                           Precision, Sequence, ShapeError, WeightSet,
                           accumulate_dot, accumulate_dot_all_t, finish_step,
                           layer_infer, network_infer, run_direction)


def zeros_cell(hidden, input_size, bias=0.0):
    layer = LayerDescriptor(hidden, input_size)
    return WeightSet(layer, Precision.fp32,
                     lambda name, shape: np.full(shape, bias if name.endswith(".bias") else 0.0))


def step(ws, pre, c_prev):
    """finish_step on copies of the dot products ``pre`` and of c_{t-1}:
    (c_t, h_t)."""
    z, c, h = pre.copy(), c_prev.copy(), np.zeros_like(c_prev)
    with np.errstate(over="ignore"):
        assert finish_step(ws, z, c, h) is None
    return c, h


def naive_run(ws, frames) -> np.ndarray:
    """naive_lstm_step iterated over frames from the zero state: h per step."""
    c = h = np.zeros(ws.layer.hidden_size, dtype=ws.precision.storage_dtype)
    out = []
    for x in frames:
        c, h = naive_lstm_step(ws, x, c, h)
        out.append(h)
    return np.array(out)


def scalar_dot(acc, mat, vec) -> np.ndarray:
    """acc[j] + mat[j, 0]*vec[0] + mat[j, 1]*vec[1] + ..., one fp32 scalar
    multiply and add per step, left to right."""
    out = np.array(acc, dtype=F32)
    v = [F32(x) for x in vec]
    for j in range(mat.shape[0]):
        a = F32(out[j])
        for m, x in zip(mat[j], v):
            a = F32(a + F32(m * x))
        out[j] = a
    return out


def buffer_sizes(rows):
    """numpy's default ufunc buffer, then the one-row size run_direction
    sets for a ``rows``-long accumulator."""
    return [contextlib.nullcontext(), model._one_row_ufunc_buffer(rows)]


def spread(rng, shape) -> np.ndarray:
    """Random signs, magnitudes log-uniform over [1e-3, 1e3]."""
    signs = rng.choice(np.array([-1.0, 1.0]), shape)
    return (signs * 10.0 ** rng.uniform(-3, 3, shape)).astype(F32)


class TestAccumulationOrder:
    """The dot kernels must equal a scalar loop over k bit for bit; a change
    to numpy's reduction order (e.g. pairwise summation) fails here.

    Each case runs under numpy's default ufunc buffer and again under the
    one-row size run_direction sets (``buffer_sizes``)."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 320), k=st.integers(1, 700),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    @example(rows=4, k=1, order="C", seed=0)
    @example(rows=320, k=700, order="F", seed=1)
    def test_accumulate_dot_matches_scalar_loop(self, rows, k, order, seed):
        rng = np.random.default_rng(seed)
        mat = np.asarray(spread(rng, (rows, k)), order=order)
        vec = spread(rng, k)
        acc = spread(rng, rows)
        want = scalar_dot(acc, mat, vec)
        for size in buffer_sizes(rows):
            with size:
                got = accumulate_dot(acc.copy(), mat, vec)
            assert np.array_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(rows=st.integers(1, 320), k=st.integers(1, 700), T=st.integers(1, 3),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    @example(rows=4, k=1, T=1, order="F", seed=0)
    def test_accumulate_dot_all_t_matches_scalar_loop(self, rows, k, T, order, seed):
        rng = np.random.default_rng(seed)
        mat = np.asarray(spread(rng, (rows, k)), order=order)
        frames = np.asarray(spread(rng, (T, k)), order=order)
        acc = spread(rng, (rows, T))
        want = np.stack([scalar_dot(acc[:, t], mat, frames[t]) for t in range(T)],
                        axis=1)
        for size in buffer_sizes(rows):
            with size:
                got = accumulate_dot_all_t(acc.copy(), mat, frames)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 4, 320])
    def test_sequential_not_pairwise(self, rows):
        # in fp32, 1e8 + 1 rounds back to 1e8, so the ascending-k sum of
        # [1e8, 1, ..., 1, -1e8] is 0; pairwise or blocked summation adds
        # the ones up separately and keeps them
        prods = np.ones(300, dtype=F32)
        prods[0], prods[-1] = 1e8, -1e8
        assert np.add.reduce(prods) != 0  # numpy's pairwise sum differs
        mat = np.tile(prods, (rows, 1))
        zeros = np.zeros(rows, dtype=F32)
        for size in buffer_sizes(rows):
            with size:
                dot = accumulate_dot(zeros.copy(), mat, np.ones(300, F32))
                got = accumulate_dot_all_t(np.zeros((rows, 2), F32), mat,
                                           np.ones((2, 300), F32))
            assert np.array_equal(dot, zeros)
            assert np.array_equal(got, np.zeros((rows, 2), F32))

    @pytest.mark.parametrize("rows", [1, 4, 320])
    def test_sequential_not_pairwise_across_tiles(self, monkeypatch, rows):
        # the same sum at every step of a sequence cut into two-frame tiles,
        # into the F-ordered accumulator run_direction uses
        monkeypatch.setattr(model, "HOIST_TILE_ELEMS", 2 * rows)
        prods = np.ones(300, dtype=F32)
        prods[0], prods[-1] = 1e8, -1e8
        for size in buffer_sizes(rows):
            with size:
                got = accumulate_dot_all_t(np.zeros((5, rows), F32).T,
                                           np.tile(prods, (rows, 1)), np.ones((5, 300), F32))
            assert np.array_equal(got, np.zeros((rows, 5), F32))

    @pytest.mark.parametrize("orders", ["".join(o) for o in itertools.product("CF", repeat=3)])
    @pytest.mark.parametrize("rows, k, T", [(1, 3, 10), (5, 7, 23), (16, 40, 13)])
    def test_accumulate_dot_all_t_across_tiles(self, monkeypatch, rows, k, T, orders):
        # three frames per tile: T crosses several tile boundaries and the
        # last tile is ragged; orders are those of acc, mat and frames
        monkeypatch.setattr(model, "HOIST_TILE_ELEMS", 3 * rows)
        rng = np.random.default_rng(1000 * rows + T)
        acc_order, mat_order, frames_order = orders
        mat = np.asarray(spread(rng, (rows, k)), order=mat_order)
        frames = np.asarray(spread(rng, (T, k)), order=frames_order)
        acc = np.asarray(spread(rng, (rows, T)), order=acc_order)
        want = np.stack([scalar_dot(acc[:, t], mat, frames[t]) for t in range(T)],
                        axis=1)
        for size in buffer_sizes(rows):
            with size:
                got = accumulate_dot_all_t(acc.copy(order="K"), mat, frames)
            assert np.array_equal(got, want)


class TestUfuncBufferScope:
    """run_direction holds numpy's ufunc buffer to one accumulator row for
    its own thread, for the duration of the call only."""

    H = 20  # one row is 4 * 20 = 80 elements, a multiple of 16

    @staticmethod
    def frames(T, seed=0):
        return np.random.default_rng(seed).uniform(-1, 1, (T, 3)).astype(F32)

    @pytest.fixture(autouse=True)
    def outer_size(self):
        old = np.setbufsize(2048)
        yield 2048
        np.setbufsize(old)

    def test_restored_after_return(self, outer_size):
        run_direction(make_cell(self.H, 3, False, 0), self.frames(4))
        assert np.getbufsize() == outer_size

    def test_restored_after_raise(self, outer_size):
        def hook(_partials):
            raise RuntimeError("hook failed")
        with pytest.raises(RuntimeError, match="hook failed"):
            run_direction(make_cell(self.H, 3, False, 0), self.frames(4), hook)
        assert np.getbufsize() == outer_size

    def test_one_row_while_running(self, monkeypatch):
        seen = []
        dot = model.accumulate_dot

        def recording_dot(*args):
            seen.append(np.getbufsize())
            return dot(*args)
        monkeypatch.setattr(model, "accumulate_dot", recording_dot)
        run_direction(make_cell(self.H, 3, False, 0), self.frames(4))
        assert seen == [4 * self.H] * 4

    def test_rows_rounded_down_to_a_multiple_of_16(self):
        for rows, want in [(1, 16), (8, 16), (16, 16), (100, 96), (1280, 1280)]:
            with model._one_row_ufunc_buffer(rows):
                assert np.getbufsize() == want

    def test_per_thread(self, monkeypatch, outer_size):
        # two runs of different widths park inside their recurrent loops
        # while this thread reads its own size; each run sees only its own
        gate = threading.Barrier(3, timeout=10)
        seen = {}
        dot = model.accumulate_dot

        def parking_dot(acc, *args):
            if acc.shape[0] not in seen:
                gate.wait()
                seen[acc.shape[0]] = np.getbufsize()
                gate.wait()
            return dot(acc, *args)
        monkeypatch.setattr(model, "accumulate_dot", parking_dot)
        runs = [threading.Thread(target=run_direction,
                                 args=(make_cell(h, 3, False, h), self.frames(2, h)))
                for h in (self.H, 36)]
        for t in runs:
            t.start()
        gate.wait()
        here = np.getbufsize()
        gate.wait()
        for t in runs:
            t.join(timeout=10)
            assert not t.is_alive()
        assert here == outer_size
        assert seen == {80: 80, 144: 144}


class TestGatePreactivation:
    def test_all_zero_weights_annihilate(self):
        # every gate sees 0: i = f = o = 1/2 and g = 0, so c and h stay 0
        ws = zeros_cell(4, 3)
        frames = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(run_direction(ws, frames), np.zeros((5, 4), F32))

    def test_bias_passthrough(self):
        ws = zeros_cell(5, 2, bias=0.75)
        frames = np.random.default_rng(1).normal(size=(1, 2))
        b = np.full(5, 0.75, dtype=F32)
        c = naive_sigmoid(b) * np.zeros(5, F32) + naive_sigmoid(b) * np.tanh(b)
        assert np.array_equal(run_direction(ws, frames)[0],
                              naive_sigmoid(b) * np.tanh(c))

    @pytest.mark.parametrize("peephole", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_triple_loop(self, peephole, seed):
        # the forward dots run_direction hoists over the whole sequence
        ws = make_cell(4, 4, peephole, seed)
        frames = np.random.default_rng(seed + 100).uniform(-1, 1, (3, 4)).astype(F32)
        seen = []
        run_direction(ws, frames, lambda fwd: seen.append(fwd.copy()) or fwd)
        zero = np.zeros(4, F32)
        p = arrays_of(ws)
        for gate in GATES:
            i = STACK_ORDER.index(gate)
            for t, x in enumerate(frames):
                want = naive_preactivation(p[f"{gate}.w_x"], np.zeros((4, 4)), zero, None,
                                           x, zero, zero)
                assert np.array_equal(seen[0][4 * i:4 * (i + 1), t], want), \
                    f"{gate} diverges from triple loop at t={t}"

    def test_non_finite_input(self):
        ws = make_cell(4, 3, False, 0)
        with pytest.raises(NumericError):
            layer_infer(ws.layer, [ws], Sequence(np.array([[1.0, np.nan, 0.0]])))

    def test_no_peephole_means_cell_state_ignored(self):
        # a forget preactivation of -200 saturates f to exactly 0, so only
        # a peephole can carry the previous cell state into the step
        forget = STACK_ORDER.index("forget")
        pre = np.zeros(24, dtype=F32)
        pre[6 * forget:6 * (forget + 1)] = -200.0
        small, huge = np.zeros(6, F32), np.full(6, 1e6, F32)
        ws = make_cell(6, 6, False, 3)
        (ca, ha), (cb, hb) = step(ws, pre, small), step(ws, pre, huge)
        assert np.array_equal(ca, cb)
        assert np.array_equal(ha, hb)
        peep = make_cell(6, 6, True, 3)
        assert not np.array_equal(step(peep, pre, small)[1], step(peep, pre, huge)[1])


class TestCellStep:
    def test_forget_one_input_zero_conserves_state(self):
        # huge forget bias drives f to exactly 1.0, huge negative input bias
        # drives i to exactly 0.0, so c_t must equal c_{t-1} bit for bit
        hidden, nx = 6, 4
        layer = LayerDescriptor(hidden, nx)
        bias = {"forget.bias": 100.0, "input.bias": -100.0}
        ws = WeightSet(layer, Precision.fp32,
                       lambda name, shape: np.full(shape, bias.get(name, 0.0)))
        c0 = np.linspace(-0.5, 0.5, hidden).astype(np.float32)
        # the dot products of all-zero matrices
        c, _ = step(ws, np.zeros(4 * hidden, dtype=F32), c0)
        assert np.array_equal(c, c0)

    def test_all_zero_first_step(self):
        ws = zeros_cell(4, 4)
        c, h = step(ws, np.zeros(16, dtype=F32), np.zeros(4, dtype=F32))
        assert np.array_equal(c, np.zeros(4, dtype=np.float32))
        assert np.array_equal(h, np.zeros(4, dtype=np.float32))

    @pytest.mark.parametrize("peephole", [False, True])
    def test_three_steps_match_equation_oracle(self, peephole):
        ws = make_cell(8, 8, peephole, 11)
        frames = np.random.default_rng(42).uniform(-1, 1, (3, 8)).astype(np.float32)
        assert np.array_equal(run_direction(ws, frames), naive_run(ws, frames))

    def test_equation_oracle_thousand_random_cells(self):
        # run_direction against the six equations coded as separate expressions
        rng = np.random.default_rng(7)
        for i in range(1000):
            hidden = int(rng.integers(2, 9))
            nx = int(rng.integers(2, 9))
            ws = make_cell(hidden, nx, bool(i % 2), 5000 + i)
            frames = rng.uniform(-1, 1, (int(rng.integers(1, 4)), nx)).astype(np.float32)
            assert np.array_equal(run_direction(ws, frames), naive_run(ws, frames))

    @pytest.mark.parametrize("peephole, precision", [
        (False, Precision.fp32), (True, Precision.fp32),
        (False, Precision.fp16), (True, Precision.fp16)])
    def test_long_sequence_across_tiles_matches_equation_oracle(
            self, monkeypatch, peephole, precision):
        # five frames per hoist tile, so 23 frames cross four tile
        # boundaries and end in a ragged tile
        ws = make_cell(4, 3, peephole, 19, precision)
        monkeypatch.setattr(model, "HOIST_TILE_ELEMS", 5 * 16)
        frames = (np.random.default_rng(23).uniform(-1, 1, (23, 3))
                  .astype(precision.storage_dtype))

        def identity(fwd):
            assert fwd.shape == (16, 23)
            return fwd

        got = run_direction(ws, frames, identity)
        assert got.dtype == precision.storage_dtype
        assert np.array_equal(got, naive_run(ws, frames))

    def test_fp16_storage_fp32_accumulation(self):
        ws = make_cell(8, 8, True, 13, Precision.fp16)
        out = run_direction(ws, np.ones((3, 8), dtype=np.float16))
        assert out.dtype == np.float16
        assert np.all(np.abs(out.astype(np.float64)) <= 1.0)


class TestLayerInfer:
    def test_t1_equals_naive_step(self):
        ws = make_cell(5, 3, True, 21)
        x = np.random.default_rng(3).uniform(-1, 1, (1, 3)).astype(np.float32)
        out = layer_infer(ws.layer, [ws], Sequence(x))
        zero = np.zeros(5, dtype=np.float32)
        _, want = naive_lstm_step(ws, x[0], zero, zero)
        assert np.array_equal(out.frames[0], want)

    def test_palindrome_symmetry(self):
        layer = LayerDescriptor(6, 4, Direction.bidirectional, peephole=False)
        ws = make_cell(6, 4, False, 31)
        ws_b = weight_set(layer, arrays_of(ws))  # identical weights both directions
        ws_f = weight_set(layer, arrays_of(ws))
        rng = np.random.default_rng(8)
        half = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        frames = np.concatenate([half, half[::-1]])  # palindrome, T=6
        out = layer_infer(layer, [ws_f, ws_b], Sequence(frames)).frames
        swapped = np.concatenate([out[::-1, 6:], out[::-1, :6]], axis=1)
        assert np.array_equal(out, swapped)

    def test_bidirectional_equals_two_unidirectional_runs(self):
        layer = LayerDescriptor(7, 5, Direction.bidirectional, peephole=True)
        uni = LayerDescriptor(7, 5, Direction.forward_only, peephole=True)
        ws_f = make_cell(7, 5, True, 41)
        ws_b = make_cell(7, 5, True, 43)
        rng = np.random.default_rng(12)
        frames = rng.uniform(-1, 1, (5, 5)).astype(np.float32)

        bi_f = weight_set(layer, arrays_of(ws_f))
        bi_b = weight_set(layer, arrays_of(ws_b))
        got = layer_infer(layer, [bi_f, bi_b], Sequence(frames)).frames

        fwd = layer_infer(uni, [ws_f], Sequence(frames)).frames
        bwd = layer_infer(uni, [ws_b], Sequence(frames[::-1])).frames
        want = np.concatenate([fwd, bwd[::-1]], axis=1)
        assert np.array_equal(got, want)

    def test_input_dim_mismatch(self):
        ws = make_cell(4, 3, False, 1)
        with pytest.raises(ShapeError):
            layer_infer(ws.layer, [ws], Sequence(np.zeros((2, 4))))

    def test_weight_set_count_must_match_the_directions(self):
        layer = LayerDescriptor(4, 3, Direction.bidirectional)
        ws = weight_set(layer, arrays_of(make_cell(4, 3, False, 1)))
        with pytest.raises(ShapeError, match=r"^layer wants 2 weight sets, got 1$"):
            layer_infer(layer, [ws], Sequence(np.zeros((2, 3))))


class TestNetworkInfer:
    def test_one_layer_equals_layer_infer(self):
        net, weights = random_network(123, max_layers=1)
        seq = random_frames(net, 4, 5)
        got = network_infer(net, weights, seq)
        want = layer_infer(net.layers[0], weights[0], seq)
        assert np.array_equal(got.frames, want.frames)

    def test_two_layers_equal_manual_composition(self):
        rng = np.random.default_rng(9)
        l0 = LayerDescriptor(6, 4, Direction.bidirectional, peephole=True)
        l1 = LayerDescriptor(5, 12, Direction.forward_only, peephole=False)
        net = NetworkDescriptor((l0, l1), input_dim=4)
        w0 = [make_cell(6, 4, True, 61), make_cell(6, 4, True, 62)]
        w0 = [weight_set(l0, arrays_of(w)) for w in w0]
        w1 = [make_cell(5, 12, False, 63)]
        weights = [w0, w1]
        seq = Sequence(rng.uniform(-1, 1, (4, 4)).astype(np.float32))
        got = network_infer(net, weights, seq)
        want = layer_infer(l1, w1, layer_infer(l0, w0, seq))
        assert np.array_equal(got.frames, want.frames)

    def test_input_of_the_wrong_width_is_refused_by_layer_0(self):
        net, weights = random_network(5, max_layers=2)
        frames = np.zeros((2, net.input_dim + 1), dtype=np.float32)
        with pytest.raises(ShapeError, match=(
                rf"^layer 0: input dim {net.input_dim + 1} != layer input_size "
                rf"{net.input_dim}$")):
            network_infer(net, weights, Sequence(frames))

    def test_layer_error_names_the_layer(self):
        net, weights = random_network(5, max_layers=3)
        bad = weights[-1][0]
        # corrupt the last layer's weights so shapes no longer chain
        weights[-1][0] = make_cell(bad.layer.hidden_size + 1,
                                          bad.layer.input_size, False, 1)
        seq = random_frames(net, 2, 0)
        with pytest.raises(ShapeError, match=f"layer {len(net.layers) - 1}"):
            network_infer(net, weights, seq)

    def test_kernel_calls_per_pass_and_step(self, monkeypatch):
        # what a traced benchmark run counts: one forward hoist per
        # layer-direction pass, one recurrent dot and one step per timestep,
        # and the MACs of both dots
        l0 = LayerDescriptor(6, 4, Direction.bidirectional, peephole=True)
        l1 = LayerDescriptor(5, 12)
        net = NetworkDescriptor((l0, l1), input_dim=4)
        weights = weights_for(
            net, lambda i, d, layer: cell_for_layer(layer, 80 + 2 * i + d))
        T = 7
        calls, macs = Counter(), Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if name != "finish_step":
                    _acc, mat, vec = args[:3]
                    macs[name] += mat.shape[0] * vec.size
                return fn(*args)
            return wrapper

        for name in ("accumulate_dot_all_t", "accumulate_dot", "finish_step"):
            monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
        network_infer(net, weights, random_frames(net, T, 3))
        passes = [l0, l0, l1]
        assert calls == {"accumulate_dot_all_t": len(passes),
                         "accumulate_dot": len(passes) * T,
                         "finish_step": len(passes) * T}
        assert macs == {
            "accumulate_dot_all_t": sum(4 * l.hidden_size * T * l.input_size
                                        for l in passes),
            "accumulate_dot": sum(4 * l.hidden_size * T * l.hidden_size
                                  for l in passes)}

    def test_shared_weights_across_threads(self):
        # more threads than cores run the oracle on one network's weights, and
        # every thread's output is bit-identical to a sequential run
        l0 = LayerDescriptor(12, 6, Direction.bidirectional, peephole=True)
        l1 = LayerDescriptor(8, 24, Direction.bidirectional, peephole=True)
        net = NetworkDescriptor((l0, l1), input_dim=6)

        def fresh():
            return weights_for(
                net, lambda i, d, layer: cell_for_layer(layer, 40 + 2 * i + d))

        seq = random_frames(net, 9, 4)
        want = network_infer(net, fresh(), seq).frames
        n_threads = 2 * (os.cpu_count() or 1) + 2
        outputs = []

        def run(shared, start):
            start.wait()
            outputs.append(network_infer(net, shared, seq).frames)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared, start = fresh(), threading.Barrier(n_threads, timeout=60)
                threads = [threading.Thread(target=run, args=(shared, start), daemon=True)
                           for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs) == 10 * n_threads
        assert all(np.array_equal(out, want) for out in outputs)

    def test_deterministic(self):
        net, weights = random_network(77)
        seq = random_frames(net, 6, 7)
        a = network_infer(net, weights, seq)
        b = network_infer(net, weights, seq)
        assert np.array_equal(a.frames, b.frames)

    def test_eesen_shaped_network_runs_finite(self):
        from epursim.presets import preset_descriptor, random_sequence
        net = preset_descriptor("eesen")
        assert len(net.layers) == 5
        assert all(l.hidden_size == 320 for l in net.layers)
        weights = random_weights(net, 0)
        out = network_infer(net, weights, random_sequence(net, 100, 1))
        assert out.frames.shape == (100, 640)
        assert np.all(np.isfinite(out.frames))

    def test_prefix_of_the_sequence_gives_prefix_of_the_outputs(self):
        # a forward-only network is causal: output t depends on frames 0..t
        # only, so a prefix of the input yields exactly that prefix of the
        # outputs, across the hoist's tile boundary (192 frames of LDLRNN's
        # 512 stacked rows) too.  Exact mode only: under calibration a
        # pass's alpha comes from all its partials, so a prefix may get
        # another alpha and other bits.
        from epursim.presets import preset_descriptor, random_sequence
        net = preset_descriptor("ldlrnn")
        assert model.HOIST_TILE_ELEMS // (4 * net.layers[0].hidden_size) == 192
        weights = random_weights(net, 0)
        frames = random_sequence(net, 500, 1).frames
        whole = network_infer(net, weights, Sequence(frames)).frames
        for t in (1, 191, 192, 193, 400):
            part = network_infer(net, weights, Sequence(frames[:t])).frames
            assert np.array_equal(part, whole[:t]), t


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_gate_activation_ranges(self, seed):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(2, 17))
        nx = int(rng.integers(2, 17))
        ws = make_cell(hidden, nx, bool(seed % 2), seed)
        x = rng.uniform(-1, 1, nx).astype(np.float32)
        h = rng.uniform(-1, 1, hidden).astype(np.float32)
        c = rng.uniform(-1, 1, hidden).astype(np.float32)
        p = arrays_of(ws)
        pre = {gate: naive_preactivation(p[f"{gate}.w_x"], p[f"{gate}.w_h"], p[f"{gate}.bias"],
                                         p.get(f"{gate}.peephole"), x, h, c)
               for gate in GATES}
        for gate in ("input", "forget", "output"):
            val = naive_sigmoid(pre[gate])
            assert np.all((val > 0) & (val < 1))
        g = np.tanh(pre["cell_updater"])
        assert np.all((g > -1) & (g < 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_h_bounded_by_one(self, seed, T):
        net, weights = random_network(seed, max_layers=2, hidden_range=(2, 16))
        out = network_infer(net, weights, random_frames(net, T, seed))
        assert np.all(np.abs(out.frames.astype(np.float64)) <= 1.0)

    def test_nan_weights_rejected(self):
        layer = LayerDescriptor(2, 2)
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(NumericError, match="forget.w_x"):
            WeightSet(layer, Precision.fp32,
                      lambda name, shape: bad if name == "forget.w_x" else np.zeros(shape))

    def test_weight_of_the_wrong_shape_rejected(self):
        layer = LayerDescriptor(2, 3)
        with pytest.raises(ShapeError, match=r"^input\.w_x has shape \(3, 2\), want \(2, 3\)$"):
            WeightSet(layer, Precision.fp32, lambda _name, shape: np.zeros(shape[::-1]))

    def test_descriptor_chaining_enforced(self):
        l0 = LayerDescriptor(4, 4, Direction.bidirectional)
        l1 = LayerDescriptor(4, 4)  # wrong: l0 outputs 8 wide
        with pytest.raises(ShapeError):
            NetworkDescriptor((l0, l1), input_dim=4)

    @pytest.mark.parametrize("input_dim", [0, -3])
    def test_input_dim_below_one_is_refused_by_the_layer_chain(self, input_dim):
        # a layer's input_size is positive, so it never matches
        with pytest.raises(ShapeError, match=(
                rf"^layer 0 expects input_size=4, but the preceding layer "
                rf"produces {input_dim}$")):
            NetworkDescriptor((LayerDescriptor(4, 4),), input_dim=input_dim)
