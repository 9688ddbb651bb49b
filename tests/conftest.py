"""Shared fixtures and independently coded reference implementations.

The naive evaluators here are written as plain triple loops over numpy
scalars, deliberately avoiding the library's vectorized accumulation helpers,
so they can serve as an independent oracle for bit-exactness tests.
"""
from __future__ import annotations

import numpy as np
import pytest

from epursim import arch
from epursim.model import (GATES, Direction, GateParams, LayerDescriptor,
                           NetworkDescriptor, NetworkWeights, Precision,
                           Sequence, WeightSet)

F32 = np.float32


def make_cell(hidden: int, input_size: int, peephole: bool, seed: int,
              precision: Precision = Precision.fp32,
              scale: float | None = None) -> WeightSet:
    layer = LayerDescriptor(hidden, input_size, Direction.forward_only, peephole)
    return cell_for_layer(layer, seed, precision, scale)


def cell_for_layer(layer: LayerDescriptor, seed: int,
                   precision: Precision = Precision.fp32,
                   scale: float | None = None) -> WeightSet:
    rng = np.random.default_rng(seed)
    hidden, input_size = layer.hidden_size, layer.input_size
    a = scale if scale is not None else 1.0 / np.sqrt(hidden + input_size)
    gates = {}
    for g in GATES:
        peep = None
        if layer.peephole and g != "cell_updater":
            peep = rng.uniform(-a, a, hidden)
        gates[g] = GateParams(rng.uniform(-a, a, (hidden, input_size)),
                              rng.uniform(-a, a, (hidden, hidden)),
                              rng.uniform(-0.1, 0.1, hidden), peep)
    return WeightSet(layer, gates, precision)


def random_network(seed: int, max_layers: int = 4,
                   hidden_range: tuple[int, int] = (8, 64),
                   precision: Precision = Precision.fp32):
    """A random tame-scaled network plus weights, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, max_layers + 1))
    input_dim = int(rng.integers(*hidden_range, endpoint=True))
    layers = []
    in_size = input_dim
    for _ in range(n_layers):
        hidden = int(rng.integers(*hidden_range, endpoint=True))
        direction = Direction.bidirectional if rng.random() < 0.5 else Direction.forward_only
        peephole = bool(rng.random() < 0.5)
        layer = LayerDescriptor(hidden, in_size, direction, peephole)
        layers.append(layer)
        in_size = layer.output_size
    net = NetworkDescriptor(tuple(layers), input_dim, precision)

    def make(i, d, layer):
        return cell_for_layer(layer, seed * 7919 + i * 101 + d, precision)

    return net, NetworkWeights.for_network(net, make)


def random_frames(net: NetworkDescriptor, T: int, seed: int) -> Sequence:
    rng = np.random.default_rng(seed)
    return Sequence(rng.uniform(-1, 1, (T, net.input_dim))
                    .astype(net.numeric_precision.storage_dtype))


def simulate(net, weights, seq, policy, cfg, quant=None, quant_calibrate=False,
             frames_per_second=None) -> arch.SimReport:
    """One simulated inference as the CLI runs it: the cost model's report,
    then the datapath's outputs attached to it."""
    report = arch.cost_model(net, seq.length, policy, cfg, quant, frames_per_second)
    return arch.simulate(net, weights, seq, report, quant_calibrate)


# ---------------------------------------------------------------------------
# independent naive evaluators (triple loops over numpy scalars)

def naive_preactivation(w_x, w_h, bias, peephole, x, h, c) -> np.ndarray:
    out = np.empty(w_x.shape[0], dtype=F32)
    for j in range(w_x.shape[0]):
        acc = F32(0.0)
        for k in range(w_x.shape[1]):
            acc = F32(acc + F32(F32(w_x[j, k]) * F32(x[k])))
        for k in range(w_h.shape[1]):
            acc = F32(acc + F32(F32(w_h[j, k]) * F32(h[k])))
        if peephole is not None:
            acc = F32(acc + F32(F32(peephole[j]) * F32(c[j])))
        acc = F32(acc + F32(bias[j]))
        out[j] = acc
    return out


def naive_sigmoid(x: np.ndarray) -> np.ndarray:
    return F32(1.0) / (F32(1.0) + np.exp(-x))


def naive_lstm_step(ws: WeightSet, x, c_prev, h_prev):
    """The six cell equations written out one by one."""
    g = ws.gates
    peep = {name: (g[name].peephole if ws.layer.peephole else None)
            for name in GATES}
    pre_i = naive_preactivation(g["input"].w_x, g["input"].w_h, g["input"].bias,
                                peep["input"], x, h_prev, c_prev)
    i_t = naive_sigmoid(pre_i)
    pre_f = naive_preactivation(g["forget"].w_x, g["forget"].w_h, g["forget"].bias,
                                peep["forget"], x, h_prev, c_prev)
    f_t = naive_sigmoid(pre_f)
    pre_g = naive_preactivation(g["cell_updater"].w_x, g["cell_updater"].w_h,
                                g["cell_updater"].bias, None, x, h_prev, c_prev)
    g_t = np.tanh(pre_g)
    c_t = f_t * c_prev.astype(F32) + i_t * g_t
    pre_o = naive_preactivation(g["output"].w_x, g["output"].w_h, g["output"].bias,
                                peep["output"], x, h_prev, c_t)
    o_t = naive_sigmoid(pre_o)
    h_t = o_t * np.tanh(c_t)
    dt = ws.precision.storage_dtype
    return c_t.astype(dt), h_t.astype(dt)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 1.0


@pytest.fixture(scope="session")
def acceptance_suite():
    """The shared random-network suite used by several acceptance criteria."""
    rng = np.random.default_rng(20240718)
    cases = []
    for i in range(200):
        seed = int(rng.integers(0, 2**31))
        T = int(rng.integers(1, 17))
        net, weights = random_network(seed)
        cases.append((net, weights, random_frames(net, T, seed ^ 0x5A5A)))
    return cases
