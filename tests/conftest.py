"""Shared fixtures and independently coded reference implementations.

The naive evaluators here are written as plain triple loops over numpy
scalars, deliberately avoiding the library's vectorized accumulation helpers,
so they can serve as an independent oracle for bit-exactness tests.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from epursim import arch, model, netio, presets
from epursim.model import (GATES, PEEPHOLE_GATES, Direction, LayerDescriptor,
                           NetworkDescriptor, NetworkWeights, Precision,
                           Sequence, WeightSet)

F32 = np.float32


# ---------------------------------------------------------------------------
# building, reading and saving weights, networks and sequences

def weight_set(layer: LayerDescriptor, arrays: dict[str, np.ndarray],
               precision: Precision = Precision.fp32) -> WeightSet:
    """The weight set whose arrays are ``arrays``, keyed by their
    ``WeightSet.parts`` names ("{gate}.{field}")."""
    return WeightSet(layer, precision, lambda name, _shape: arrays[name])


def arrays_of(ws: WeightSet) -> dict[str, np.ndarray]:
    """Every weight array of ``ws`` by its ``parts`` name, at storage
    precision: views for an fp32 cell, fp16 copies for an fp16 one."""
    dt = ws.precision.storage_dtype
    return {name: arr.astype(dt, copy=False) for name, arr in ws.parts()}


def weights_for(net: NetworkDescriptor, make) -> NetworkWeights:
    """A network's weights from ``make(layer_index, direction_index, layer)``."""
    return [[make(i, d, layer) for d in range(layer.num_directions)]
            for i, layer in enumerate(net.layers)]


def random_weights(net: NetworkDescriptor, seed: int) -> NetworkWeights:
    """The weights of ``presets.random_parts``, held as weight sets: those
    of the blob ``gen-network --seed`` writes."""
    parts = presets.random_parts(net, seed)
    return weights_for(net, lambda _i, _d, layer: WeightSet(
        layer, net.numeric_precision, lambda _name, _shape: next(parts)[1]))


def save_descriptor(net: NetworkDescriptor, path) -> None:
    Path(path).write_bytes(netio.descriptor_to_bytes(net))


def save_weights(net: NetworkDescriptor, weights: NetworkWeights, path) -> None:
    with open(path, "wb") as f:
        f.writelines(netio.weight_blob_chunks(
            net, (part for cells in weights for ws in cells for part in ws.parts())))


def save_sequence(seq: Sequence, path) -> None:
    Path(path).write_bytes(netio.sequence_to_bytes(seq))


def read_frames(path) -> np.ndarray:
    """The [T, dim] fp32 frames of a sequence file, as the CLI reads them."""
    return netio.open_sequence(path)[2]()


def start_of(plan: dict[str, arch.MuOp], gate: str, name: str) -> int:
    """The cycle at which MU op ``gate.name`` starts."""
    return plan[f"{gate}.{name}"].start


def gate_span(plan: dict[str, arch.MuOp], gate: str) -> int:
    """Index of the last stage the gate occupies (unit-latency view)."""
    return max(op.start + op.latency - 1 for op in plan.values() if op.gate == gate)


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
    arrays = {}
    for g in GATES:
        if layer.peephole and g in PEEPHOLE_GATES:
            arrays[f"{g}.peephole"] = rng.uniform(-a, a, hidden)
        arrays[f"{g}.w_x"] = rng.uniform(-a, a, (hidden, input_size))
        arrays[f"{g}.w_h"] = rng.uniform(-a, a, (hidden, hidden))
        arrays[f"{g}.bias"] = rng.uniform(-0.1, 0.1, hidden)
    return weight_set(layer, arrays, precision)


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

    return net, weights_for(net, make)


def random_frames(net: NetworkDescriptor, T: int, seed: int) -> Sequence:
    rng = np.random.default_rng(seed)
    return Sequence(rng.uniform(-1, 1, (T, net.input_dim))
                    .astype(net.numeric_precision.storage_dtype))


def simulate(net, weights, seq, policy, cfg, quant=None, quant_calibrate=False,
             frames_per_second=None) -> tuple[dict, Sequence]:
    """One simulated inference as the CLI runs it: the cost model's report,
    then the datapath run on it; returns the report and the outputs."""
    report = arch.cost_model(net, seq.length, policy, cfg, quant, frames_per_second)
    return arch.simulate(net, weights, seq, [report], quant_calibrate)[0]


def infer(net, weights, seq, hook=None) -> Sequence:
    """The reference model's output: ``model.network_infer``'s one run,
    with the partials hook ``hook``."""
    return model.network_infer(net, weights, seq, [hook])[0]


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
    p = arrays_of(ws)

    def pre(gate, c):
        return naive_preactivation(p[f"{gate}.w_x"], p[f"{gate}.w_h"], p[f"{gate}.bias"],
                                   p.get(f"{gate}.peephole"), x, h_prev, c)

    i_t = naive_sigmoid(pre("input", c_prev))
    f_t = naive_sigmoid(pre("forget", c_prev))
    g_t = np.tanh(pre("cell_updater", c_prev))
    c_t = f_t * c_prev.astype(F32) + i_t * g_t
    pre_o = pre("output", c_t)
    o_t = naive_sigmoid(pre_o)
    h_t = o_t * np.tanh(c_t)
    dt = ws.precision.storage_dtype
    return c_t.astype(dt), h_t.astype(dt)


def reference_table(n_bits: int, alpha: float) -> np.ndarray:
    """The 2^n - 1 entry dequantization table: code / beta in fp32, for the
    codes -max_code..max_code."""
    max_code = 2 ** (n_bits - 1) - 1
    beta = max_code / alpha
    return np.array([code / beta for code in range(-max_code, max_code + 1)],
                    dtype=F32)


def reference_readback(values, n_bits: int, alpha: float) -> np.ndarray:
    """What the recurrent phase reads back for each fp32 value, one Python
    float at a time: the code floor(|x| * beta + 0.5), clamped to max_code
    (before the floor, so that an infinite |x| * beta clamps too) and given
    the sign of x, looked up in ``reference_table``."""
    max_code = 2 ** (n_bits - 1) - 1
    beta = max_code / alpha
    table = reference_table(n_bits, alpha)
    values = np.asarray(values, dtype=F32)
    codes = []
    for x in values.ravel().tolist():
        code = math.floor(min(abs(x) * beta, max_code) + 0.5)
        codes.append(max_code - code if x < 0 else max_code + code)
    return table[codes].reshape(values.shape)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """1.0 when both vectors are zero, and 0.0 when only one is."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if norm_a and norm_b:
        return float(a @ b / (norm_a * norm_b))
    return float(norm_a == norm_b)


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
