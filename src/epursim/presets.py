"""Benchmark network presets and deterministic synthetic weights.

The published shape tables give layers, neurons, passes and peephole use but
not the per-layer input widths, so presets assume input_size equals the
hidden size (doubled after a bidirectional layer).  Reports always show the
resulting footprint next to the published size instead of hiding the gap.

Weight scaling: uniform(-a, a) with a = 1/sqrt(fan_in), fan_in = input_size
+ hidden_size; this keeps gate preactivations within a few units for unit-
scale inputs, so activations stay far from saturation.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (GATES, PEEPHOLE_GATES, Direction, LayerDescriptor,
                    NetworkDescriptor, Precision, Sequence,
                    cell_weight_bytes, network_weight_bytes)

MIB = float(2**20)


@dataclass(frozen=True)
class NetworkPreset:
    name: str
    app_domain: str
    layers: int
    neurons: int
    passes: int  # 1 = unidirectional, 2 = bidirectional
    peephole: bool
    reported_mb: float  # published model size, MiB
    #: documented tolerance of our synthetic footprint vs the published size
    size_tolerance: float


PRESETS: dict[str, NetworkPreset] = {
    "bysdne": NetworkPreset("BYSDNE", "video classification", 5, 512, 1, True, 40, 0.15),
    "rldradspr": NetworkPreset("RLDRADSPR", "speech recognition", 10, 1024, 1, True, 118, 2.0),
    "eesen": NetworkPreset("EESEN", "speech recognition", 5, 320, 2, True, 42, 0.15),
    "ldlrnn": NetworkPreset("LDLRNN", "time series", 2, 128, 1, False, 1, 1.0),
    "gmat": NetworkPreset("GMAT", "machine translation", 17, 1024, 1, False, 272, 1.1),
}


def preset_descriptor(name: str,
                      precision: Precision = Precision.fp32) -> NetworkDescriptor:
    key = name.lower()
    if key not in PRESETS:
        raise KeyError(f"unknown network preset {name!r}; "
                       f"choose from {sorted(PRESETS)}")
    p = PRESETS[key]
    # assumed: first layer input width equals hidden size
    return custom_descriptor(p.layers, p.neurons, p.passes == 2, p.peephole,
                             precision=precision)


def custom_descriptor(layers: int, hidden: int, bidirectional: bool,
                      peephole: bool, input_dim: int | None = None,
                      precision: Precision = Precision.fp32) -> NetworkDescriptor:
    direction = Direction.bidirectional if bidirectional else Direction.forward_only
    first = in_size = input_dim if input_dim is not None else hidden
    descs = []
    for _ in range(layers):
        layer = LayerDescriptor(hidden_size=hidden, input_size=in_size,
                                direction=direction, peephole=peephole)
        descs.append(layer)
        in_size = layer.output_size
    return NetworkDescriptor(tuple(descs), input_dim=first,
                             numeric_precision=precision)


def random_parts(net: NetworkDescriptor,
                 seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """Deterministic pseudo-random weights, tame preactivation scale: every
    cell's arrays as (name, float64 array), in weight-blob order (see
    ``WeightSet.parts``), each drawn only when it is reached.  A draw too
    large to address raises MemoryError, as one that cannot be allocated
    does."""
    rng = np.random.default_rng(seed)

    def uniform(a: float, shape) -> np.ndarray:
        try:
            return rng.uniform(-a, a, shape)
        except ValueError as e:  # numpy's "array is too big"
            raise MemoryError(f"cannot draw an array of shape {shape}: {e}") from e

    for layer in net.layers:
        h, nx = layer.hidden_size, layer.input_size
        a = 1.0 / np.sqrt(nx + h)
        for _ in range(layer.num_directions):
            for gate in GATES:
                # a gate's peephole is drawn first and comes last in the blob
                peep = uniform(a, h) if layer.peephole and gate in PEEPHOLE_GATES else None
                yield f"{gate}.w_x", uniform(a, (h, nx))
                yield f"{gate}.w_h", uniform(a, (h, h))
                yield f"{gate}.bias", uniform(0.1, h)
                if peep is not None:
                    yield f"{gate}.peephole", peep


def random_sequence(net: NetworkDescriptor, T: int, seed: int) -> Sequence:
    rng = np.random.default_rng(seed)
    frames = rng.uniform(-1.0, 1.0, (T, net.input_dim))
    return Sequence(frames.astype(net.numeric_precision.storage_dtype))


def single_layer_ratio(net: NetworkDescriptor) -> dict:
    """Whole-model weight bytes over the largest single cell's weight bytes.

    The ratio is the storage reduction from keeping only the active cell
    (one direction of one layer) on chip instead of the whole model.
    """
    eb = net.numeric_precision.elem_bytes
    total = network_weight_bytes(net)
    max_cell = max(cell_weight_bytes(l, eb) for l in net.layers)
    return {"total_weight_bytes": total, "max_cell_weight_bytes": max_cell,
            "ratio": total / max_cell}


def preset_report(name: str, precision: Precision = Precision.fp32) -> dict:
    """Shape summary, footprint and deviation from the published size."""
    p = PRESETS[name.lower()]
    net = preset_descriptor(name, precision)
    footprint = network_weight_bytes(net)
    footprint_mib = footprint / MIB
    deviation = footprint_mib / p.reported_mb - 1.0
    r = single_layer_ratio(net)
    return {
        "name": p.name,
        "app_domain": p.app_domain,
        "layers": p.layers,
        "neurons": p.neurons,
        "passes": p.passes,
        "peephole": p.peephole,
        "precision": precision.value,
        "input_dims_assumed": True,
        "footprint_bytes": footprint,
        "footprint_mib": footprint_mib,
        "reported_mb": p.reported_mb,
        "deviation_vs_reported": deviation,
        "size_tolerance": p.size_tolerance,
        "single_layer_ratio": r["ratio"],
    }
