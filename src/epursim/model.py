"""LSTM network types and the reference (oracle) inference engine.

The functions here define the numerical ground truth the hardware model is
checked against.  Accumulation order is part of the contract: every gate
preactivation is built per neuron as

    forward dot (columns in ascending index order)
    + recurrent dot (ascending index order)
    + peephole term (if any)
    + bias

with one floating-point addition per step, so that an independently written
triple-loop evaluator and the cycle-level datapath produce bit-identical
results in exact mode.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

GATES = ("input", "forget", "cell_updater", "output")
#: row order of a cell's stacked arrays: the three sigmoid gates follow the
#: cell updater as one contiguous block
STACK_ORDER = ("cell_updater", "input", "forget", "output")
#: gates whose preactivation includes a peephole term (the cell-updater
#: equation has none)
PEEPHOLE_GATES = ("input", "forget", "output")


class ShapeError(ValueError):
    """Dimension mismatch between weights, inputs or layer descriptors."""


class NumericError(ValueError):
    """Non-finite value where finite data is required."""


class Precision(str, Enum):
    fp32 = "fp32"
    fp16 = "fp16"

    @property
    def storage_dtype(self) -> np.dtype:
        return np.dtype(np.float16 if self is Precision.fp16 else np.float32)

    @property
    def elem_bytes(self) -> int:
        return self.storage_dtype.itemsize


class Direction(str, Enum):
    forward_only = "forward_only"
    bidirectional = "bidirectional"


# Dot products accumulate in single precision in both modes; fp16 only
# narrows storage of weights and activations.
ACC_DTYPE = np.float32

#: maps a pass's hoisted forward partials [4*hidden, T] to the values its
#: recurrent phase starts from (MWL stores them quantized); the recurrent
#: loop overwrites the array the hook returns
PartialsHook = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LayerDescriptor:
    hidden_size: int
    input_size: int
    direction: Direction = Direction.forward_only
    peephole: bool = False

    def __post_init__(self):
        if self.hidden_size <= 0 or self.input_size <= 0:
            raise ShapeError(
                f"layer dimensions must be positive, got hidden={self.hidden_size} "
                f"input={self.input_size}"
            )

    @property
    def num_directions(self) -> int:
        return 2 if self.direction is Direction.bidirectional else 1

    @property
    def output_size(self) -> int:
        """Width of the frame this layer emits (concatenated if bidirectional)."""
        return self.hidden_size * self.num_directions


@dataclass(frozen=True)
class NetworkDescriptor:
    layers: tuple[LayerDescriptor, ...]
    input_dim: int
    numeric_precision: Precision = Precision.fp32

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        expected = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.input_size != expected:
                raise ShapeError(
                    f"layer {i} expects input_size={layer.input_size}, but the "
                    f"preceding layer produces {expected}"
                )
            expected = layer.output_size

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_size


def _as_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


class WeightSet:
    """All four gates of one LSTM cell (one direction of one layer).

    The weights are held once, in the layout the datapath reads: fp32
    arrays with the four gates stacked row-wise in STACK_ORDER (see
    ``stacked``).  An fp16 cell rounds every value through fp16 before it
    is held, so its values are those fp16 storage would hold.
    """

    def __init__(self, layer: LayerDescriptor, precision: Precision,
                 value_of: Callable[[str, tuple[int, ...]], np.ndarray]):
        """The weight set whose arrays are ``value_of(name, shape)``, asked
        for one at a time in the order of ``parts``."""
        self.layer = layer
        self.precision = precision
        h, nx = layer.hidden_size, layer.input_size
        self._stacked = (np.empty((4 * h, nx), ACC_DTYPE, order="F"),
                         np.empty((4 * h, h), ACC_DTYPE, order="F"),
                         np.empty(4 * h, ACC_DTYPE))
        peep = np.empty((len(PEEPHOLE_GATES), h), ACC_DTYPE) if layer.peephole else None
        self._peep = peep
        self._peepholes = None if peep is None else (peep[:2], peep[2])
        dt = precision.storage_dtype
        for name, dst in self.parts():
            src = np.asarray(value_of(name, dst.shape))
            if src.shape != dst.shape:
                raise ShapeError(f"{name} has shape {src.shape}, want {dst.shape}")
            if dt != ACC_DTYPE:
                src = src.astype(dt)  # an fp16 cell rounds each value to fp16
            # copying row-major values into Fortran-ordered rows transposes
            # them; blocks of 64 rows keep it in cache, 2-4x faster than
            # one whole-array copy
            for r in range(0, len(dst), 64):
                dst[r:r + 64] = src[r:r + 64]
            _as_finite(name, dst)

    def parts(self) -> list[tuple[str, np.ndarray]]:
        """Every weight array as (name, its rows of the stacked fp32 arrays),
        in weight-blob order: gates as GATES; within a gate ``w_x``, ``w_h``,
        ``bias``, then on a peephole layer the ``peephole`` vector.  A name
        is ``"{gate}.{field}"``; a gate's rows are where STACK_ORDER puts
        them."""
        h = self.layer.hidden_size
        wx, wh, b = self._stacked
        out = []
        for g in GATES:
            i = STACK_ORDER.index(g)
            rows = slice(i * h, (i + 1) * h)
            out += [(f"{g}.w_x", wx[rows]), (f"{g}.w_h", wh[rows]), (f"{g}.bias", b[rows])]
            if self._peep is not None and g in PEEPHOLE_GATES:
                out.append((f"{g}.peephole", self._peep[PEEPHOLE_GATES.index(g)]))
        return out

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The four gates' fp32 forward matrix [4h, input_size], recurrent
        matrix [4h, h] and bias [4h], stacked row-wise in STACK_ORDER.

        Stacking is a pure row concatenation: per-row accumulation order is
        unchanged, so results are bit-identical to per-gate evaluation.  The
        matrices are stored Fortran-ordered (shape unchanged), so a column
        mat[:, k] and the transpose the dot kernels stream are contiguous.
        """
        return self._stacked

    def stacked_peepholes(self) -> tuple[np.ndarray, np.ndarray]:
        """fp32 peephole vectors of a peephole layer: input and forget
        stacked as [2, hidden], and the output gate's [hidden]."""
        return self._peepholes


#: A whole network's weights: per layer, one weight set per direction.
NetworkWeights = list[list[WeightSet]]


@dataclass
class Sequence:
    """Ordered input frames, shape [T, dim]."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ShapeError(f"sequence must be [T>=1, dim], got {self.frames.shape}")
        _as_finite("sequence", self.frames)

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# accumulation primitives (the order contract lives here)

#: fp32 elements of one tile of the forward hoist: whole frames of the
#: [T, rows] accumulator, few enough that a tile and its product buffer stay
#: in the L2 cache across all K column steps
HOIST_TILE_ELEMS = 96 * 1024

_ONE = ACC_DTYPE(1.0)


@contextmanager
def _one_row_ufunc_buffer(rows: int):
    """Hold numpy's ufunc buffer to at most one accumulator row of ``rows``
    elements (a multiple of 16, at least 16) for the duration.

    Both dot kernels multiply a row-long operand by a broadcast one.  With
    room for more than a row, numpy fills its buffer through strided copies
    of the operands, at 0.65-0.75 ns per element on [50, 1280] with the
    default 8192 elements; with one row it multiplies in place at 0.18-0.22
    ns (numpy 2.4.6, 2-vCPU Xeon).  A buffer's size never changes an
    elementwise result, and it is per thread, so concurrent runs do not
    see each other's.  The old size comes back in a ``finally``, which
    also scopes it on numpy 1.x, where ``errstate`` does not.
    """
    old = np.setbufsize(max(16, rows // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(old)


def accumulate_dot(acc: np.ndarray, mat: np.ndarray, vec: np.ndarray,
                   buf: np.ndarray | None = None) -> np.ndarray:
    """acc[j] += mat[j, k] * vec[k] for k ascending, one fp32 add per step.

    The products fill rows 1..K of a C-contiguous [K+1, rows] buffer under
    acc in row 0, and one reduction over the outer axis sums it: numpy adds
    whole buffer rows elementwise in ascending k, so each acc[j] sees the
    same scalar operation sequence as a naive loop and is bit-identical to
    it.  Pairwise summation only applies along a contiguous inner reduction
    axis, which is what a single-row buffer would become, so that case
    takes the running sum instead.  A caller making many calls of one shape
    may pass that buffer as ``buf``; its contents are overwritten.
    """
    rows = acc.shape[0]
    if buf is None:
        buf = np.empty((vec.shape[0] + 1, rows), dtype=ACC_DTYPE)
    buf[0] = acc
    np.multiply(mat.T, vec[:, None], out=buf[1:])
    if rows == 1:
        acc[:] = np.add.accumulate(buf, axis=0)[-1]
        return acc
    return np.add.reduce(buf, axis=0, out=acc)


def accumulate_dot_all_t(acc: np.ndarray, mat: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Batched form of accumulate_dot: acc[j, t] += mat[j, k] * frames[t, k].

    Works time-major on acc.T, a tile of whole frames at a time: within a
    tile each column step k multiplies the frames' k-th values by row k of
    mat.T and adds the product to the tile, for k ascending.  Tiling splits
    only the independent t axis, so every acc[j, t] still sees the scalar
    order of accumulate_dot.  An F-ordered acc and mat (and frames) keep
    the tile and each step's operands contiguous; any layout is correct.
    """
    acc_t, mat_t = acc.T, mat.T
    T, rows = acc_t.shape
    step = max(1, HOIST_TILE_ELEMS // rows)
    tmp = np.empty((min(step, T), rows), dtype=ACC_DTYPE)
    for t0 in range(0, T, step):
        blk = acc_t[t0:t0 + step]
        f = frames[t0:t0 + step]
        prod = tmp[:blk.shape[0]]
        for k in range(frames.shape[1]):
            np.multiply(f[:, k, None], mat_t[k], out=prod)
            np.add(blk, prod, out=blk)
    return acc


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """sigmoid of x, in place; the caller ignores exp overflow."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, _ONE, out=x)
    return np.divide(_ONE, x, out=x)


# ---------------------------------------------------------------------------
# operations

def finish_step(weights: WeightSet, z: np.ndarray, c: np.ndarray,
                h: np.ndarray) -> None:
    """One step's gates from its stacked dot products ``z`` (overwritten):
    the fp32 state ``c`` and ``h`` go from c_{t-1}, h_{t-1} to c_t, h_t in
    place (an fp16 cell rounds them through fp16).

    Each gate's preactivation is dot + peephole term + bias, in that order.
    The input, forget and output gates go through one sigmoid; on a
    peephole layer the output gate waits for c_t.  The caller has already
    read h_{t-1} and ignores exp overflow.
    """
    n = weights.layer.hidden_size
    _, _, bias = weights.stacked()
    g_t, i_t, f_t, o_t = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    if weights.layer.peephole:
        peep_if, peep_o = weights.stacked_peepholes()
        # h_{t-1} is spent: h holds each peephole product
        i_t += np.multiply(peep_if[0], c, out=h)
        f_t += np.multiply(peep_if[1], c, out=h)
        z[:3 * n] += bias[:3 * n]
        _sigmoid_(z[n:3 * n])
    else:
        z += bias
        _sigmoid_(z[n:])
    np.tanh(g_t, out=g_t)
    c *= f_t
    g_t *= i_t
    c += g_t
    if weights.layer.peephole:
        o_t += np.multiply(peep_o, c, out=h)
        o_t += bias[3 * n:]
        _sigmoid_(o_t)
    np.tanh(c, out=h)
    h *= o_t
    dt = weights.precision.storage_dtype
    if dt != ACC_DTYPE:
        c[:] = c.astype(dt)
        h[:] = h.astype(dt)


def run_direction(weights: WeightSet, frames: np.ndarray,
                  partials_hook: PartialsHook | None = None) -> np.ndarray:
    """Run one cell over frames [T, input_size]; returns h outputs [T, hidden].

    The forward dot products have no sequential dependence, so they are
    evaluated for the whole sequence first into a [4*hidden, T] accumulator
    (F-ordered, so its time-major tiles are contiguous); the time loop then
    adds the recurrent dot into each step's column, in place.  Per-scalar
    accumulation order is that of the per-timestep loop, so the hoist does
    not change a single bit.  The whole pass runs with numpy's ufunc buffer
    held to one accumulator row (see ``_one_row_ufunc_buffer``) and exp
    overflow ignored; on an fp32 cell the loop allocates nothing.
    """
    T = frames.shape[0]
    n = weights.layer.hidden_size
    wx, wh, _ = weights.stacked()

    with _one_row_ufunc_buffer(4 * n), np.errstate(over="ignore"):
        fwd = np.zeros((T, 4 * n), dtype=ACC_DTYPE).T
        accumulate_dot_all_t(fwd, wx, np.asfortranarray(frames, dtype=ACC_DTYPE))
        if partials_hook is not None:
            fwd = partials_hook(fwd)
        steps = np.ascontiguousarray(fwd.T)  # [T, 4*hidden]

        buf = np.empty((n + 1, 4 * n), dtype=ACC_DTYPE)
        c, h = np.zeros(n, dtype=ACC_DTYPE), np.zeros(n, dtype=ACC_DTYPE)
        out = np.empty((T, n), dtype=weights.precision.storage_dtype)
        for t, z in enumerate(steps):  # each step's row is its accumulator
            accumulate_dot(z, wh, h, buf)
            finish_step(weights, z, c, h)
            out[t] = h
    return out


def layer_infer(layer: LayerDescriptor, weights: list[WeightSet],
                inp: Sequence, partials_hook: PartialsHook | None = None) -> Sequence:
    """Run one layer; bidirectional layers concatenate fwd and bwd outputs."""
    if inp.dim != layer.input_size:
        raise ShapeError(f"input dim {inp.dim} != layer input_size {layer.input_size}")
    if len(weights) != layer.num_directions:
        raise ShapeError(f"layer wants {layer.num_directions} weight sets, got {len(weights)}")
    for ws in weights:
        if ws.layer != layer:
            raise ShapeError("weight set does not match the layer descriptor")
    fwd = run_direction(weights[0], inp.frames, partials_hook)
    if layer.direction is Direction.forward_only:
        return Sequence(fwd)
    bwd = run_direction(weights[1], inp.frames[::-1], partials_hook)
    # bwd[i] belongs to input frame T-1-i; flip back to frame order
    return Sequence(np.concatenate([fwd, bwd[::-1]], axis=1))


def network_infer(net: NetworkDescriptor, weights: NetworkWeights,
                  inp: Sequence) -> Sequence:
    """Fold layer_infer over the stack; returns the last hidden layer's output.
    Layer 0 refuses an input that does not match ``net.input_dim``."""
    seq = inp
    for i, layer in enumerate(net.layers):
        try:
            seq = layer_infer(layer, weights[i], seq)
        except (ShapeError, NumericError) as e:
            raise type(e)(f"layer {i}: {e}") from e
    return seq


# ---------------------------------------------------------------------------
# weight footprint helpers (shared by the schedule and traffic models)

def gate_matrix_bytes(layer: LayerDescriptor, elem_bytes: int) -> tuple[int, int]:
    """(forward matrix bytes, recurrent matrix bytes) for one gate."""
    return (layer.hidden_size * layer.input_size * elem_bytes,
            layer.hidden_size * layer.hidden_size * elem_bytes)


def gate_weight_bytes(layer: LayerDescriptor, gate: str, elem_bytes: int) -> int:
    """All weight bytes one CU holds for this gate: matrices, bias, peephole."""
    wx, wh = gate_matrix_bytes(layer, elem_bytes)
    total = wx + wh + layer.hidden_size * elem_bytes
    if layer.peephole and gate in PEEPHOLE_GATES:
        total += layer.hidden_size * elem_bytes
    return total


def cell_weight_bytes(layer: LayerDescriptor, elem_bytes: int) -> int:
    """Weight bytes of one cell (one direction of one layer)."""
    return sum(gate_weight_bytes(layer, g, elem_bytes) for g in GATES)


def network_weight_bytes(net: NetworkDescriptor) -> int:
    eb = net.numeric_precision.elem_bytes
    return sum(cell_weight_bytes(l, eb) * l.num_directions for l in net.layers)
