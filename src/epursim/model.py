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

from collections.abc import Callable, Iterable, Sequence as SequenceOf
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

GATES = ("input", "forget", "cell_updater", "output")
#: row order of a cell's stacked arrays: the three sigmoid gates follow the
#: cell updater as one contiguous block, forget before input, so that a
#: step's work row [c, g, f, i, o] pairs c with f and g with i
STACK_ORDER = ("cell_updater", "forget", "input", "output")
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

#: updates a pass's hoisted forward partials [4*hidden, T] in place to the
#: values its recurrent phase starts from (MWL stores them quantized); what
#: it returns is not read
PartialsHook = Callable[[np.ndarray], object]


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
    views of one array of the cell's values.  ``stacked`` is the four
    gates' forward matrix [4h, input_size], recurrent matrix [4h, h] and
    bias [4h], stacked row-wise in STACK_ORDER; ``peepholes`` is None, or
    on a peephole layer the input and forget gates' vectors as [2, h] and
    the output gate's [h].  An fp16 cell rounds every value through fp16
    before it is held, so its values are those fp16 storage would hold.

    Stacking is a pure row concatenation: per-row accumulation order is
    unchanged, so results are bit-identical to per-gate evaluation.  The
    matrices are stored Fortran-ordered (shape unchanged), so a column
    mat[:, k] and the transpose the dot kernels stream are contiguous.
    """

    def __init__(self, layer: LayerDescriptor, precision: Precision,
                 value_of: Callable[[str, tuple[int, ...]], np.ndarray],
                 store: np.ndarray | None = None):
        """The weight set whose arrays are ``value_of(name, shape)``, asked
        for one at a time in the order of ``parts``, held in ``store``: a
        contiguous fp32 array of ``cell_weight_bytes(layer, 1)`` values (a
        new one if None).  NumericError names an array that is not finite
        at storage precision."""
        self.layer = layer
        self.precision = precision
        h, nx = layer.hidden_size, layer.input_size
        if store is None:
            store = np.empty(cell_weight_bytes(layer, 1), ACC_DTYPE)
        # the [4h, K] matrices are Fortran-ordered: each is the transpose
        # of a C-ordered [K, 4h] run of the store, which the kernels stream
        wh_at, b_at, p_at = 4 * h * nx, 4 * h * (nx + h), 4 * h * (nx + h + 1)
        self.stacked = (store[:wh_at].reshape(nx, 4 * h).T,
                        store[wh_at:b_at].reshape(h, 4 * h).T,
                        store[b_at:p_at])
        peep = store[p_at:p_at + 3 * h].reshape(-1, h)  # no rows without peepholes
        self.peepholes = (peep[:2], peep[2]) if layer.peephole else None
        dt = precision.storage_dtype
        for name, dst in self.parts():
            src = np.asarray(value_of(name, dst.shape))
            if src.shape != dst.shape:
                raise ShapeError(f"{name} has shape {src.shape}, want {dst.shape}")
            if src.dtype != dt:
                src = src.astype(dt)  # an fp16 cell rounds each value to fp16
            # checked before the copy, on contiguous values, not on the
            # strided rows they go to
            _as_finite(name, src)
            # copying row-major values into Fortran-ordered rows transposes
            # them; blocks of 64 rows keep it in cache, 2-4x faster than
            # one whole-array copy
            for r in range(0, len(dst), 64):
                dst[r:r + 64] = src[r:r + 64]

    def parts(self) -> list[tuple[str, np.ndarray]]:
        """Every weight array as (name, its rows of the stacked fp32 arrays),
        in weight-blob order: gates as GATES; within a gate ``w_x``, ``w_h``,
        ``bias``, then on a peephole layer the ``peephole`` vector.  A name
        is ``"{gate}.{field}"``; a gate's rows are where STACK_ORDER puts
        them."""
        h = self.layer.hidden_size
        wx, wh, b = self.stacked
        peeps = {}
        if self.peepholes is not None:
            peep_if, peep_o = self.peepholes
            peeps = dict(zip(PEEPHOLE_GATES, (*peep_if, peep_o)))
        out = []
        for g in GATES:
            i = STACK_ORDER.index(g)
            rows = slice(i * h, (i + 1) * h)
            out += [(f"{g}.w_x", wx[rows]), (f"{g}.w_h", wh[rows]), (f"{g}.bias", b[rows])]
            if g in peeps:
                out.append((f"{g}.peephole", peeps[g]))
        return out


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

_ONE = ACC_DTYPE(1.0)


def _einsum_tile(out: np.ndarray, frames: np.ndarray, mat_t: np.ndarray) -> None:
    """out [t, rows] = frames [t, K] @ mat_t [K, rows], each sum from +0.0
    in ascending k."""
    np.einsum("tk,kj->tj", frames, mat_t, out=out)


def _multiply_add_tile(out: np.ndarray, frames: np.ndarray, mat_t: np.ndarray) -> None:
    """``_einsum_tile`` as column steps: each step k multiplies the frames'
    k-th values by row k of mat_t and adds the product to out."""
    out[...] = 0.0
    prod = np.empty_like(out)
    for k in range(frames.shape[1]):
        np.multiply(frames[:, k, None], mat_t[k], out=prod)
        np.add(out, prod, out=out)


def _hoist_tiles(out: np.ndarray, mat_t: np.ndarray, frames: np.ndarray,
                 step: int, kernel) -> None:
    """out [T, rows] = frames [T, K] @ mat_t [K, rows], ``step`` whole
    frames at a time: ``kernel(out_tile, frames_tile, mat_t)`` gets each
    tile of frames copied at fp32 into one F-ordered buffer, so the frame
    axis has the smaller stride.  One buffer per call, rather than a copy
    per tile, kept the caller's peak RSS from rising."""
    buf = np.empty((frames.shape[1], min(step, out.shape[0])), ACC_DTYPE).T
    for t0 in range(0, out.shape[0], step):
        tile = slice(t0, t0 + step)
        f = buf[:len(out[tile])]
        f[...] = frames[tile]
        kernel(out[tile], f, mat_t)


def _einsum_adds_in_order() -> bool:
    """Whether ``np.einsum`` (without ``optimize``) sums both kernels'
    subscripts as a scalar loop does on this numpy build: per output
    element, k ascending, each product rounded to fp32 before its add.

    Two sums, each over accumulator rows of two 64-element SIMD blocks and
    a ragged tail of 3, for both subscripts; every result must be 0.  The
    hoist's subscript runs as the kernel runs it (``_hoist_tiles``): three
    frames in tiles of two, F-ordered, against the C-ordered matrix.
    With a = 1 + 2**-12, fp32 rounds a*a to 1 + 2**-11, so -(1 + 2**-11) +
    a*a is 0, but a fused multiply-add keeps the product's 2**-24.  In 1e8
    + 1 + ... + 1 - 1e8, each 1e8 + 1 rounds back to 1e8, so only an
    ascending running sum ends at 0.
    """
    a = 1 + 2.0 ** -12
    for left, right in [([-(1 + 2.0 ** -11), a], [1.0, a]),
                        ([1e8] + [1.0] * 298 + [-1e8], [1.0] * 300)]:
        mat_t = np.repeat(np.array(left, ACC_DTYPE)[:, None], 2 * 64 + 3, axis=1)
        vec = np.array(right, ACC_DTYPE)
        hoist = np.empty((3, mat_t.shape[1]), ACC_DTYPE)
        _hoist_tiles(hoist, mat_t, np.tile(vec, (3, 1)), 2, _einsum_tile)
        if np.einsum("kj,k->j", mat_t, vec).any() or hoist.any():
            return False
    return True


@contextmanager
def _one_row_ufunc_buffer(rows: int):
    """Hold numpy's ufunc buffer to at most one accumulator row of ``rows``
    elements (a multiple of 16, at least 16) for the duration.

    Both multiply-and-add kernels multiply a row-long operand by a
    broadcast one.  With room for more than a row, numpy fills its buffer
    through strided copies of the operands, at 0.65-0.75 ns per element on
    [50, 1280] with the default 8192 elements; with one row it multiplies
    in place at 0.18-0.22 ns (numpy 2.4.6, 2-vCPU Xeon).  A buffer's size never changes an
    elementwise result, and it is per thread, so concurrent runs do not
    see each other's.  The old size comes back in a ``finally``, which
    also scopes it on numpy 1.x, where ``errstate`` does not.
    """
    old = np.setbufsize(max(16, rows // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(old)


#: fp32 elements of one tile of the multiply-and-add forward hoist: whole
#: frames of the [T, rows] accumulator, few enough that a tile and its
#: product buffer stay in the L2 cache across all K column steps
HOIST_TILE_ELEMS = 96 * 1024

#: one tile of the einsum forward hoist, as (fewest whole frames, fp32
#: elements of the [T, rows] accumulator): as many frames as fill 32 KiB of
#: a 48 KiB L1d cache, and never fewer than 8.  A tile's frames are read
#: F-ordered, so einsum loops k, t, j: each row of the [K, rows] matrix is
#: read once per tile and used for all its frames, where C-ordered frames
#: stream the whole matrix per frame (3.3 MB at EESEN's layers 1-4, beyond
#: a 2 MiB L2).  Hoist time against untiled C-ordered frames (numpy 2.4.6,
#: 2-vCPU Xeon): [50 x 640 -> 1280] 0.69-0.78x, [50 x 320 -> 1280]
#: 0.86-1.00x, [2000 x 128 -> 512] 0.85-0.97x, where untiled F-ordered
#: frames take 1.28-1.38x; at 4096 rows 2-frame tiles give 0.89-0.95x and
#: 8-frame ones 0.75-0.83x, hence the floor.
EINSUM_TILE = 8, 8 * 1024

#: both dot kernels run on np.einsum (True) or, where einsum's order failed
#: the probe at import, multiply into a product buffer and add (False)
EINSUM_IN_ORDER = _einsum_adds_in_order()


def dot_operands(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``accumulate_dot`` reads for ``mat`` [rows, K], for a caller
    making many calls with one matrix: a C-contiguous [K+1, rows] array
    whose rows 1..K hold mat.T, and a [K+1] vector, 1 followed by zeros.
    Each call writes its accumulator into row 0 and its vector into
    elements 1..K; the multiply-and-add kernel also writes its products
    into rows 1..K."""
    rows, k = mat.shape
    mat_t = np.empty((k + 1, rows), dtype=ACC_DTYPE)
    mat_t[1:] = mat.T
    vec = np.zeros(k + 1, dtype=ACC_DTYPE)
    vec[0] = _ONE
    return mat_t, vec


def accumulate_dot(acc: np.ndarray, mat: np.ndarray, vec: np.ndarray,
                   operands: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> np.ndarray:
    """out[j] = acc[j] plus mat[j, k] * vec[k] for k ascending, one fp32
    add per step; acc is left as it was.

    It is ``einsum("kj,k->j", M, v, out=out)`` on ``operands``, the
    ``dot_operands(mat)`` of a caller making many calls with one matrix,
    with acc in row 0 of M and vec in v[1:] (vec may be a view of v[1:]):
    einsum keeps no product array and, per element, adds the rounded
    products in ascending k to the 0.0 it fills ``out`` with, first
    1 * acc[j].  That first add keeps every value but -0.0, which becomes
    +0.0, so acc must hold no -0.0.  The datapath never makes one: its sums
    start from +0.0, and the quantizer reads code 0 back as +0.0.

    acc must have two rows or more (ShapeError): einsum sums the k axis of
    a single row with SIMD partial sums.  The datapath's accumulators have
    4h rows.  A build that failed the import probe (``EINSUM_IN_ORDER``)
    takes the multiply-and-add form instead: the products fill rows 1..K of
    M under acc, and a reduction over the outer axis adds them, which numpy
    performs as K elementwise row additions in ascending k.
    """
    if len(acc) < 2:
        raise ShapeError(f"accumulate_dot needs two accumulator rows or more, got {len(acc)}")
    mat_t, v = operands
    v[1:] = vec
    mat_t[0] = acc
    if EINSUM_IN_ORDER:
        return np.einsum("kj,k->j", mat_t, v, out=out)
    np.multiply(mat.T, v[1:, None], out=mat_t[1:])
    return np.add.reduce(mat_t, axis=0, out=out)


def accumulate_dot_all_t(acc: np.ndarray, mat: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Batched form of accumulate_dot that overwrites acc: acc[j, t] is the
    sum of mat[j, k] * frames[t, k] for k ascending, from +0.0.

    acc.T and mat.T must be C-contiguous (ShapeError), as run_direction's
    [T, 4h] partials and F-ordered forward matrix give them.  It is
    ``einsum("tk,kj->tj", frames, mat.T, out=acc.T)``, a tile of whole
    frames at a time (``EINSUM_TILE``), the tile's frames copied F-ordered:
    for every (t, j) einsum adds the rounded products in ascending k into
    the zero-filled ``out``.  A single-row accumulator and a build that
    failed the probe take column steps on the same tiles instead
    (``HOIST_TILE_ELEMS``).  Tiling splits only the independent t axis, so
    every acc[j, t] still sees the order of a scalar loop.
    """
    acc_t, mat_t = acc.T, mat.T
    if not (acc_t.flags.c_contiguous and mat_t.flags.c_contiguous):
        raise ShapeError("accumulate_dot_all_t needs a C-contiguous acc.T and mat.T")
    T, rows = acc_t.shape
    if EINSUM_IN_ORDER and rows > 1:
        fewest, elems = EINSUM_TILE
        step, kernel = max(fewest, elems // rows), _einsum_tile
    else:
        step, kernel = max(1, HOIST_TILE_ELEMS // rows), _multiply_add_tile
    _hoist_tiles(acc_t, mat_t, frames, step, kernel)
    return acc


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """sigmoid of x, in place; the caller ignores exp overflow."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, _ONE, out=x)
    return np.divide(_ONE, x, out=x)


# ---------------------------------------------------------------------------
# operations

def prepare_step(weights: WeightSet, row: np.ndarray, h: np.ndarray) -> tuple:
    """What ``finish_step`` reads at every step of one pass of ``weights``,
    made once per pass: views of the fp32 work row ``row`` of 5h values
    (the cell state c, then the step's four dot products in STACK_ORDER:
    g, f, i, o), of the bias and of the peepholes, the fp32 ``h``, and the
    storage dtype of an fp16 cell (None for fp32)."""
    n = weights.layer.hidden_size
    _, _, bias = weights.stacked
    dt = weights.precision.storage_dtype
    state = (row[n:2 * n], row[4 * n:], row[:2 * n].reshape(2, n),
             row[2 * n:4 * n].reshape(2, n), row[:n], h, None if dt == ACC_DTYPE else dt)
    if not weights.layer.peephole:
        # the output gate joins the others' bias add and sigmoid
        return (row[n:], bias, row[2 * n:], None, *state)
    peep_if, peep_o = weights.peepholes
    # the stored (input, forget) vectors, reversed to the row's (f, i)
    peep = (peep_if[::-1], np.empty((2, n), ACC_DTYPE), peep_o, bias[3 * n:])
    return (row[n:4 * n], bias[:3 * n], row[2 * n:4 * n], peep, *state)


def finish_step(step: tuple) -> None:
    """One step's gates from its stacked dot products in the work row of
    ``step`` (see ``prepare_step``; the row is overwritten): the fp32 state
    c, held in the row, and h go from c_{t-1}, h_{t-1} to c_t, h_t in
    place (an fp16 cell rounds them through fp16).

    Each gate's preactivation is dot + peephole term + bias, in that order.
    The input, forget and output gates go through one sigmoid; on a
    peephole layer the output gate waits for c_t.  c_t is c_{t-1} * f +
    g * i, as one multiply of [c, g] by [f, i] and one add.  The caller has
    already read h_{t-1} and ignores exp overflow.
    """
    z, bias, sigmoid_gates, peep, g_t, o_t, cg, fi, c, h, dt = step
    if peep is not None:
        peep_fi, products, peep_o, bias_o = peep
        fi += np.multiply(peep_fi, c, out=products)
    z += bias
    _sigmoid_(sigmoid_gates)
    np.tanh(g_t, out=g_t)
    cg *= fi
    c += g_t
    if peep is not None:
        # h_{t-1} is spent: h holds the peephole product
        o_t += np.multiply(peep_o, c, out=h)
        o_t += bias_o
        _sigmoid_(o_t)
    np.tanh(c, out=h)
    h *= o_t
    if dt is not None:
        c[:] = c.astype(dt)
        h[:] = h.astype(dt)


def run_direction(weights: WeightSet, frames: np.ndarray,
                  partials_hook: PartialsHook | None = None) -> np.ndarray:
    """Run one cell over frames [T, input_size]; returns h outputs [T, hidden].

    The forward dot products have no sequential dependence, so they are
    evaluated for the whole sequence first into a C-ordered [T, 4*hidden]
    array, which the hook updates in place; the time loop then adds the
    recurrent dot to each step's row into the dot products of one work
    row, which also holds c.  Per-scalar accumulation order is that of the
    per-timestep loop, so the hoist does not change a single bit.  What a
    step reads is set up once per pass (``prepare_step``), and h lives in
    the recurrent dot's operand vector, so each step writes h_t where the
    next dot reads it.  Exp overflow is ignored; on an fp32 cell the loop
    allocates nothing.  The multiply-and-add kernels run with numpy's ufunc
    buffer held to one accumulator row (see ``_one_row_ufunc_buffer``).
    """
    T = frames.shape[0]
    n = weights.layer.hidden_size
    wx, wh, _ = weights.stacked

    # einsum needs no ufunc buffer; the multiply-and-add kernels want one row
    buffer = nullcontext() if EINSUM_IN_ORDER else _one_row_ufunc_buffer(4 * n)
    with buffer, np.errstate(over="ignore"):
        steps = np.empty((T, 4 * n), dtype=ACC_DTYPE)
        accumulate_dot_all_t(steps.T, wx, frames)
        if partials_hook is not None:
            partials_hook(steps.T)

        operands = dot_operands(wh)
        h = operands[1][1:]  # h_0 = 0
        row = np.zeros(5 * n, dtype=ACC_DTYPE)  # c_0 = 0
        dots = row[n:]
        step = prepare_step(weights, row, h)
        out = np.empty((T, n), dtype=weights.precision.storage_dtype)
        for t, partials in enumerate(steps):
            accumulate_dot(partials, wh, h, operands, dots)
            finish_step(step)
            out[t] = h
    return out


def _check_layer(layer: LayerDescriptor, weights: list[WeightSet | None],
                 input_dim: int) -> None:
    """ShapeError unless ``weights`` (None for a direction another process
    reads) are ``layer``'s and an input of ``input_dim`` fits it."""
    if input_dim != layer.input_size:
        raise ShapeError(f"input dim {input_dim} != layer input_size {layer.input_size}")
    if len(weights) != layer.num_directions:
        raise ShapeError(f"layer wants {layer.num_directions} weight sets, got {len(weights)}")
    for ws in weights:
        if ws is not None and ws.layer != layer:
            raise ShapeError("weight set does not match the layer descriptor")


#: one direction of one run of a ``network_infer`` call: (direction, run)
Lane = tuple[int, int]

#: what a ``network_infer`` call gives for each run: its output, the error it
#: failed with, or None (stopped after an earlier run failed, or not run)
Outcome = Sequence | Exception | None


class Swap:
    """Where the lanes of a ``network_infer`` call meet after each layer.

    This one holds every lane of every run in one process, so each run's
    layer output is whole where its lanes write it, and nothing is
    exchanged (``cli`` cuts the lanes across processes with a swap of its
    own).  ``lanes`` are the lanes this process runs, direction-major.
    """

    def __init__(self, lanes: list[Lane]):
        self.lanes = lanes

    def output(self, i: int, run: int, shape: tuple[int, int]) -> np.ndarray:
        """The fp32 array that ``run``'s layer-``i`` output is written into."""
        return np.empty(shape, ACC_DTYPE)

    def exchange(self, i: int, stop: int) -> int | None:
        """After this process's lanes of layer ``i``: ``stop`` (the lowest
        run it knows to have failed, or the run count), lowered to the
        lowest that the process sharing its runs knows of, once that
        process's halves of layer ``i`` are written; None if it ended."""
        return stop

    def settle(self, outcomes: list[Outcome]) -> list[Sequence]:
        """The call's result: here, its outputs, or the first failing
        run's error raised."""
        return settle([outcomes])


def settle(groups: list[list[Outcome]]) -> list[Sequence]:
    """Each run's output, from the ``network_infer`` outcomes of the groups
    of lanes that ran it, in the order of the cut.  Raises the first failing
    run's error: runs in order, and within a run the first group's."""
    outputs = []
    for outcomes in zip(*groups, strict=True):
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        outputs.append(next(o for o in outcomes if o is not None))
    return outputs


def network_infer(net: NetworkDescriptor, weights: Iterable[list[WeightSet | None]],
                  inp: Sequence, hooks: SequenceOf[PartialsHook | None] = (None,),
                  swap: Swap | None = None) -> list[Sequence]:
    """The last hidden layer's output of ``inp`` per partials hook (or None),
    the runs in lockstep, one lane (one direction of one run) at a time:
    every lane of ``swap`` (all of them without one) passes through layer i
    before layer i+1's weight sets are taken from ``weights`` (a
    NetworkWeights, or a ``netio.WeightStream`` read, which reads a layer
    only when it is reached and may leave None for a direction no lane
    here runs).  Layer i+1 is taken before the swap waits for the other
    processes' halves of layer i, so the read fills that wait.

    An error names its layer (layer 0 refuses an input that does not match
    ``net.input_dim``).  A failed run stops, and so do the runs after it.
    An error of ``weights`` itself (a short blob, a non-finite weight) is
    raised as soon as it is met, unprefixed.  The result is
    ``swap.settle`` of each run's outcome: without a swap, the outputs, or
    the first failing run's error in hook order, raised once every layer is
    taken.
    """
    if swap is None:
        directions = max(layer.num_directions for layer in net.layers)
        swap = Swap([(d, r) for d in range(directions) for r in range(len(hooks))])
    T = inp.length
    held = sorted({r for _, r in swap.lanes})
    seqs = dict.fromkeys(held, inp)
    outcomes: list[Outcome] = [None] * len(hooks)
    stop = len(hooks)  # the lowest failed run: it and the runs after it stop
    last = len(net.layers) - 1
    layers = zip(net.layers, weights, strict=True)
    step = next(layers)
    for i in range(last + 1):
        layer, sets = step
        h = layer.hidden_size
        outs = {}  # each run's output, asked of the swap once a pass is done

        def output(r: int) -> np.ndarray:
            if r not in outs:
                outs[r] = swap.output(i, r, (T, layer.output_size))
            return outs[r]

        for d, r in swap.lanes:
            if r >= stop or d >= layer.num_directions:
                continue
            # the backward direction runs over the frames reversed, and its
            # outputs flip back to frame order
            order = slice(None, None, -1 if d else 1)
            try:
                try:
                    _check_layer(layer, sets, seqs[r].dim)
                    output(r)[:, d * h:(d + 1) * h] = run_direction(
                        sets[d], seqs[r].frames[order], hooks[r])[order]
                except (ShapeError, NumericError) as e:
                    raise type(e)(f"layer {i}: {e}") from e
            except Exception as e:  # the run's outcome
                outcomes[r], stop = e, r
        step = next(layers, None)
        stop = swap.exchange(i, stop)
        if stop is None:  # a peer ended: its error is the one raised
            return outcomes
        for r in held:
            if r < stop:
                try:
                    seqs[r] = Sequence(output(r) if i < last
                                       else output(r).astype(net.numeric_precision.storage_dtype))
                except NumericError as e:
                    outcomes[r], stop = NumericError(f"layer {i}: {e}"), r
    for r in held:
        if r < stop:
            outcomes[r] = seqs[r]
    return swap.settle(outcomes)


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
