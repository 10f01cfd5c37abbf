"""Deployment lowering: branch-free static graphs + a standalone interpreter.

``export`` lowers a deploy-variant model to a topologically ordered,
fixed-shape op list that computes what the deploy tape forward does.
Each node is named by the tape op whose private shape rule and forward
kernel in ``ops`` (or ``spline``) it shares: ``_infer_shape`` calls the
rule and ``Session`` the kernel, into its own buffers.  Every conv is
one CONV2D node, its bias a third input and its ReLU and 2x2 max-pool
attributes.  A spline layer is a SPLINE_BASIS node, holding the grid's
coefficient table as a constant, plus the silu path.  The quadrant mean
moves in front of the linear ``res``, dilated and ``reduce`` convs: one
MATMUL pair computes the tap means of all four
(``model.quadrant_tap_grid``), and each is a SLICE and a CONV2D at
stride k.  The ring means are two MATMULs on one averaging matrix.

The ``.kfg`` file ("KFG1", version 6) is the ``.kfc`` container
(``tensor.write_container``): a JSON header of inputs ``[[name,
shape]]``, nodes ``[[op name, attrs, inputs]]`` and outputs ``[[name,
value id]]``, then the constants as tensors named by their value ids,
which follow the inputs'; node outputs take the ids after them.  It
round-trips bit-exactly.  A ``StaticGraph`` is frozen and validates
every shape and every constant the interpreter indexes by once, in its
constructor.  Its constants are read-only: a constant that is an
aligned, read-only float32 view of a ``bytes`` object is kept as it
is, so ``load_graph`` of a ``bytes`` payload copies none of them, and
every other constant is copied.  A ``Session`` allocates one buffer
when it is created, planned by lifetime: node outputs and node scratch
share its bytes wherever their lives do not meet.  A CONV2D runs
``ops._conv_forward`` on its ``ops._conv_plan`` for ``ops.WORKERS``
workers, whose block views are built when the session is created: at
batch 1 of the full-size graph, strips of output rows on two cores,
whose columns fit a worker's share of ``SESSION_STRIP_BYTES``.  A
CONV2D without the pool that the graph does not return and whose one
reader is a stride-1 CONV2D has no buffer: its reader's node streams
it in row bands into its own strips (``ops._stream_forward``), so the
full-size graph keeps no conv1 map and no padded copy of the image,
and its buffer is 2,241,536 bytes.  A warm ``run`` allocates only its
output copies, as ``bench`` measures with tracemalloc.
"""

from __future__ import annotations

import bisect
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ExportError, GraphError, ShapeError
from .model import (ATTN_CHANNEL, FLAT_SEQ, IMG_CHANNELS, LstmLayer,
                    _ring_mean_matrix, quadrant_tap_grid)
from .ops import (WORKERS, _axis, _broadcast, _concat_shape, _conv2d_shape,
                  _conv_forward, _conv_plan, _matmul_shape, _mean_shape,
                  _one_blas_thread, _require, _silu, _softmax, _stream_forward,
                  _stream_plan)
from .spline import KanLinear, _horner_basis, _horner_scratch
from .tape import Tape
from .tensor import read_container, write_container

MAGIC = b"KFG1"
VERSION = 6   # older files need a re-export from their .kfc checkpoint
MAX_RANK = 32   # numpy 1.x's array rank limit
_ALIGN = 64   # byte alignment of every view of a Session's buffer
# a Session's conv columns per block, shared by its workers (the tape
# plans at ops.STRIP_BYTES), and by both convs of a streamed pair.  The
# full-size graph's buffer is 2,241,536 bytes at 1 MiB, its peak at
# conv2's node: the two workers' bands and block buffers (731,264 bytes
# each, 508,800 of them a 4-row conv1 block's columns) and conv2's
# pooled output
SESSION_STRIP_BYTES = 2**20

# node ops, each named by the tape op whose shape rule and kernel it
# shares
CONV2D, RELU, SILU, TANH, SLICE, CONCAT, RESHAPE, TRANSPOSE, MATMUL, MUL, \
    ADD, SOFTMAX, MEAN, SPLINE_BASIS = (
        "conv2d", "relu", "silu", "tanh", "slice", "concat", "reshape",
        "transpose", "matmul", "mul", "add", "softmax", "mean",
        "bspline_basis")
# pools are no node op (the 2x2 max-pool is a CONV2D attribute), so
# loading a node of either is an unknown op; bench/layers.py names both
MAXPOOL2D, AVGPOOL2D = "maxpool2d", "avgpool2d"

# (input count, attr count) of each op; None: any count
_ARITY = {
    CONV2D: (3, 5), RELU: (1, 0), SILU: (1, 0), TANH: (1, 0), SLICE: (1, None),
    CONCAT: (None, 1), RESHAPE: (1, None), TRANSPOSE: (1, None),
    MATMUL: (2, 0), MUL: (2, 0), ADD: (2, 0), SOFTMAX: (1, 1), MEAN: (1, 1),
    SPLINE_BASIS: (3, 0),
}


# ---------------------------------------------------------------------------
# graph structure


@dataclass(frozen=True)
class GraphNode:
    op: str
    attrs: tuple[int, ...]
    inputs: tuple[int, ...]
    output: int


@dataclass(frozen=True, eq=False)
class StaticGraph:
    """A graph that is valid by construction: the constructor checks
    every shape and every constant the interpreter indexes by, raising
    GraphError, and keeps each value's shape in ``shapes``.  Constant i,
    read-only float32, is value id len(inputs) + i: the array given when
    it is a frozen view of a ``bytes`` object, else a copy."""

    inputs: tuple[tuple[str, tuple[int, ...]], ...]
    constants: tuple[np.ndarray, ...]
    nodes: tuple[GraphNode, ...]
    outputs: tuple[tuple[str, int], ...]
    shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        constants = tuple(arr if _frozen_view(arr)
                          else np.array(arr, order="C")
                          for arr in self.constants)
        if any(arr.dtype != np.float32 for arr in constants):
            raise GraphError("graph constants must be float32")
        for arr in constants:
            arr.flags.writeable = False
        inputs = tuple((name, tuple(shape)) for name, shape in self.inputs)
        for name, value in (("inputs", inputs), ("constants", constants),
                            ("nodes", tuple(self.nodes)),
                            ("outputs", tuple(self.outputs))):
            object.__setattr__(self, name, value)

        names = [name for name, _ in inputs]
        if len(set(names)) != len(names):
            raise GraphError(f"duplicate input names {names}")
        shapes = [_checked_shape(shape, f"input {i}")
                  for i, (_, shape) in enumerate(inputs)]
        shapes += [_checked_shape(arr.shape, f"constant {vid}")
                   for vid, arr in enumerate(constants, len(inputs))]
        for n, node in enumerate(self.nodes):
            if node.output != len(shapes):
                raise GraphError("node outputs must be contiguous and ordered")
            for j in node.inputs:
                if not 0 <= j < node.output:
                    raise GraphError(
                        f"node {n} ({node.op}) reads undefined value {j}")
            try:
                shape = _infer_shape(node, [shapes[j] for j in node.inputs])
                if node.op == SPLINE_BASIS:
                    _check_spline_constants(node, self)
            except (ShapeError, GraphError) as exc:
                raise GraphError(f"node {n} ({node.op}): {exc}") from exc
            shapes.append(_checked_shape(shape, f"node {n} output"))
        for _, vid in self.outputs:
            if not 0 <= vid < len(shapes):
                raise GraphError(f"output value {vid} undefined")
        object.__setattr__(self, "shapes", tuple(shapes))

    @property
    def n_values(self) -> int:
        return len(self.inputs) + len(self.constants) + len(self.nodes)

    def parameter_count(self) -> int:
        return int(sum(c.size for c in self.constants))


def _frozen_view(arr) -> bool:
    """arr is an aligned, C-contiguous float32 view of a bytes object
    through no writeable array, so nothing can change its data."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float32
            and arr.flags.c_contiguous and arr.flags.aligned):
        return False
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return type(base) is bytes


def _checked_shape(shape: tuple[int, ...], what: str) -> tuple[int, ...]:
    if len(shape) > MAX_RANK or min(shape, default=1) < 1:
        raise GraphError(f"{what} has unsupported shape {shape}")
    return shape


def _check_spline_constants(node: GraphNode, graph: StaticGraph) -> None:
    """The interpreter indexes the coefficient rows by the meta constant:
    both must be constants, the meta finite, with step > 0 and
    n_intervals equal to the number of coefficient rows."""
    ids = [j - len(graph.inputs) for j in node.inputs[1:]]
    if not all(0 <= i < len(graph.constants) for i in ids):
        raise GraphError("spline coefficients and meta must be constants")
    coeffs, meta = (graph.constants[i] for i in ids)
    lo, step, n_int = (float(v) for v in meta)
    if not (math.isfinite(lo) and math.isfinite(step) and step > 0
            and n_int == coeffs.shape[0]):
        raise GraphError(
            f"spline meta [lo={lo}, step={step}, n_intervals={n_int}] "
            f"invalid for {coeffs.shape[0]} coefficient rows")


def _infer_shape(node: GraphNode, in_shapes) -> tuple[int, ...]:
    op, attrs = node.op, node.attrs
    if op not in _ARITY:
        raise GraphError(f"unknown op {op!r}")
    n_in, n_attrs = _ARITY[op]
    _require(len(in_shapes) == n_in if n_in else len(in_shapes) >= 1,
          f"takes {n_in or 'at least 1'} inputs, got {len(in_shapes)}")
    _require(n_attrs is None or len(attrs) == n_attrs,
          f"takes {n_attrs} attrs, got {len(attrs)}")
    if op == CONV2D:
        _require(attrs[3] in (0, 1) and attrs[4] in (0, 1),
                 f"conv relu and pool flags {attrs[3:]} must be 0 or 1")
        return _conv2d_shape(*in_shapes, *attrs[:3], attrs[4])
    if op == SOFTMAX:
        _axis(attrs[0], len(in_shapes[0]))
    if op in (RELU, SILU, TANH, SOFTMAX):
        return in_shapes[0]
    if op == MEAN:
        return _mean_shape(in_shapes[0], attrs[0])
    if op == SLICE:
        x = in_shapes[0]
        if len(attrs) != 2 * len(x):
            raise ShapeError("slice attrs must give begin/end per axis")
        out = []
        for a in range(len(x)):
            b, e = attrs[2 * a], attrs[2 * a + 1]
            if not (0 <= b < e <= x[a]):
                raise ShapeError(f"slice [{b}:{e}] out of bounds on axis {a}")
            out.append(e - b)
        return tuple(out)
    if op == CONCAT:
        return _concat_shape(in_shapes, attrs[0])
    if op == RESHAPE:
        if math.prod(attrs) != math.prod(in_shapes[0]):
            raise ShapeError(f"reshape {in_shapes[0]} -> {attrs}")
        return tuple(attrs)
    if op == TRANSPOSE:
        x = in_shapes[0]
        if sorted(attrs) != list(range(len(x))):
            raise ShapeError("transpose perm invalid")
        return tuple(x[a] for a in attrs)
    if op == MATMUL:
        return _matmul_shape(*in_shapes)
    if op in (MUL, ADD):
        return _broadcast(*in_shapes)
    # SPLINE_BASIS
    x, coeffs, meta = in_shapes
    _require(len(coeffs) == 3,
          "spline coefficients must be [intervals, bases, order + 1]")
    _require(meta == (3,),
             "spline meta constant must be [lo, step, n_intervals]")
    return tuple(x) + (coeffs[1],)


# ---------------------------------------------------------------------------
# serialization


def save_graph(graph: StaticGraph) -> bytes:
    header = {
        "inputs": [[name, [int(d) for d in shape]]
                   for name, shape in graph.inputs],
        "nodes": [[n.op, [int(a) for a in n.attrs],
                   [int(j) for j in n.inputs]] for n in graph.nodes],
        "outputs": [[name, int(vid)] for name, vid in graph.outputs],
    }
    return write_container(MAGIC, VERSION, header, {
        str(vid): arr
        for vid, arr in enumerate(graph.constants, len(graph.inputs))})


def _int(value, lo: int, hi: int) -> int:
    if type(value) is not int or not lo <= value < hi:
        raise GraphError(f"{value!r} is not an int in [{lo}, {hi})")
    return value


def _ints(values, lo: int, hi: int) -> tuple[int, ...]:
    """A JSON list of ints in [lo, hi), as a tuple."""
    if type(values) is not list:
        raise GraphError(f"expected a list of ints, got {values!r}")
    for v in values:
        if type(v) is not int or not lo <= v < hi:
            raise GraphError(f"{v!r} is not an int in [{lo}, {hi})")
    return tuple(values)


def _name(value) -> str:
    if type(value) is not str:
        raise GraphError(f"expected a name, got {value!r}")
    return value


def load_graph(data: bytes) -> StaticGraph:
    """Parse a serialized graph; constructing it validates it.

    The header must hold exactly the inputs, nodes and outputs: names
    and op names are strings, extents and value ids u32s and attrs
    int64s; the constants must be float32 tensors named by consecutive
    value ids after the inputs, and node outputs follow them in order.
    """
    try:
        header, tensors = read_container(
            data, MAGIC, VERSION,
            "; re-export the graph from its .kfc checkpoint")
    except DataError as exc:
        raise GraphError(f"invalid graph payload: {exc}") from exc
    if type(header) is not dict or header.keys() != {"inputs", "nodes",
                                                      "outputs"}:
        raise GraphError("graph header must hold exactly inputs, nodes and "
                         "outputs")
    try:
        inputs = [(_name(name), _ints(shape, 0, 2**32))
                  for name, shape in header["inputs"]]
        base = len(inputs) + len(tensors)
        nodes = [GraphNode(_name(op), _ints(attrs, -2**63, 2**63),
                           _ints(ins, 0, 2**32), base + i)
                 for i, (op, attrs, ins) in enumerate(header["nodes"])]
        outputs = [(_name(name), _int(vid, 0, 2**32))
                   for name, vid in header["outputs"]]
    except (TypeError, ValueError) as exc:   # entries of the wrong form
        raise GraphError(f"malformed graph header: {exc}") from exc
    if list(tensors) != [str(len(inputs) + i) for i in range(len(tensors))]:
        raise GraphError("constants must be named by consecutive value ids "
                         f"from {len(inputs)}")
    return StaticGraph(inputs, tuple(tensors.values()), nodes, outputs)


# ---------------------------------------------------------------------------
# export


class _Builder:
    """Collects inputs, constants and nodes under provisional ids in the
    order they are made; ``finish`` renumbers them into a graph."""

    def __init__(self):
        self.inputs: list[tuple[str, tuple[int, ...]]] = []
        self.constants: list[tuple[int, np.ndarray]] = []
        self.nodes: list[GraphNode] = []
        self._next = 0

    def _id(self) -> int:
        self._next += 1
        return self._next - 1

    def input(self, name, shape):
        self.inputs.append((name, shape))
        return self._id()

    def const(self, arr):
        self.constants.append((self._next, np.asarray(arr, dtype=np.float32)))
        return self._id()

    def node(self, op, attrs, inputs):
        vid = self._id()
        self.nodes.append(GraphNode(op, tuple(int(a) for a in attrs),
                                    tuple(inputs), vid))
        return vid

    def finish(self, outputs) -> StaticGraph:
        # renumber so constants sit between inputs and nodes
        order = [*range(len(self.inputs)),
                 *(vid for vid, _ in self.constants),
                 *(n.output for n in self.nodes)]
        remap = {old: new for new, old in enumerate(order)}
        nodes = [GraphNode(n.op, n.attrs, tuple(remap[j] for j in n.inputs),
                           remap[n.output]) for n in self.nodes]
        outs = [(name, remap[vid]) for name, vid in outputs]
        return StaticGraph(self.inputs, [arr for _, arr in self.constants],
                           nodes, outs)


def _lower_dense(b: _Builder, layer, x_id, coeff_cache, n=1):
    """Lower a KanLinear or LinearBlock applied to a 2-d value of n rows."""
    if isinstance(layer, KanLinear):
        grid = layer.grid
        key = (grid.grid_size, grid.spline_order)
        if key not in coeff_cache:
            coeffs = grid.coefficients.astype(np.float32)
            meta = np.array([grid.lo, grid.step, grid.grid_size],
                            dtype=np.float32)
            coeff_cache[key] = (b.const(coeffs), b.const(meta))
        coeff_id, meta_id = coeff_cache[key]
        bases = b.node(SPLINE_BASIS, (), (x_id, coeff_id, meta_id))
        in_dim, nb = layer.in_dim, grid.basis_count
        bases2 = b.node(RESHAPE, (n, in_dim * nb), (bases,))
        sw2t = layer.spline_weight.data.reshape(layer.out_dim, in_dim * nb).T
        spline_out = b.node(MATMUL, (), (bases2, b.const(sw2t)))
        sil = b.node(SILU, (), (x_id,))
        base_out = b.node(MATMUL, (),
                          (sil, b.const(layer.base_weight.data.T)))
        return b.node(ADD, (), (base_out, spline_out))
    # LinearBlock
    y = b.node(MATMUL, (), (x_id, b.const(layer.w.data.T)))
    y = b.node(ADD, (), (y, b.const(layer.b.data)))
    if layer.activation == "relu":
        y = b.node(RELU, (), (y,))
    elif layer.activation == "tanh":
        y = b.node(TANH, (), (y,))
    return y


def _lower_conv(b, layer, x_id, relu=0, pool=0, attrs=None):
    """One CONV2D node: the layer's bias is its third input, and its
    epilogue flags are attributes.  attrs overrides all five."""
    attrs = attrs or (1, layer.padding, layer.dilation, relu, pool)
    return b.node(CONV2D, attrs,
                  (x_id, b.const(layer.w.data), b.const(layer.b.data)))


def export(model) -> StaticGraph:
    """Lower a deploy-variant model to a validated static graph."""
    cfg = model.cfg
    if any(isinstance(layer, LstmLayer) for layer in model.temporal):
        raise ExportError(
            "cannot lower op 'lstm': the recurrent temporal path has no "
            "static-graph form; rebuild the model with variant='deploy'")
    if cfg.variant != "deploy":
        raise ExportError(
            f"export requires the deploy variant, got {cfg.variant!r}")

    b = _Builder()
    coeff_cache: dict = {}
    f_seq = b.input("x_seq_flat", (1, FLAT_SEQ))
    x_img = b.input("x_img", (1, IMG_CHANNELS, cfg.image_hw, cfg.image_hw))

    # temporal path
    for layer in model.temporal:
        f_seq = _lower_dense(b, layer, f_seq, coeff_cache)

    # spatial trunk
    h = _lower_conv(b, model.conv1, x_img, relu=1)
    h = _lower_conv(b, model.conv2, h, relu=1, pool=1)
    layers = [model.res, *model.dilated]
    channels = model.conv2.w.data.shape[0]
    r, blocks = quadrant_tap_grid(cfg.image_hw // 2, layers, np.float32)
    taps = b.node(MATMUL, (), (b.node(MATMUL, (), (b.const(r.T), h)),
                               b.const(r)))
    # as CycloneNet.spatial_tail: each conv on its block of the tap grids
    res, dsum, *rest = [
        _lower_conv(b, layer, b.node(SLICE, (0, 1, 0, channels, lo, hi, lo,
                                             hi), (taps,)),
                    attrs=(layer.w.data.shape[-1], 0, 1, 0, 0))
        for layer, (lo, hi) in zip(layers, blocks)]
    for d in rest:
        dsum = b.node(ADD, (), (dsum, d))
    multi = b.node(CONCAT, (1,), (res, dsum))
    red = _lower_conv(b, model.reduce, multi)
    flat = b.node(RESHAPE, (1, cfg.flatten_width), (red,))
    f_img = _lower_dense(b, model.img_proj, flat, coeff_cache)
    f_shared = b.node(CONCAT, (1,), (f_seq, f_img))

    # ring features (identical for both heads): M (ch7 M^T), as in
    # CycloneNet.ring_features
    n, rings = cfg.image_hw, cfg.ring_count
    ch7 = b.node(SLICE, (0, 1, ATTN_CHANNEL, ATTN_CHANNEL + 1, 0, n, 0, n),
                 (x_img,))
    m = _ring_mean_matrix(cfg, np.float32)
    cols = b.node(MATMUL, (), (ch7, b.const(m.reshape(-1, n).T)))
    cols = b.node(TRANSPOSE, (0, 2, 1, 3),
                  (b.node(RESHAPE, (1, n, rings, 2), (cols,)),))
    rings2 = b.node(RESHAPE, (rings, 4),
                    (b.node(MATMUL, (), (b.const(m), cols)),))

    def lower_head(head):
        d, heads = cfg.d_attn, cfg.heads
        dh = d // heads
        rings = cfg.ring_count
        qv = _lower_dense(b, head.content, rings2, coeff_cache, n=rings)
        q = b.node(SLICE, (0, rings, 0, d), (qv,))
        v = b.node(SLICE, (0, rings, d, 2 * d), (qv,))
        qh = b.node(TRANSPOSE, (1, 0, 2),
                    (b.node(RESHAPE, (rings, heads, dh), (q,)),))
        vh = b.node(TRANSPOSE, (1, 0, 2),
                    (b.node(RESHAPE, (rings, heads, dh), (v,)),))
        # K depends only on the fixed ring-distance vector: precompute
        tape = Tape()
        g = tape.constant(np.linspace(0.0, 1.0, rings,
                                      dtype=np.float32)[:, None])
        k_vals = head.dist.forward(g).data                 # [rings, d]
        kh_t = k_vals.reshape(rings, heads, dh).transpose(1, 2, 0)
        scores = b.node(MATMUL, (), (qh, b.const(kh_t)))   # [h, rings, rings]
        scal = b.const(np.array([1.0 / math.sqrt(dh)], dtype=np.float32))
        attn = b.node(SOFTMAX, (2,), (b.node(MUL, (), (scores, scal)),))
        ctx = b.node(MATMUL, (), (attn, vh))               # [h, rings, dh]
        merged = b.node(RESHAPE, (rings, d),
                        (b.node(TRANSPOSE, (1, 0, 2), (ctx,)),))
        c_avg = b.node(RESHAPE, (1, d), (b.node(MEAN, (0,), (merged,)),))
        fused = b.node(CONCAT, (1,), (c_avg, f_seq))
        return _lower_dense(b, head.out, fused, coeff_cache)

    a_msw = lower_head(model.head_msw)
    a_rmw = lower_head(model.head_rmw)
    gamma_m2r = b.node(ADD, (), (a_rmw, _lower_dense(b, model.k_msw2rmw,
                                                     a_msw, coeff_cache)))
    gamma_r2m = b.node(ADD, (), (a_msw, _lower_dense(b, model.k_rmw2msw,
                                                     a_rmw, coeff_cache)))
    y_msw = _lower_dense(
        b, model.dec_msw,
        b.node(CONCAT, (1,), (a_msw, gamma_r2m, f_shared)), coeff_cache)
    y_rmw = _lower_dense(
        b, model.dec_rmw,
        b.node(CONCAT, (1,), (a_rmw, gamma_m2r, f_shared)), coeff_cache)

    return b.finish([("y_msw", y_msw), ("y_rmw", y_rmw)])


# ---------------------------------------------------------------------------
# interpreter


class _Arena:
    """Hands out views of one flat byte buffer, front to back from byte
    `end`, each at a 64-byte-aligned offset; with no buffer it only
    counts the bytes they span (``end``), which sizes a need."""

    def __init__(self, buf=None, end=0):
        self.buf, self.end = buf, end

    def take(self, shape, dtype=np.float32):
        if isinstance(shape, int):
            shape = (shape,)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        start = self.end
        self.end += -(-nbytes // _ALIGN) * _ALIGN
        if self.buf is None:
            return None
        return self.buf[start:start + nbytes].view(dtype).reshape(shape)


def _aligned_empty(nbytes: int) -> np.ndarray:
    """An uninitialized, 64-byte-aligned byte buffer."""
    raw = np.empty(nbytes + _ALIGN, np.uint8)
    skip = -raw.ctypes.data % _ALIGN
    return raw[skip:skip + nbytes]


def _first_fit(needs) -> tuple[list[int], int]:
    """(offsets, end): each need (first, last, nbytes), in order of
    first, lives from node `first` to node `last` and is placed at the
    lowest 64-byte-aligned offset that overlaps no placed need still
    live at its first node; end is where the highest need ends."""
    live, offsets = [], []   # live: (start, stop, last), by start
    for first, last, nbytes in needs:
        live = [e for e in live if e[2] >= first]
        at = 0
        for start, stop, _ in live:   # disjoint, so at <= start < stop
            if at + nbytes <= start:
                break
            at = stop
        bisect.insort(live, (at, at + -(-nbytes // _ALIGN) * _ALIGN, last))
        offsets.append(at)
    return offsets, max((at + n for at, (*_, n) in zip(offsets, needs)),
                        default=0)


class Session:
    """Executes a loaded graph in one buffer, allocated when the session
    is created (``alloc_count``); ``run`` only writes into it.

    The buffer is planned by lifetime (``_first_fit``): a node output
    lives from its node to its last reader, or to the end of the run if
    the graph returns it, and a node's scratch for its node alone, so
    needs whose lives do not meet share bytes.  No node reads what
    another, or an earlier run, left there.  A CONV2D's scratch is its
    ``ops._conv_plan`` for ``ops.WORKERS`` workers at
    ``SESSION_STRIP_BYTES``: its blocks, the block-sized buffers they
    reuse, and each block's views of them and of the node's output,
    built here, so a run only slices and fills them.  A CONV2D without
    the pool that the graph does not return, whose one reader is a
    CONV2D at stride 1 that reads it as its input and is not itself
    fed, is streamed into that reader (``_fed``): it has no output and
    no scratch, and the reader's node runs both convs
    (``ops._stream_forward``) on an ``ops._stream_plan``, whose bands
    it zeroes as it walks them, and reads the streamed conv's inputs,
    which live until it runs.  A conv output that several nodes read
    is a plain value, which each conv reader pads into its own plan's
    buffer.  ``run`` pins BLAS to one thread
    (``ops._one_blas_thread``), so a conv's strips go to the caller and
    ``ops``' helper thread, unless a concurrent caller holds it.  The
    graph is frozen and its constants read-only, so sessions may share
    one graph and run concurrently; its ``shapes`` size the buffer, and
    it needs no checking, as only a valid graph exists.
    """

    def __init__(self, graph: StaticGraph):
        self.graph = graph
        self.shapes = graph.shapes
        nodes = graph.nodes
        self._values: list[np.ndarray | None] = [None] * graph.n_values
        for vid, arr in enumerate(graph.constants, len(graph.inputs)):
            self._values[vid] = arr
        readers = {}   # per value, the nodes that read it, once per read
        for i, node in enumerate(nodes):
            for j in node.inputs:
                readers.setdefault(j, []).append(i)
        returned = {vid for _, vid in graph.outputs}
        # per reader's output: the conv streamed into it (a pair, no chain)
        self._fed: dict[int, GraphNode] = {}
        for node in nodes:
            read = readers.get(node.output, ())
            reader = nodes[read[0]] if len(read) == 1 else None
            if (node.op == CONV2D and not node.attrs[4]
                    and node.output not in returned
                    and node.output not in self._fed and reader is not None
                    and reader.op == CONV2D and reader.attrs[0] == 1
                    and reader.inputs[0] == node.output):
                self._fed[reader.output] = node
        streamed = {node.output for node in self._fed.values()}
        last = {}   # per value, its last reader, past the end if returned
        for i, node in enumerate(nodes):   # a reader reads its fed conv's
            fed = self._fed.get(node.output)   # inputs too
            for j in node.inputs + (fed.inputs if fed else ()):
                last[j] = i
        last.update((vid, len(nodes)) for vid in returned)
        held, needs, sizer = [], [], _Arena()   # held: per node, has scratch
        for i, node in enumerate(nodes):
            if node.output in streamed:   # no output: its reader runs it
                held.append(None)
                continue
            needs.append((i, last.get(node.output, i),
                          4 * math.prod(self.shapes[node.output])))
            start = sizer.end
            self._node_scratch(node, sizer.take)
            held.append(sizer.end > start)
            if held[-1]:
                needs.append((i, i, sizer.end - start))
        offsets, end = _first_fit(needs)
        self._block = block = _aligned_empty(end)
        offsets = iter(offsets)
        self._scratch = []   # per node; None for a streamed conv
        for node, scratch in zip(nodes, held):
            if scratch is None:
                self._scratch.append(None)
                continue
            at, shape = next(offsets), self.shapes[node.output]
            self._values[node.output] = block[
                at:at + 4 * math.prod(shape)].view(np.float32).reshape(shape)
            self._scratch.append(self._node_scratch(
                node, _Arena(block, next(offsets)).take) if scratch else ())
        self.alloc_count = 1
        self._input_ids = {name: i for i, (name, _) in enumerate(graph.inputs)}

    def _node_scratch(self, node: GraphNode, take):
        """The node's scratch views, each from take(shape, dtype).  A
        CONV2D's plan holds its blocks' views once its output is placed:
        while the buffer is sized, that value is still None."""
        shapes = self.shapes
        if node.op == CONV2D:   # attrs: stride, padding, dilation, relu, pool
            stride, padding, dilation, _, pool = node.attrs
            w = shapes[node.inputs[1]]
            fed = self._fed.get(node.output)
            if fed is not None:
                return _stream_plan(
                    shapes[fed.inputs[0]], shapes[fed.inputs[1]],
                    *fed.attrs[:3], w, padding, dilation, pool, np.float32,
                    SESSION_STRIP_BYTES, take, WORKERS,
                    self._values[node.output])
            return _conv_plan(shapes[node.inputs[0]], w, stride, padding,
                              dilation, pool, np.float32, SESSION_STRIP_BYTES,
                              take, WORKERS, self._values[node.output])
        if node.op == SOFTMAX:
            return (take(_mean_shape(shapes[node.inputs[0]], node.attrs[0],
                                     keepdims=True)),)
        if node.op == SPLINE_BASIS:
            return _horner_scratch(math.prod(shapes[node.inputs[0]]),
                                   self._values[node.inputs[1]], take)
        if node.op == SILU:
            return (take(shapes[node.inputs[0]]),)
        return ()

    def run(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        graph = self.graph
        if set(inputs) != set(self._input_ids):
            raise GraphError(
                f"inputs {sorted(inputs)} do not match graph inputs "
                f"{sorted(self._input_ids)}")
        for name, arr in inputs.items():
            vid = self._input_ids[name]
            expect = self.shapes[vid]
            arr = np.asarray(arr)
            if arr.shape != expect:
                raise GraphError(
                    f"input {name!r} shape {arr.shape} != declared {expect}")
            if arr.dtype != np.float32:
                if arr.dtype.kind != "f":
                    raise GraphError(f"input {name!r} must be float")
                arr = arr.astype(np.float32)
            self._values[vid] = arr
        with _one_blas_thread():
            for i, node in enumerate(graph.nodes):
                self._exec(node, self._scratch[i])
        return {name: self._values[vid].copy()
                for name, vid in graph.outputs}

    def _exec(self, node: GraphNode, scratch) -> None:
        vals = self._values
        out = vals[node.output]
        ins = [vals[j] for j in node.inputs]
        op, attrs = node.op, node.attrs
        if op == CONV2D:
            x, w, bias = ins
            w = w.reshape(w.shape[0], -1)
            fed = self._fed.get(node.output)
            if fed is not None:   # runs the conv streamed into it too
                x, w1, b1 = (vals[j] for j in fed.inputs)
                _stream_forward(x, (w1.reshape(w1.shape[0], -1), b1,
                                    fed.attrs[3]), (w, bias, attrs[3]),
                                scratch)
            elif scratch is not None:   # else its reader runs it
                _conv_forward(x, w, bias, attrs[1], attrs[3], scratch)
        elif op == RELU:
            np.maximum(ins[0], 0.0, out=out)
        elif op == SILU:
            _silu(ins[0], out, *scratch)
        elif op == TANH:
            np.tanh(ins[0], out=out)
        elif op == SLICE:
            key = tuple(slice(attrs[2 * a], attrs[2 * a + 1])
                        for a in range(len(attrs) // 2))
            np.copyto(out, ins[0][key])
        elif op == CONCAT:
            np.concatenate(ins, axis=attrs[0], out=out)
        elif op == RESHAPE:
            np.copyto(out, ins[0].reshape(attrs))
        elif op == TRANSPOSE:
            np.copyto(out, np.transpose(ins[0], attrs))
        elif op == MATMUL:
            np.matmul(ins[0], ins[1], out=out)
        elif op == MUL:
            np.multiply(ins[0], ins[1], out=out)
        elif op == ADD:
            np.add(ins[0], ins[1], out=out)
        elif op == SOFTMAX:
            _softmax(ins[0], attrs[0], out, *scratch)
        elif op == MEAN:
            np.mean(ins[0], axis=attrs[0], out=out)
        elif op == SPLINE_BASIS:
            x, coeffs, meta = ins
            _horner_basis(x.reshape(-1), coeffs, float(meta[0]),
                          float(meta[1]), out.reshape(-1, coeffs.shape[1]),
                          *scratch)
        else:
            raise GraphError(f"unknown op {op!r}")


def bench(graph: StaticGraph, n_warmup: int = 5, n_runs: int = 50,
          inputs: dict[str, np.ndarray] | None = None) -> dict:
    """Per-sample latency statistics on a private session, the bytes of
    its one buffer (``buffer_bytes``) and the memory one warm run
    allocates (``alloc_mib_per_run``, from tracemalloc)."""
    if n_runs < 1:
        raise ShapeError("bench needs n_runs >= 1")
    session = Session(graph)
    if inputs is None:
        rng = np.random.default_rng(0)
        inputs = {name: rng.uniform(0, 1, shape).astype(np.float32)
                  for name, shape in graph.inputs}
    for _ in range(n_warmup):
        session.run(inputs)
    allocs_before = session.alloc_count
    times = []
    for _ in range(n_runs):
        t0 = time.perf_counter()
        session.run(inputs)
        times.append((time.perf_counter() - t0) * 1e3)
    # measured: the tracemalloc peak inside one warm run, above what was
    # held before it (after the timed runs, so tracing costs them nothing)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        session.run(inputs)
        alloc_bytes = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    times_arr = np.array(times)
    return {
        "mean_ms": float(times_arr.mean()),
        "p50_ms": float(np.percentile(times_arr, 50)),
        "p95_ms": float(np.percentile(times_arr, 95)),
        "runs": n_runs,
        "warmup": n_warmup,
        "param_count": graph.parameter_count(),
        "steady_state_allocs": session.alloc_count - allocs_before,
        "buffer_bytes": session._block.nbytes,
        "alloc_mib_per_run": alloc_bytes / 2**20,
    }
