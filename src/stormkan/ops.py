"""Differentiable tensor ops recorded on a Tape.

Every public op takes Vars, computes its forward with numpy and records
an exact backward rule.  ``conv2d``, ``matmul``, ``concat``, ``softmax``
and ``mean`` check their operands with a private shape rule that raises
ShapeError; ``staticgraph``'s shape inference calls the same rules.
``conv2d``, ``silu`` and ``softmax`` compute their forward with a
private ``out=`` kernel, called with fresh buffers here and with
preallocated ones by ``staticgraph.Session``.  ``conv2d`` is im2col +
one batched GEMM per batch chunk (``_conv_block``), with the bias, ReLU
and 2x2 max-pool run on each chunk while it is in cache; its columns and
zero padding are per chunk, in reused buffers, and never kept: backward
repacks them.  Average pools are products with constant averaging
matrices, through ``matmul``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tape import Var

# im2col columns packed per GEMM call, about one full-size sample of
# conv1 or conv2; measured faster than 128 MiB chunks on the B=16 step
_CHUNK_BYTES = 16 * 2**20


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the pre-broadcast operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# shape rules, shared with staticgraph's shape inference: each takes
# operand shapes (tuples) and returns the output shape or raises ShapeError.
# They run on every op call, so each formats its message only to raise it.


def _broadcast(*shapes) -> tuple[int, ...]:
    try:
        return tuple(np.broadcast_shapes(*shapes))
    except ValueError as exc:
        raise ShapeError(f"shapes {shapes} do not broadcast") from exc


def _axis(axis: int, ndim: int) -> int:
    """axis in [-ndim, ndim), as an index in [0, ndim)."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _matmul_shape(a, b) -> tuple[int, ...]:
    if len(a) < 2 or len(b) < 2 or a[-1] != b[-2]:
        raise ShapeError(f"matmul needs >= 2-d operands with equal inner "
                         f"extents, got {a} x {b}")
    batch = a[:-2] if a[:-2] == b[:-2] else _broadcast(a[:-2], b[:-2])
    return batch + (a[-2], b[-1])


def _concat_shape(shapes, axis: int) -> tuple[int, ...]:
    _require(len(shapes) >= 1, "concat needs at least one input")
    ref = shapes[0]
    ax = _axis(axis, len(ref))
    for s in shapes[1:]:
        if len(s) != len(ref) or s[:ax] + s[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(
                f"concat extent mismatch off axis {ax}: {ref} vs {s}")
    return ref[:ax] + (sum(s[ax] for s in shapes),) + ref[ax + 1:]


def _conv2d_shape(x, w, bias, stride, padding, dilation, pool):
    """Output shape of conv2d, pooled with `pool`; bias is a shape or None."""
    if len(x) != 4 or len(w) != 4 or x[1] != w[1]:
        raise ShapeError(f"conv2d needs an NCHW input and an OIHW kernel of "
                         f"its channel count, got {x} and {w}")
    if bias is not None and tuple(bias) != w[:1]:
        raise ShapeError(f"conv2d bias {bias} must be [{w[0]}]")
    if not (stride >= 1 and padding >= 0 and dilation >= 1):
        raise ShapeError(f"conv2d needs stride >= 1, padding >= 0 and "
                         f"dilation >= 1, got {stride}, {padding}, {dilation}")
    out = [x[0], w[0]]
    for n, k in zip(x[2:], w[2:]):
        span = n + 2 * padding - dilation * (k - 1) - 1
        if span < 0 or span % stride:
            raise ShapeError(
                f"non-integral or non-positive conv output extent (in={n}, "
                f"k={k}, stride={stride}, pad={padding}, dil={dilation})")
        out.append(span // stride + 1)
    if pool and (out[2] % 2 or out[3] % 2):
        raise ShapeError(f"2x2 max-pool needs even conv output extents, got "
                         f"{out[2]}x{out[3]}")
    return (*out[:2], out[2] >> pool, out[3] >> pool)


def _mean_shape(x, axis, keepdims: bool = False) -> tuple[int, ...]:
    """Shape of a reduction over axis: None (all), an int or a tuple."""
    if axis is None:
        axis = tuple(range(len(x)))
    axes = [_axis(a, len(x)) for a in (axis if isinstance(axis, tuple)
                                        else (axis,))]
    if len(set(axes)) != len(axes):
        raise ShapeError(f"repeated axis in {axis}")
    return tuple(1 if i in axes else n for i, n in enumerate(x)
                 if keepdims or i not in axes)


# ---------------------------------------------------------------------------
# dense products


def matmul(a: Var, b: Var) -> Var:
    """Matrix product with numpy-style leading-dim broadcasting."""
    ad, bd = a.data, b.data
    _matmul_shape(ad.shape, bd.shape)
    out = np.matmul(ad, bd)
    # plain flags, as in conv2d: an operand that needs no gradient (a
    # constant averaging matrix, say) gets none computed
    a_needs_grad, b_needs_grad = a.requires_grad, b.requires_grad

    def backward(g):
        da = db = None
        if a_needs_grad:
            da = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape)
        if b_needs_grad:
            db = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape)
        return da, db

    return a.tape.record("matmul", (a, b), out, backward)


def linear(x: Var, w: Var) -> Var:
    """x @ w.T for w of shape [out, in]; x may have any leading dims."""
    xd, wd = x.data, w.data
    _require(wd.ndim == 2, "linear weight must be 2-d [out, in]")
    _require(xd.shape[-1] == wd.shape[1],
             f"linear extent mismatch: x {xd.shape} vs w {wd.shape}")
    out = np.matmul(xd, wd.T)

    def backward(g):
        g2 = g.reshape(-1, wd.shape[0])
        x2 = xd.reshape(-1, wd.shape[1])
        dw = g2.T @ x2
        dx = np.matmul(g, wd).reshape(xd.shape)
        return dx, dw

    return x.tape.record("linear", (x, w), out, backward)


# ---------------------------------------------------------------------------
# convolution


def _columns(xw: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
             buf: np.ndarray) -> np.ndarray:
    """The [B, C*kh*kw, OH*OW] GEMM view of the conv windows of xw
    [B, C, H, W].  A 1x1, stride-1 kernel reads xw itself as its columns;
    any other is packed (im2col) into the front of the flat buffer buf as
    [C*kh*kw, B*OH*OW], with one strided copy and no temporary."""
    b, c, h, w = xw.shape
    if (kh, kw, stride, dilation) == (1, 1, 1, 1):
        return xw.reshape(b, c, h * w)
    oh = (h - dilation * (kh - 1) - 1) // stride + 1
    ow = (w - dilation * (kw - 1) - 1) // stride + 1
    sb, sc, sh, sw = xw.strides
    win = np.lib.stride_tricks.as_strided(   # [C, kh, kw, B, OH, OW]
        xw, (c, kh, kw, b, oh, ow),
        (sc, sh * dilation, sw * dilation, sb, sh * stride, sw * stride),
        writeable=False)
    cols = buf[:c * kh * kw * b * oh * ow]
    np.copyto(cols.reshape(win.shape), win)
    return cols.reshape(c * kh * kw, b, oh * ow).transpose(1, 0, 2)


def _offset_keys(kh: int, kw: int, stride: int, dilation: int, oh: int,
                ow: int) -> list[tuple[slice, ...]]:
    """NCHW index keys of the kh*kw window offsets, in flat (row-major)
    window order: key (i, j) selects the [.., OH, OW] strided slice of
    the input that window element (i, j) reads at every output position."""
    span_h, span_w = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    return [(slice(None), slice(None),
             slice(i * dilation, i * dilation + span_h, stride),
             slice(j * dilation, j * dilation + span_w, stride))
            for i in range(kh) for j in range(kw)]


def _max2x2(y, half, col_pick, row_pick, out):
    """2x2, stride-2 max of y [.., H, W] into out [.., H/2, W/2]: first
    over each row's column pair (col_pick: the right one won), then over
    each pair of those rows (row_pick: the lower one won).  Both picks
    are strict, so ties go to the first flat index of the window."""
    c0, c1 = y[..., 0::2], y[..., 1::2]
    np.greater(c1, c0, out=col_pick)
    np.maximum(c0, c1, out=half)
    r0, r1 = half[..., 0::2, :], half[..., 1::2, :]
    np.greater(r1, r0, out=row_pick)
    np.maximum(r0, r1, out=out)


def _unpool2x2(gp, col_pick, row_pick, half, g):
    """Route the pooled gradient gp back through _max2x2's picks into g
    [.., H, W]: each window's max takes it, the other three get zero."""
    np.multiply(gp, row_pick, out=half[..., 1::2, :])
    np.subtract(gp, half[..., 1::2, :], out=half[..., 0::2, :])
    np.multiply(half, col_pick, out=g[..., 1::2])
    np.subtract(half, g[..., 1::2], out=g[..., 0::2])


def _padded(xc, padding, buf):
    """The chunk xc [b, C, H, W] zero-padded by `padding` on each side of
    H and W: xc itself, or its copy into the interior of the front of
    buf, a reused chunk buffer whose border is zero and stays so."""
    if not padding:
        return xc
    xp = buf[:len(xc)]
    xp[:, :, padding:-padding, padding:-padding] = xc
    return xp


def _conv_block(xw, w2, kh, kw, stride, dilation, bias, relu, buf, y,
                pool=None):
    """The conv forward of one block of output: the windows of xw
    (_columns, packed into buf) times w2 [Cout, K] into y [B, Cout, OH,
    OW], then + bias [Cout] unless it is None, the ReLU if `relu`, and,
    given pool = (half, col_pick, row_pick, out), _max2x2 of y into out.
    ``conv2d`` runs it per batch chunk, ``staticgraph.Session`` per strip
    of output rows (an even number of them with a pool)."""
    c3 = _columns(xw, kh, kw, stride, dilation, buf)
    np.matmul(w2, c3, out=y.reshape(c3.shape[0], w2.shape[0], -1))
    if bias is not None:
        y += bias.reshape(-1, 1, 1)
    if relu:
        np.maximum(y, 0, out=y)
    if pool is not None:
        _max2x2(y, *pool)


def conv2d(x: Var, w: Var, bias: Var | None = None, stride: int = 1,
           padding: int = 0, dilation: int = 1, relu: bool = False,
           pool: bool = False) -> Var:
    """2-d cross-correlation with optional per-channel bias, then
    optionally ReLU and the 2x2, stride-2 max-pool (``_conv2d_shape``
    gives the extents it accepts).

    Forward runs ``_conv_block`` per batch chunk, on the chunk padded
    into one reused buffer (``_padded``).  The pool records, per window,
    which column of each row pair and which row won (two bool masks; ties
    go to the first flat index).  Only the output, the masks and the
    input itself are kept for backward, which works chunk by chunk: it
    routes the output gradient back through the masks and the ReLU,
    repacks the chunk's columns for dw, and scatter-adds dcols = W^T g
    through the kh*kw strided window offsets (col2im) into a zeroed
    padded chunk whose interior is the chunk's dx.
    """
    xd, wd = x.data, w.data
    has_bias = bias is not None
    out_shape = _conv2d_shape(xd.shape, wd.shape,
                              bias.data.shape if has_bias else None, stride,
                              padding, dilation, pool)
    bsz, cin, h, wid = xd.shape
    cout, _, kh, kw = wd.shape
    oh, ow = out_shape[2] << pool, out_shape[3] << pool
    # a 1x1 conv reads its (padded) input as columns, in place
    is_1x1 = (kh, kw, stride, dilation) == (1, 1, 1, 1)
    k = cin * kh * kw
    ohw = oh * ow
    w2 = np.ascontiguousarray(wd.reshape(cout, k))
    dtype = np.result_type(xd, wd)
    chunk = max(1, min(bsz, _CHUNK_BYTES // max(k * ohw * xd.itemsize, 1)))
    # the column buffer: one per pass, reused by every chunk, never kept
    n_cols = 0 if is_1x1 else k * chunk * ohw
    pad_shape = (chunk, cin, h + 2 * padding, wid + 2 * padding)

    out = np.empty(out_shape, dtype=dtype)
    if pool:
        col_pick = np.empty((bsz, cout, oh, ow // 2), dtype=bool)
        row_pick = np.empty(out.shape, dtype=bool)
        y_buf = np.empty((chunk, cout, oh, ow), dtype=dtype)
        half_buf = np.empty((chunk, cout, oh, ow // 2), dtype=dtype)
    buf = np.empty(n_cols, dtype=xd.dtype)
    xp = np.zeros(pad_shape, dtype=xd.dtype) if padding else None
    for b0 in range(0, bsz, chunk):
        c, bc = slice(b0, b0 + chunk), min(chunk, bsz - b0)
        _conv_block(_padded(xd[c], padding, xp), w2, kh, kw, stride,
                    dilation, bias.data if has_bias else None, relu, buf,
                    y_buf[:bc] if pool else out[c],
                    (half_buf[:bc], col_pick[c], row_pick[c], out[c])
                    if pool else None)
    # capture plain flags, not Vars: a Var in the closure would create a
    # tape <-> closure cycle and delay freeing whole forward passes
    x_needs_grad = x.requires_grad

    def backward(g):
        dw = np.zeros((k, cout), dtype=g.dtype)
        db = np.zeros(cout, dtype=g.dtype) if has_bias else None
        dx = np.zeros(xd.shape, dtype=g.dtype) if x_needs_grad else None
        if relu or pool:
            g_buf = np.empty((chunk, cout, oh, ow), dtype=g.dtype)
        if pool:
            half = np.empty((chunk, cout, oh, ow // 2), dtype=g.dtype)
        keys = _offset_keys(kh, kw, stride, dilation, oh, ow)
        cols = np.empty(n_cols, dtype=xd.dtype)
        xp = np.zeros(pad_shape, dtype=xd.dtype) if padding else None
        dxp = np.empty(pad_shape, dtype=g.dtype) \
            if padding and x_needs_grad else None
        for b0 in range(0, bsz, chunk):
            c, bc = slice(b0, b0 + chunk), min(chunk, bsz - b0)
            c3 = _columns(_padded(xd[c], padding, xp), kh, kw, stride,
                          dilation, cols)
            gc = g[c]
            if pool:
                if relu:
                    gc = gc * (out[c] > 0)
                _unpool2x2(gc, col_pick[c], row_pick[c], half[:bc],
                           g_buf[:bc])
                gc = g_buf[:bc]
            elif relu:
                gc = np.multiply(gc, out[c] > 0, out=g_buf[:bc])
            gc = np.ascontiguousarray(gc).reshape(bc, cout, ohw)
            if has_bias:
                db += gc.sum(axis=(0, 2))
            dw += np.matmul(c3, gc.transpose(0, 2, 1)).sum(axis=0)
            if dx is None:
                continue
            # the gradient w.r.t. the chunk as padded: with padding, a
            # zeroed padded buffer whose interior is then the chunk's dx
            dxc = dx[c]
            if padding:
                dxc = dxp[:bc]
                dxc.fill(0)
            if is_1x1:
                np.matmul(w2.T, gc, out=dxc.reshape(bc, cin, ohw))
            else:
                np.matmul(w2.T, gc, out=c3)  # dcols overwrite the columns
                dcols = c3.transpose(1, 0, 2).reshape(cin, kh * kw, bc, oh,
                                                      ow)
                dxt = dxc.transpose(1, 0, 2, 3)
                for t, key in enumerate(keys):
                    np.add(dxt[key], dcols[:, t], out=dxt[key])
            if padding:
                dx[c] = dxc[:, :, padding:padding + h, padding:padding + wid]
        dw = np.ascontiguousarray(dw.T).reshape(wd.shape)
        return (dx, dw, db) if has_bias else (dx, dw)

    parents = (x, w) if bias is None else (x, w, bias)
    return x.tape.record("conv2d", parents, out, backward)


# ---------------------------------------------------------------------------
# averaging geometry: quadrant bins and ring crops


def _adaptive_bins(n: int, out: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) floor/ceil bins splitting extent n into out
    parts; neighbouring bins share a row when out does not divide n."""
    return [(i * n // out, -(-(i + 1) * n // out)) for i in range(out)]


def ring_crops(r_center: int, ring_count: int) -> list[tuple[int, int]]:
    """Half-open [L, R) row (and column) bounds of each ring's square crop.

    Ring 0 is the 3x3 crop [r_center-1, r_center+2), centred on pixel
    r_center.  Ring i>=1 is [r_center-2i, r_center+2i), side 4i, centred
    on the pixel corner at r_center (between pixels r_center-1 and
    r_center).  Ring 1 shares ring 0's high edge, so the nesting is
    strict only from ring 2 on.
    """
    return [(r_center - 1, r_center + 2)] + [
        (r_center - 2 * i, r_center + 2 * i) for i in range(1, ring_count)]


def ring_geometry_error(r_center: int, ring_count: int,
                        size: int) -> str | None:
    """Why the ring crops do not fit a size x size image, or None.

    Requires ring_count >= 1 and every crop, ring 0 included, within
    rows and columns [1, size).
    """
    if ring_count < 1:
        return f"ring_count must be at least 1, got {ring_count}"
    # ring 0 spans [r_center - 1, r_center + 2), ring i >= 1 r_center -+ 2i
    reach = 2 * (ring_count - 1)
    if r_center - max(1, reach) < 1:
        return "outermost crop starts before row 1"
    if r_center + max(2, reach) > size:
        return "outermost crop exceeds image"
    return None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def relu(x: Var) -> Var:
    out = np.maximum(x.data, 0)
    return x.tape.record("relu", (x,), out, lambda g: (g * (out > 0),))


def _silu(x, out, t):
    """x / (1 + exp(-x)) into out; t, of x's shape, keeps 1 + exp(-x)."""
    np.negative(x, out=t)
    with np.errstate(over="ignore"):   # exp(-x) = inf gives x / inf
        np.exp(t, out=t)
    t += 1.0
    np.divide(x, t, out=out)


def silu(x: Var) -> Var:
    xd = x.data
    out, t = np.empty_like(xd), np.empty_like(xd)
    _silu(xd, out, t)

    def backward(g):
        sig = 1.0 / t
        return (g * (sig * (1.0 + xd * (1.0 - sig))),)

    return x.tape.record("silu", (x,), out, backward)


def tanh(x: Var) -> Var:
    out = np.tanh(x.data)
    return x.tape.record("tanh", (x,), out,
                         lambda g: (g * (1.0 - out * out),))


def _softmax(x, axis, out, red):
    """Softmax of x along axis into out; red, x's shape reduced over axis
    with keepdims, is scratch."""
    np.max(x, axis=axis, keepdims=True, out=red)
    np.subtract(x, red, out=out)
    np.exp(out, out=out)
    np.sum(out, axis=axis, keepdims=True, out=red)
    out /= red


def softmax(x: Var, axis: int = -1) -> Var:
    xd = x.data
    out = np.empty_like(xd)
    _softmax(xd, axis, out,
             np.empty(_mean_shape(xd.shape, axis, keepdims=True), xd.dtype))

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return x.tape.record("softmax", (x,), out, backward)


def abs_(x: Var) -> Var:
    xd = x.data
    out = np.abs(xd)
    return x.tape.record("abs", (x,), out, lambda g: (g * np.sign(xd),))


def add(a: Var, b: Var) -> Var:
    out = a.data + b.data
    ash, bsh = a.data.shape, b.data.shape
    return a.tape.record(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a: Var, b: Var) -> Var:
    out = a.data - b.data
    ash, bsh = a.data.shape, b.data.shape
    return a.tape.record(
        "sub", (a, b), out,
        lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a: Var, b: Var) -> Var:
    ad, bd = a.data, b.data
    out = ad * bd
    return a.tape.record(
        "mul", (a, b), out,
        lambda g: (_unbroadcast(g * bd, ad.shape),
                   _unbroadcast(g * ad, bd.shape)))


def scale(x: Var, c: float) -> Var:
    out = x.data * c
    return x.tape.record("scale", (x,), out, lambda g: (g * c,))


def concat(vars_: list[Var], axis: int) -> Var:
    arrays = [v.data for v in vars_]
    _concat_shape([arr.shape for arr in arrays], axis)
    nd = arrays[0].ndim
    ax = axis % nd
    out = np.concatenate(arrays, axis=ax)
    sizes = [arr.shape[ax] for arr in arrays]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for i in range(len(sizes)):
            key = [slice(None)] * nd
            key[ax] = slice(int(bounds[i]), int(bounds[i + 1]))
            pieces.append(g[tuple(key)])
        return tuple(pieces)

    return vars_[0].tape.record("concat", tuple(vars_), out, backward)


def slice_(x: Var, key) -> Var:
    """Basic (non-strided) slicing; backward scatters into zeros."""
    xd = x.data
    if not isinstance(key, tuple):
        key = (key,)
    out = xd[key]

    def backward(g):
        dx = np.zeros_like(xd)
        dx[key] = g
        return (dx,)

    return x.tape.record("slice", (x,), out, backward)


def reshape(x: Var, shape) -> Var:
    xd = x.data
    in_shape = xd.shape
    out = xd.reshape(shape)
    return x.tape.record("reshape", (x,), out,
                         lambda g: (g.reshape(in_shape),))


def flatten(x: Var) -> Var:
    """Collapse all but the first axis."""
    return reshape(x, (x.data.shape[0], -1))


def transpose(x: Var, axes) -> Var:
    xd = x.data
    out = np.transpose(xd, axes)
    inv = np.argsort(axes)
    return x.tape.record("transpose", (x,), out,
                         lambda g: (np.transpose(g, inv),))


def mean(x: Var, axis=None, keepdims: bool = False) -> Var:
    xd = x.data
    _mean_shape(xd.shape, axis, keepdims)
    out = xd.mean(axis=axis, keepdims=keepdims)
    count = xd.size // max(out.size, 1)

    def backward(g):
        gb = g
        if not keepdims and axis is not None:
            gb = np.expand_dims(g, axis)
        return (np.broadcast_to(gb / count, xd.shape),)

    return x.tape.record("mean", (x,), out, backward)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x: Var, wx: Var, wh: Var, b: Var) -> Var:
    """Single-layer LSTM over [B, T, F]; returns the final hidden state.

    Gate packing along the 4H axis is (input, forget, cell, output);
    the backward rule runs full backpropagation through time.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    _require(xd.ndim == 3, "lstm input must be [B, T, F]")
    bsz, t_steps, feat = xd.shape
    _require(t_steps >= 1, "lstm needs at least one time step")
    _require(wxd.ndim == 2 and wxd.shape[0] % 4 == 0,
             "lstm wx must be [4H, F]")
    hid = wxd.shape[0] // 4
    _require(wxd.shape == (4 * hid, feat), f"lstm wx shape {wxd.shape} "
             f"incompatible with input feature extent {feat}")
    _require(whd.shape == (4 * hid, hid),
             f"lstm wh shape {whd.shape} must be [4H, H]")
    _require(bd.shape == (4 * hid,), f"lstm bias shape {bd.shape} must be [4H]")

    h = np.zeros((bsz, hid), dtype=xd.dtype)
    c = np.zeros((bsz, hid), dtype=xd.dtype)
    ctx = []
    for t in range(t_steps):
        xt = xd[:, t, :]
        z = xt @ wxd.T + h @ whd.T + bd
        i = 1.0 / (1.0 + np.exp(-z[:, :hid]))
        f = 1.0 / (1.0 + np.exp(-z[:, hid:2 * hid]))
        g = np.tanh(z[:, 2 * hid:3 * hid])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * hid:]))
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        ctx.append((xt, h, c, i, f, g, o, tc))
        h = o * tc
        c = c_new
    out = h

    def backward(grad):
        dwx = np.zeros_like(wxd)
        dwh = np.zeros_like(whd)
        db = np.zeros_like(bd)
        dx = np.zeros_like(xd)
        dh = grad
        dc = np.zeros((bsz, hid), dtype=xd.dtype)
        for t in range(t_steps - 1, -1, -1):
            xt, h_prev, c_prev, i, f, g, o, tc = ctx[t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di, dg, df = dc * g, dc * i, dc * c_prev
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ], axis=1)
            dwx += dz.T @ xt
            dwh += dz.T @ h_prev
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ wxd
            dh = dz @ whd
            dc = dc * f
        return dx, dwx, dwh, db

    return x.tape.record("lstm", (x, wx, wh, b), out, backward)
