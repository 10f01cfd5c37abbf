"""Differentiable tensor ops recorded on a Tape.

Every public function takes Vars, validates extents, computes the
forward result with numpy, and registers an exact backward rule.
Convolutions run as im2col + batched BLAS matmuls that write straight
into their outputs.  The columns are packed chunk by chunk into one
buffer of about one full-size sample (``_CHUNK_BYTES``), reused for
every chunk and never kept: the backward repacks them.  The input
gradient is col2im, a scatter-add of W^T g through the strided window
offsets.  Max pooling folds np.maximum over the same offset
slices and routes gradients by equality masks.  Average pools are not
ops here: the model computes its quadrant and ring means as products
with constant averaging matrices, through ``matmul``.
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
# dense products


def matmul(a: Var, b: Var) -> Var:
    """Matrix product with numpy-style leading-dim broadcasting."""
    ad, bd = a.data, b.data
    _require(ad.ndim >= 2 and bd.ndim >= 2, "matmul operands must be >= 2-d")
    _require(ad.shape[-1] == bd.shape[-2],
             f"matmul inner extents differ: {ad.shape} x {bd.shape}")
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


def _conv_out_extent(n: int, k: int, stride: int, padding: int,
                     dilation: int) -> int:
    span = n + 2 * padding - dilation * (k - 1) - 1
    _require(span >= 0 and span % stride == 0,
             f"non-integral or non-positive conv output extent "
             f"(in={n}, k={k}, stride={stride}, pad={padding}, dil={dilation})")
    return span // stride + 1


def _window_view(xp: np.ndarray, kh: int, kw: int, stride: int,
                 dilation: int) -> np.ndarray:
    b, c, hp, wp = xp.shape
    oh = (hp - dilation * (kh - 1) - 1) // stride + 1
    ow = (wp - dilation * (kw - 1) - 1) // stride + 1
    sb, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        (b, c, kh, kw, oh, ow),
        (sb, sc, sh * dilation, sw * dilation, sh * stride, sw * stride),
        writeable=False,
    )


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
            cols: np.ndarray) -> None:
    """Pack the conv windows of xp [B, C, H, W] into the contiguous
    cols [C*kh*kw, B*OH*OW] with one strided copy and no temporary."""
    win = _window_view(xp, kh, kw, stride, dilation)
    b, c, _, _, oh, ow = win.shape
    np.copyto(cols.reshape(c, kh, kw, b, oh, ow),
              win.transpose(1, 2, 3, 0, 4, 5))


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return np.ascontiguousarray(x)
    return np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))


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


def _pack_chunks(xp, kh, kw, stride, dilation, oh, ow):
    """Yield (b0, bc, cols[K, bc*OH*OW]) im2col chunks of xp, all packed
    into one reused buffer, so a chunk is only valid until the next one
    is yielded."""
    bsz, cin = xp.shape[0], xp.shape[1]
    k = cin * kh * kw
    ohw = oh * ow
    chunk = max(1, min(bsz, _CHUNK_BYTES // max(k * ohw * xp.itemsize, 1)))
    buf = np.empty(k * chunk * ohw, dtype=xp.dtype)
    for b0 in range(0, bsz, chunk):
        bc = min(chunk, bsz - b0)
        cols = buf[:k * bc * ohw].reshape(k, bc * ohw)
        _im2col(xp[b0:b0 + bc], kh, kw, stride, dilation, cols)
        yield b0, bc, cols


def conv2d(x: Var, w: Var, bias: Var | None = None, stride: int = 1,
           padding: int = 0, dilation: int = 1) -> Var:
    """2-d cross-correlation with optional per-channel bias.

    Forward is im2col + one batched GEMM per batch chunk, written
    straight into the output.  Between forward and backward only the
    output and the padded input are held; no columns are kept.  Backward
    repacks each chunk's columns and produces input, weight and bias
    gradients: dw from those columns, and dx as dcols = W^T g written
    over them, then scatter-added back through the kh*kw strided window
    offsets (col2im) into a padded buffer.  Every stride, padding and
    dilation stays exact.
    """
    xd, wd = x.data, w.data
    _require(xd.ndim == 4 and wd.ndim == 4, "conv2d expects NCHW and OIHW")
    _require(xd.shape[1] == wd.shape[1],
             f"conv2d channel mismatch: input {xd.shape[1]} vs "
             f"kernel {wd.shape[1]}")
    bsz, cin, h, wid = xd.shape
    cout, _, kh, kw = wd.shape
    is_1x1 = (kh, kw, stride, padding, dilation) == (1, 1, 1, 0, 1)
    k = cin * kh * kw
    oh = _conv_out_extent(h, kh, stride, padding, dilation)
    ow = _conv_out_extent(wid, kw, stride, padding, dilation)
    ohw = oh * ow
    w2 = np.ascontiguousarray(wd.reshape(cout, k))
    out = np.empty((bsz, cout, oh, ow), dtype=np.result_type(xd, wd))
    out3 = out.reshape(bsz, cout, ohw)
    xp = None
    if is_1x1:
        np.matmul(w2, xd.reshape(bsz, cin, ohw), out=out3)
    else:
        xp = _padded(xd, padding)
        for b0, bc, cols in _pack_chunks(xp, kh, kw, stride, dilation, oh,
                                         ow):
            np.matmul(w2, cols.reshape(k, bc, ohw).transpose(1, 0, 2),
                      out=out3[b0:b0 + bc])
    if bias is not None:
        _require(bias.data.shape == (cout,), "conv2d bias must be [Cout]")
        out += bias.data.reshape(1, cout, 1, 1)
    # capture plain flags, not Vars: a Var in the closure would create a
    # tape <-> closure cycle and delay freeing whole forward passes
    x_needs_grad = x.requires_grad
    has_bias = bias is not None

    def backward(g):
        db = g.sum(axis=(0, 2, 3)) if has_bias else None
        g3 = np.ascontiguousarray(g).reshape(bsz, cout, ohw)
        if is_1x1:
            dw = np.matmul(g3, xd.reshape(bsz, cin, ohw).transpose(0, 2, 1)) \
                .sum(axis=0).reshape(wd.shape)
            dx = np.matmul(w2.T, g3).reshape(xd.shape) if x_needs_grad \
                else None
            return (dx, dw, db) if has_bias else (dx, dw)
        dw = np.zeros((k, cout), dtype=g.dtype)
        dxp = np.zeros(xp.shape, dtype=g.dtype) if x_needs_grad else None
        keys = _offset_keys(kh, kw, stride, dilation, oh, ow)
        for b0, bc, cols in _pack_chunks(xp, kh, kw, stride, dilation, oh,
                                         ow):
            c3 = cols.reshape(k, bc, ohw).transpose(1, 0, 2)
            gc = g3[b0:b0 + bc]
            dw += np.matmul(c3, gc.transpose(0, 2, 1)).sum(axis=0)
            if dxp is None:
                continue
            np.matmul(w2.T, gc, out=c3)  # dcols overwrite the columns
            dcols = cols.reshape(cin, kh * kw, bc, oh, ow)
            dxc = dxp[b0:b0 + bc].transpose(1, 0, 2, 3)
            for t, key in enumerate(keys):
                np.add(dxc[key], dcols[:, t], out=dxc[key])
        dx = dxp
        if padding and dxp is not None:
            dx = dxp[:, :, padding:padding + h, padding:padding + wid]
        dw = np.ascontiguousarray(dw.T).reshape(wd.shape)
        return (dx, dw, db) if has_bias else (dx, dw)

    parents = (x, w) if bias is None else (x, w, bias)
    return x.tape.record("conv2d", parents, out, backward)


# ---------------------------------------------------------------------------
# pooling


def maxpool2d(x: Var, kernel: int, stride: int) -> Var:
    """Window max over strided offset slices.

    Forward folds np.maximum over the kernel*kernel offset slices.
    Backward walks the offsets in flat window order: an offset whose
    value equals the max takes the window's gradient unless an earlier
    offset already did (the `free` mask), so ties route to the first
    flat index, as argmax would.
    """
    xd = x.data
    _require(xd.ndim == 4, "maxpool2d expects NCHW")
    bsz, c, h, w = xd.shape
    _require(kernel <= h and kernel <= w,
             f"maxpool kernel {kernel} exceeds input extent {h}x{w}")
    oh = _conv_out_extent(h, kernel, stride, 0, 1)
    ow = _conv_out_extent(w, kernel, stride, 0, 1)
    keys = _offset_keys(kernel, kernel, stride, 1, oh, ow)
    out = xd[keys[0]].copy()
    for key in keys[1:]:
        np.maximum(out, xd[key], out=out)

    def backward(g):
        dx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)
        eq = np.empty(out.shape, dtype=bool)
        for key in keys:
            np.equal(xd[key], out, out=eq)
            eq &= free
            free ^= eq
            if stride < kernel:  # overlapping windows accumulate
                dx[key] += g * eq
            else:
                np.multiply(g, eq, out=dx[key])
        return (dx,)

    return x.tape.record("maxpool2d", (x,), out, backward)


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
    crops = ring_crops(r_center, ring_count)
    if min(lo for lo, _ in crops) < 1:
        return "outermost crop starts before row 1"
    if max(hi for _, hi in crops) > size:
        return "outermost crop exceeds image"
    return None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def relu(x: Var) -> Var:
    out = np.maximum(x.data, 0)
    return x.tape.record("relu", (x,), out, lambda g: (g * (out > 0),))


def silu(x: Var) -> Var:
    xd = x.data
    sig = 1.0 / (1.0 + np.exp(-xd))
    out = xd * sig
    return x.tape.record(
        "silu", (x,), out, lambda g: (g * (sig * (1.0 + xd * (1.0 - sig))),))


def tanh(x: Var) -> Var:
    out = np.tanh(x.data)
    return x.tape.record("tanh", (x,), out,
                         lambda g: (g * (1.0 - out * out),))


def softmax(x: Var, axis: int = -1) -> Var:
    xd = x.data
    _require(-xd.ndim <= axis < xd.ndim, f"softmax axis {axis} out of range")
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

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
    _require(len(vars_) >= 1, "concat needs at least one input")
    arrays = [v.data for v in vars_]
    nd = arrays[0].ndim
    _require(-nd <= axis < nd, f"concat axis {axis} out of range")
    ax = axis % nd
    ref = list(arrays[0].shape)
    for arr in arrays[1:]:
        got = list(arr.shape)
        if got[:ax] + got[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(
                f"concat extent mismatch off axis {ax}: "
                f"{arrays[0].shape} vs {arr.shape}")
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
    out = xd.mean(axis=axis, keepdims=keepdims)
    count = xd.size if axis is None else int(
        np.prod([xd.shape[a] for a in np.atleast_1d(axis)]))

    def backward(g):
        gb = g
        if not keepdims and axis is not None:
            gb = np.expand_dims(g, axis)
        return (np.broadcast_to(gb / count, xd.shape),)

    return x.tape.record("mean", (x,), out, backward)


def sum_(x: Var, axis=None, keepdims: bool = False) -> Var:
    xd = x.data
    out = xd.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gb = g
        if not keepdims and axis is not None:
            gb = np.expand_dims(g, axis)
        return (np.broadcast_to(gb, xd.shape),)

    return x.tape.record("sum", (x,), out, backward)


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
