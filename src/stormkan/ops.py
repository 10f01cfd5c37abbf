"""Differentiable tensor ops recorded on a Tape.

Every public function takes Vars, validates extents, computes the
forward result with numpy, and registers an exact backward rule.
Convolutions run as im2col + BLAS matmul with internal batch chunking
to bound scratch memory; the annular pooling op uses a summed-area
table so the 39-ring geometry costs a few image passes.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tape import Var

_CHUNK_BYTES = 128 * 2**20  # scratch budget for im2col buffers


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

    def backward(g):
        da = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape)
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


_COLS_CACHE_BYTES = 256 * 2**20  # per-conv cap on cols kept for backward


def _pack_chunks(xp, kh, kw, stride, dilation, oh, ow, dtype):
    """Yield (b0, bc, cols[K, bc*OH*OW]) im2col chunks."""
    bsz, cin = xp.shape[0], xp.shape[1]
    k = cin * kh * kw
    ohw = oh * ow
    chunk = max(1, min(bsz, _CHUNK_BYTES // max(k * ohw * dtype.itemsize, 1)))
    for b0 in range(0, bsz, chunk):
        bc = min(chunk, bsz - b0)
        cols = np.empty((k, bc * ohw), dtype=dtype)
        _im2col(xp[b0:b0 + bc], kh, kw, stride, dilation, cols)
        yield b0, bc, cols


def _conv2d_fwd(x, w, stride, padding, dilation, keep_cols=False):
    """Forward conv; optionally retains (xp, cols chunks) for backward."""
    bsz, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    oh = _conv_out_extent(h, kh, stride, padding, dilation)
    ow = _conv_out_extent(wid, kw, stride, padding, dilation)
    if (kh, kw, stride, padding, dilation) == (1, 1, 1, 0, 1):
        x3 = x.reshape(bsz, cin, oh * ow)
        out = np.matmul(w.reshape(cout, cin), x3).reshape(bsz, cout, oh, ow)
        return out, (None, None)
    xp = _padded(x, padding)
    w2 = np.ascontiguousarray(w.reshape(cout, -1))
    out = np.empty((bsz, cout, oh, ow), dtype=x.dtype)
    ohw = oh * ow
    kept = [] if keep_cols else None
    for b0, bc, cols in _pack_chunks(xp, kh, kw, stride, dilation, oh, ow,
                                     x.dtype):
        out2 = np.matmul(w2, cols)
        out[b0:b0 + bc] = out2.reshape(cout, bc, ohw).transpose(1, 0, 2) \
            .reshape(bc, cout, oh, ow)
        if kept is not None:
            kept.append((b0, bc, cols))
    return out, (xp, kept)


def _conv2d_raw(x, w, stride, padding, dilation):
    return _conv2d_fwd(x, w, stride, padding, dilation)[0]


def _conv2d_dw(xp, cols_chunks, g, w_shape, stride, dilation):
    """Weight gradient; reuses cached cols chunks when available."""
    cout, cin, kh, kw = w_shape
    bsz, _, oh, ow = g.shape
    if (kh, kw, stride, dilation) == (1, 1, 1, 1) and xp is None:
        return None  # handled by the 1x1 fast path
    ohw = oh * ow
    k = cin * kh * kw
    dw2t = np.zeros((k, cout), dtype=g.dtype)
    chunks = cols_chunks if cols_chunks is not None else _pack_chunks(
        xp, kh, kw, stride, dilation, oh, ow, g.dtype)
    for b0, bc, cols in chunks:
        g2 = np.ascontiguousarray(
            g[b0:b0 + bc].transpose(1, 0, 2, 3).reshape(cout, bc * ohw))
        dw2t += np.matmul(cols, g2.T)
    return np.ascontiguousarray(dw2t.T).reshape(w_shape)


def _pad_or_crop_hw(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph > 0 or pw > 0:
        x = np.pad(x, ((0, 0), (0, 0), (max(ph, 0),) * 2, (max(pw, 0),) * 2))
    if ph < 0:
        x = x[:, :, -ph:ph, :]
    if pw < 0:
        x = x[:, :, :, -pw:pw]
    return x


def conv2d(x: Var, w: Var, bias: Var | None = None, stride: int = 1,
           padding: int = 0, dilation: int = 1) -> Var:
    """2-d cross-correlation with optional per-channel bias.

    Backward produces input, weight and bias gradients; the input
    gradient is the stride-stuffed full correlation with the spatially
    flipped kernel, so arbitrary stride/padding/dilation combinations
    stay exact.
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
    keep = (w.requires_grad and not is_1x1
            and k * oh * ow * bsz * xd.dtype.itemsize <= _COLS_CACHE_BYTES)
    out, ctx = _conv2d_fwd(xd, wd, stride, padding, dilation, keep_cols=keep)
    if bias is not None:
        _require(bias.data.shape == (cout,), "conv2d bias must be [Cout]")
        out += bias.data.reshape(1, cout, 1, 1)
    # capture plain flags, not Vars: a Var in the closure would create a
    # tape <-> closure cycle and delay freeing whole forward passes
    x_needs_grad = x.requires_grad
    has_bias = bias is not None

    def backward(g):
        db = g.sum(axis=(0, 2, 3)) if has_bias else None
        g = np.ascontiguousarray(g)
        if is_1x1:
            g3 = g.reshape(bsz, cout, oh * ow)
            x3 = xd.reshape(bsz, cin, oh * ow)
            dw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0) \
                .reshape(wd.shape)
            dx = None
            if x_needs_grad:
                dx = np.matmul(wd.reshape(cout, cin).T, g3).reshape(xd.shape)
        else:
            xp, kept = ctx
            dw = _conv2d_dw(xp, kept, g, wd.shape, stride, dilation)
            dx = None
            if x_needs_grad:
                if stride > 1:
                    gu = np.zeros((bsz, cout, (oh - 1) * stride + 1,
                                   (ow - 1) * stride + 1), dtype=g.dtype)
                    gu[:, :, ::stride, ::stride] = g
                else:
                    gu = g
                ph = dilation * (kh - 1) - padding
                pw = dilation * (kw - 1) - padding
                gu = _pad_or_crop_hw(gu, ph, pw)
                w_flip = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                dx = _conv2d_raw(gu, np.ascontiguousarray(w_flip), 1, 0,
                                 dilation)
        if has_bias:
            return dx, dw, db
        return dx, dw

    parents = (x, w) if bias is None else (x, w, bias)
    return x.tape.record("conv2d", parents, out, backward)


# ---------------------------------------------------------------------------
# pooling


def maxpool2d(x: Var, kernel: int, stride: int) -> Var:
    """Window max; gradient routes to the first flat index of each argmax."""
    xd = x.data
    _require(xd.ndim == 4, "maxpool2d expects NCHW")
    bsz, c, h, w = xd.shape
    _require(kernel <= h and kernel <= w,
             f"maxpool kernel {kernel} exceeds input extent {h}x{w}")
    oh = _conv_out_extent(h, kernel, stride, 0, 1)
    ow = _conv_out_extent(w, kernel, stride, 0, 1)
    kk = kernel * kernel

    out = np.empty((bsz, c, oh, ow), dtype=xd.dtype)
    win = _window_view(xd, kernel, kernel, stride, 1)  # B,C,k,k,OH,OW
    am = np.empty((bsz, c, oh, ow), dtype=np.intp)
    per_sample = c * kk * oh * ow * xd.dtype.itemsize
    chunk = max(1, min(bsz, _CHUNK_BYTES // max(per_sample, 1)))
    for s in range(0, bsz, chunk):
        flat = win[s:s + chunk].transpose(0, 1, 4, 5, 2, 3).reshape(
            -1, c, oh, ow, kk)
        np.argmax(flat, axis=-1, out=am[s:s + chunk])
        out[s:s + chunk] = np.take_along_axis(
            flat, am[s:s + chunk, ..., None], axis=-1)[..., 0]

    def backward(g):
        dx = np.zeros_like(xd)
        rows = np.arange(oh)[:, None] * stride + am // kernel
        cols = np.arange(ow)[None, :] * stride + am % kernel
        bi = np.arange(bsz)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        if stride >= kernel:
            # non-overlapping windows: targets are unique, plain fancy
            # assignment accumulates correctly
            dx[bi, ci, rows, cols] = g
        else:
            np.add.at(dx, (bi, ci, rows, cols), g)
        return (dx,)

    return x.tape.record("maxpool2d", (x,), out, backward)


def avgpool2d_fixed(x: Var, kernel: int, stride: int) -> Var:
    """Window mean with exact uniform-spread backward."""
    xd = x.data
    _require(xd.ndim == 4, "avgpool2d expects NCHW")
    bsz, c, h, w = xd.shape
    _require(kernel <= h and kernel <= w,
             f"avgpool kernel {kernel} exceeds input extent {h}x{w}")
    oh = _conv_out_extent(h, kernel, stride, 0, 1)
    ow = _conv_out_extent(w, kernel, stride, 0, 1)
    win = _window_view(xd, kernel, kernel, stride, 1)
    out = win.mean(axis=(2, 3))

    def backward(g):
        dx = np.zeros_like(xd)
        gk = g / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                dx[:, :, i:i + oh * stride:stride,
                   j:j + ow * stride:stride] += gk
        return (dx,)

    return x.tape.record("avgpool2d", (x,), out, backward)


def _adaptive_bins(n: int, out: int) -> list[tuple[int, int]]:
    return [(i * n // out, -(-(i + 1) * n // out)) for i in range(out)]


def adaptive_avgpool2d(x: Var, out_h: int, out_w: int) -> Var:
    """Mean over floor/ceil partitioned bins (identity when out == in)."""
    xd = x.data
    _require(xd.ndim == 4, "adaptive_avgpool2d expects NCHW")
    bsz, c, h, w = xd.shape
    _require(h > 0 and w > 0, "adaptive_avgpool2d on zero-size input")
    _require(0 < out_h <= h and 0 < out_w <= w,
             f"adaptive pool out extents ({out_h},{out_w}) exceed "
             f"input ({h},{w})")

    if (out_h, out_w) == (h, w):
        out = xd.copy()
        return x.tape.record("adaptive_avgpool2d", (x,), out,
                             lambda g: (g,))

    hb = _adaptive_bins(h, out_h)
    wb = _adaptive_bins(w, out_w)
    out = np.empty((bsz, c, out_h, out_w), dtype=xd.dtype)
    for i, (r0, r1) in enumerate(hb):
        for j, (c0, c1) in enumerate(wb):
            out[:, :, i, j] = xd[:, :, r0:r1, c0:c1].mean(axis=(2, 3))

    def backward(g):
        dx = np.zeros_like(xd)
        for i, (r0, r1) in enumerate(hb):
            for j, (c0, c1) in enumerate(wb):
                area = (r1 - r0) * (c1 - c0)
                dx[:, :, r0:r1, c0:c1] += g[:, :, i:i + 1, j:j + 1] / area
        return (dx,)

    return x.tape.record("adaptive_avgpool2d", (x,), out, backward)


def ring_pool(x: Var, r_center: int, ring_count: int) -> Var:
    """Annular 2x2-mean features over nested centered square crops.

    Ring 0 is the 3x3 crop centered at (r_center, r_center); ring i>=1
    is the half-open square [r_center-2i, r_center+2i).  Each crop is
    adaptive-average-pooled to 2x2 and flattened, giving [B, rings, 4].
    Uses a float64 summed-area table; backward is a corner difference
    array integrated by two cumsums.
    """
    xd = x.data
    _require(xd.ndim == 4 and xd.shape[1] == 1,
             "ring_pool expects a single-channel NCHW input")
    bsz, _, h, w = xd.shape
    _require(r_center - 2 * (ring_count - 1) >= 1
             and r_center + 2 * (ring_count - 1) <= min(h, w),
             f"ring geometry invalid for image {h}x{w} "
             f"(r_center={r_center}, rings={ring_count})")

    r0s = np.empty((ring_count, 2), dtype=np.int64)
    r1s = np.empty((ring_count, 2), dtype=np.int64)
    for i in range(ring_count):
        lo, side = (r_center - 1, 3) if i == 0 else (r_center - 2 * i, 4 * i)
        r0s[i] = (lo, lo + side // 2)
        r1s[i] = (lo + (side + 1) // 2, lo + side)
    areas = ((r1s - r0s)[:, :, None] * (r1s - r0s)[:, None, :]).astype(np.float64)

    sat = np.zeros((bsz, h + 1, w + 1), dtype=np.float64)
    np.cumsum(xd[:, 0], axis=1, dtype=np.float64, out=sat[:, 1:, 1:])
    np.cumsum(sat[:, 1:, 1:], axis=2, out=sat[:, 1:, 1:])
    ru0, ru1 = r0s[:, :, None], r1s[:, :, None]
    cv0, cv1 = r0s[:, None, :], r1s[:, None, :]
    block = (sat[:, ru1, cv1] - sat[:, ru0, cv1]
             - sat[:, ru1, cv0] + sat[:, ru0, cv0])
    out = (block / areas).reshape(bsz, ring_count, 4).astype(xd.dtype)

    def backward(g):
        v = g.reshape(bsz, ring_count, 2, 2).astype(np.float64) / areas
        diff = np.zeros((bsz, h + 1, w + 1), dtype=np.float64)
        dflat = diff.reshape(bsz, -1)
        w1 = w + 1
        bi = np.arange(bsz)[:, None, None, None]
        np.add.at(dflat, (bi, ru0 * w1 + cv0), v)
        np.add.at(dflat, (bi, ru0 * w1 + cv1), -v)
        np.add.at(dflat, (bi, ru1 * w1 + cv0), -v)
        np.add.at(dflat, (bi, ru1 * w1 + cv1), v)
        diff.cumsum(axis=1, out=diff)
        diff.cumsum(axis=2, out=diff)
        return (diff[:, :h, :w].astype(xd.dtype)[:, None],)

    return x.tape.record("ring_pool", (x,), out, backward)


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


def clamp(x: Var, lo: float, hi: float) -> Var:
    xd = x.data
    out = np.clip(xd, lo, hi)
    mask = (xd > lo) & (xd < hi)
    return x.tape.record("clamp", (x,), out, lambda g: (g * mask,))


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
