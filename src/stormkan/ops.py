"""Differentiable tensor ops recorded on a Tape.

Every public op takes Vars, computes its forward with numpy and records
an exact backward rule.  ``conv2d``, ``matmul``, ``concat``, ``softmax``
and ``mean`` check their operands with a private shape rule that raises
ShapeError, and ``add``, ``sub`` and ``mul`` with ``_broadcast``;
``staticgraph``'s shape inference calls the same rules.  ``conv2d``,
``silu`` and ``softmax`` compute their forward with a private ``out=``
kernel, called with fresh buffers here and with preallocated ones by
``staticgraph.Session``.  A conv walks one plan (``_conv_plan``), in
``conv2d``'s forward and backward and in ``Session``: blocks of whole
samples or strips of one sample's output rows whose columns fit
``STRIP_BYTES``, and the block-sized buffers they reuse.  Per block it
packs the taps of the flat padded grid (``_taps``), runs one batched
GEMM (``_conv_block``), then the 2x2 max-pool, bias and ReLU while the
block is in cache.  Columns and padding are never kept: backward
repacks them, block by block.  ``Session`` deals a sample's strips to
``WORKERS`` workers that share the budget (``_on_workers``).  A 1x1
conv packs its columns like any other.  Average pools are products with
constant averaging matrices, through ``matmul``.  ``lstm`` records no
node of its own: it is composed of ``linear``, ``add``, ``slice_``,
``sigmoid``, ``tanh`` and ``mul``, whose rules give its gradient.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import queue
import threading

import numpy as np

from .errors import ShapeError
from .tape import Var

# im2col columns packed per conv GEMM call, in each block of a
# _conv_plan, forward and backward, tape and Session; a plan for several
# workers shares it, each strip packing at most its share.  Swept on the
# full-size graph at B=1, one worker: 3 to 5 MiB run equally fast, 1 MiB
# (a dispatch per 8 rows) about 25% slower.  Each MiB of a worker's
# share costs up to about 1.35 MiB of the session's scratch buffer (its
# columns, GEMM output and half-pooled rows), on top of conv1's 0.8 MiB
# padded input
STRIP_BYTES = 4 * 2**20
WORKERS = 2   # of a Session's conv and a train step, on two cores


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
    """Output shape of conv2d, pooled with `pool`; bias is a shape."""
    if len(x) != 4 or len(w) != 4 or x[1] != w[1]:
        raise ShapeError(f"conv2d needs an NCHW input and an OIHW kernel of "
                         f"its channel count, got {x} and {w}")
    if tuple(bias) != w[:1]:
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
# two workers: the caller and one helper thread, with BLAS on one thread


@functools.cache
def _openblas_threads():
    """numpy's bundled OpenBLAS thread-count setter and getter, or None."""
    for lib in map(ctypes.CDLL, glob.glob(np.__path__[0] + ".libs/*blas*")):
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


_blas_lock = threading.Lock()
_blas_pins = _blas_before = 0   # callers pinning BLAS; the count they found


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread for the block, if it can be pinned.  Callers
    may overlap, on any threads: the first one in saves the thread
    count and pins it, and the last one out restores it, on error too."""
    global _blas_pins, _blas_before
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    setter, getter = blas
    with _blas_lock:
        if not _blas_pins:
            _blas_before = getter()
            setter(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if not _blas_pins:
                setter(_blas_before)


_jobs = queue.SimpleQueue()
_helper_free = threading.Lock()   # held by the caller the helper serves
_helper = None


def _help():
    while True:   # a job is never bound to a name, so none is kept once run
        _jobs.get()()


def _on_workers(work, workers: int) -> None:
    """work(k) for each worker k < workers: work(0) on the caller and the
    others in turn on the process's one helper thread, started on first
    use, in a copy of the caller's context (its np.errstate), while BLAS
    is pinned to one thread and the helper is free; else all in turn on
    the caller.  Returns when all have ended, raising the caller's
    exception, else the helper's."""
    global _helper
    if workers < 2 or not _blas_pins or not _helper_free.acquire(False):
        for k in range(workers):
            work(k)
        return
    ctx, ends = contextvars.copy_context(), queue.SimpleQueue()

    def job():   # ends with its own outcome, even after an interrupted wait
        try:
            for k in range(1, workers):
                ctx.run(work, k)
        except BaseException as exc:
            ends.put(exc)
        else:
            ends.put(None)

    try:
        if _helper is None or not _helper.is_alive():   # or in a fork
            _helper = threading.Thread(target=_help, name="stormkan-helper",
                                       daemon=True)
            _helper.start()
        _jobs.put(job)
        try:
            work(0)
        finally:
            error = ends.get()
    finally:
        _helper_free.release()
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# convolution, on the flat padded grid
#
# A chunk [b, C, H, W] padded by p is laid out flat, as [b, C, Hp*Wp] with
# Hp = H + 2p and Wp = W + 2p.  Output (r, s) of tap (i, j) reads flat
# element i*d*Wp + j*d + stride*(r*Wp + s), so each tap's window over the
# whole output is one slice of the flat grid, strided by the conv stride.
# The GEMM runs over n = (OH - 1)*Wp + OW grid columns: OH rows of Wp, the
# last one cut to OW, so no read leaves the grid; the Wp - OW extra
# columns of each row are dropped by the epilogue.


def _taps(xf, geom, n, writeable=False):
    """The [b, C, kh, kw, n] view of the flat grid xf [b, C, L] whose
    (i, j) slice is tap (i, j) over n grid columns; geom is (kh, kw,
    stride, dilation, Wp).  It is the packer of the forward and backward
    columns, and col2im adds into it."""
    kh, kw, stride, dilation, wp = geom
    sb, sc, se = xf.strides
    return np.lib.stride_tricks.as_strided(
        xf, xf.shape[:2] + (kh, kw, n),
        (sb, sc, dilation * wp * se, dilation * se, stride * se),
        writeable=writeable)


def _pack(xf, geom, n, buf):
    """The [b, C*kh*kw, n] GEMM columns of the flat grid xf: its taps
    copied into the front of the flat buffer buf, a contiguous run of n
    per tap and channel."""
    kh, kw = geom[:2]
    b, c = xf.shape[:2]
    cols = buf[:b * c * kh * kw * n].reshape(b, c * kh * kw, n)
    np.copyto(cols.reshape(b, c, kh, kw, n), _taps(xf, geom, n))
    return cols


def _padded(xc, padding, buf):
    """The chunk xc [b, C, H, W] zero-padded by `padding` on each side of
    H and W, as its flat grid [b, C, Hp*Wp]: a view of xc, or its copy
    into the front of the flat buffer buf, border included, so nothing
    an earlier call left in buf is read."""
    b, c, h, w = xc.shape
    if not padding:
        return xc.reshape(b, c, h * w)
    p = padding
    xp = buf[:b * c * (h + 2 * p) * (w + 2 * p)].reshape(b, c, h + 2 * p,
                                                          w + 2 * p)
    _zero_border(xp, p)
    xp[:, :, p:-p, p:-p] = xc
    return xp.reshape(b, c, -1)


def _zero_border(xp, p):
    """Zeroes the `p` outer rows and columns of the grids xp [.., Hp, Wp]."""
    xp[..., :p, :] = xp[..., -p:, :] = xp[..., :p] = xp[..., -p:] = 0


def _max2x2(y, half, out, code=None):
    """2x2, stride-2 max of y [.., H, W] into out [.., H/2, W/2]: first
    over each row's column pair into half, then over each pair of those
    rows.  Given the uint8 array code, of out's shape, it records each
    window's winner there as 4 * row + 2 * column; both comparisons are
    strict, so ties go to the first flat index of the window."""
    c0, c1 = y[..., 0::2], y[..., 1::2]
    if code is not None:   # whether the right column won, per window row
        up = np.greater(y[..., 0::2, 1::2], y[..., 0::2, 0::2])
        down = np.greater(y[..., 1::2, 1::2], y[..., 1::2, 0::2])
    np.maximum(c0, c1, out=half)
    r0, r1 = half[..., 0::2, :], half[..., 1::2, :]
    if code is not None:
        lower = code.view(bool)            # the row pick, in code itself
        np.greater(r1, r0, out=lower)
        down ^= up        # up ^ (lower & (up ^ down)): the column pick
        down &= lower     # of the winning row, left in up
        up ^= down
        code += code
        code |= up
        code += code
    np.maximum(r0, r1, out=out)


def _conv_plan(x, w, stride, padding, dilation, pool, dtype, take,
               workers=1):
    """(geom, chunks, strips, xp, cols, y, half, ...): the walk of a conv
    of input shape x and kernel shape w, and the flat buffers every block
    reuses, each take(size, dtype).  geom is _taps' (kh, kw, stride,
    dilation, Wp).  A block is a chunk (a slice of the batch) and a
    strip (r0, rows) of its output rows, before the pool: as many whole
    samples as fit STRIP_BYTES of columns, if one does, else strips of
    one sample's rows, an even count with the pool.  For one worker a
    strip is as tall as fits, and the last chunk or strip may be
    shorter; for several, strips are near-equal, within a worker's share
    of the budget, and a multiple of `workers` in number, or if too few
    rows allow that, the one-worker plan's.  The buffers are one block's
    padded samples (empty without padding), then per worker its columns,
    GEMM grid and, with the pool, half-pooled rows (else None)."""
    bsz, cin, h, wid = x
    cout, _, kh, kw = w
    oh, ow = (n << pool for n in _conv2d_shape(x, w, w[:1], stride, padding,
                                                dilation, pool)[2:])
    hp, wp = h + 2 * padding, wid + 2 * padding
    k = cin * kh * kw
    row = k * ow * np.dtype(dtype).itemsize   # one output row's columns
    units = oh >> pool   # strips hold whole row pairs under the pool
    most = max(1, STRIP_BYTES // workers // (row << pool))
    n = workers * -(-units // (workers * most))   # strips for workers
    chunk = max(1, min(bsz, STRIP_BYTES // (row * oh)))
    if row * oh <= STRIP_BYTES:
        bounds, workers = [0, units], 1
    elif 1 < workers and n <= units:
        bounds = [i * units // n for i in range(n + 1)]
    else:
        workers, most = 1, max(1, STRIP_BYTES // (row << pool))
        bounds = [*range(0, units, most), units]
    strips = [(a << pool, (b - a) << pool) for a, b in zip(bounds, bounds[1:])]
    rows = max(n for _, n in strips)
    plan = ((kh, kw, stride, dilation, wp),
            [slice(b0, b0 + chunk) for b0 in range(0, bsz, chunk)], strips,
            take(chunk * cin * hp * wp if padding else 0, dtype))
    for _ in range(workers):
        plan += (take(chunk * k * ((rows - 1) * wp + ow), dtype),
                 take(chunk * cout * rows * wp, dtype),
                 take(chunk * cout * rows * (ow // 2), dtype) if pool else None)
    return plan


def _conv_block(xf, w2, geom, bias, relu, cols, y, out, half=None,
                code=None):
    """The conv of one block of output rows into out [b, Cout, rows, OW]:
    the taps of the flat grid xf [b, C, L], whose row 0 is the block's
    first input row, packed into cols (_pack), times w2 [Cout, K] into
    the front of y over the block's grid, then + bias [Cout], and the
    ReLU if `relu`.  Given the flat buffer half, out is the pooled block
    [b, Cout, rows/2, OW/2]: the 2x2 max runs on the GEMM's output,
    before the bias and the ReLU, which commute with it.  Given
    code too, of out's shape, it records each window's winner there
    (_max2x2), plus 1 where the ReLU passed a gradient (out > 0)."""
    wp = geom[-1]
    b, cout = out.shape[:2]
    pool = half is not None
    rows, ow = out.shape[2] << pool, out.shape[3] << pool
    n = (rows - 1) * wp + ow
    grid = y[:b * cout * rows * wp].reshape(b, cout, rows * wp)
    np.matmul(w2, _pack(xf, geom, n, cols), out=grid[:, :, :n])
    yv = grid.reshape(b, cout, rows, wp)[..., :ow]
    bias = bias.reshape(-1, 1, 1)
    if pool:
        _max2x2(yv, half[:b * cout * rows * (ow // 2)].reshape(
            b, cout, rows, ow // 2), out, code)
        out += bias
    else:
        np.add(yv, bias, out=out)
    if relu:
        np.maximum(out, 0, out=out)
        if code is not None:
            code |= np.greater(out, 0)


def _conv_forward(x, w2, bias, padding, relu, plan, out, code=None):
    """The conv of x [B, C, H, W] by w2 [Cout, K] into out (and code):
    _conv_block per block of plan (_conv_plan), each chunk of samples
    padded into the plan's buffer as the walk reaches it, and its strips
    dealt round-robin to the plan's workers (_on_workers), each on its
    own buffers."""
    geom, chunks, strips, xp, *bufs = plan
    stride, wp = geom[2], geom[4]
    pool, workers = bufs[2] is not None, len(bufs) // 3

    def work(k):   # worker k's strips of chunk c
        cols, y, half = bufs[3 * k:3 * k + 3]
        for r0, rows in strips[k::workers]:
            p = slice(r0 >> pool, (r0 + rows) >> pool)
            _conv_block(xf[:, :, r0 * stride * wp:], w2, geom, bias, relu,
                        cols, y, out[c, :, p], half,
                        None if code is None else code[c, :, p])

    for c in chunks:
        xf = _padded(x[c], padding, xp)
        _on_workers(work, workers)


def conv2d(x: Var, w: Var, bias: Var, stride: int = 1, padding: int = 0,
           dilation: int = 1, relu: bool = False, pool: bool = False) -> Var:
    """2-d cross-correlation plus a per-channel bias, then
    optionally ReLU and the 2x2, stride-2 max-pool (``_conv2d_shape``
    gives the extents it accepts), by ``_conv_forward`` on a fresh plan.

    For backward it keeps the input and, when a gradient is needed,
    without the pool the output if `relu` (for its mask); with the pool
    a uint8 code per pooled output instead: twice the window's winner
    (ties go to the first flat index), plus 1 where the ReLU passed a
    gradient.  A forward-only pool records nothing.  Backward walks the
    plan's blocks again, on fresh buffers: it routes each block's output
    gradient through the code or the mask onto its GEMM grid, repacks
    its columns, adds their product with it to dw, and adds each tap of
    dcols = W^T g into dx's zero-bordered flat grid (col2im), where
    neighbouring strips overlap; dx is its interior view.  With the
    pool, db sums the pooled gradient where the ReLU passed it, as the
    routing keeps each sum.
    """
    xd, wd = x.data, w.data
    out_shape = _conv2d_shape(xd.shape, wd.shape, bias.data.shape, stride,
                              padding, dilation, pool)
    bsz, cin, h, wid = xd.shape
    cout = wd.shape[0]
    w2 = np.ascontiguousarray(wd.reshape(cout, -1))
    dtype = np.result_type(xd, wd)
    plan_args = (xd.shape, wd.shape, stride, padding, dilation, pool, dtype)
    # capture plain flags, not Vars: a Var in the closure would create a
    # tape <-> closure cycle and delay freeing whole forward passes
    x_needs_grad = x.requires_grad
    needs_grad = x_needs_grad or w.requires_grad or bias.requires_grad

    out = np.empty(out_shape, dtype=dtype)
    # a forward-only pool records no code
    code = np.empty(out_shape, np.uint8) if pool and needs_grad else None
    _conv_forward(xd, w2, bias.data, padding, relu,
                  _conv_plan(*plan_args, np.empty), out, code)
    # the output is kept only for the ReLU's mask of a conv without the pool
    relu_out = out if relu and not pool else None

    def backward(g):
        # the plan again, on fresh buffers but for the half-pooled rows.
        # Whatever a block's row count, the Wp - OW extra columns of each
        # grid row sit at the same flat offsets modulo Wp: never written
        geom, chunks, strips, n_pad, n_cols, n_grid, _ = _conv_plan(
            *plan_args, lambda n, _: n)
        kh, kw, wp, ow = geom[0], geom[1], geom[4], g.shape[3] << pool
        xp, cols = np.empty(n_pad, dtype), np.empty(n_cols, dtype)
        gg = np.zeros(n_grid, dtype=g.dtype)
        hit = np.empty(g[chunks[0], :, :strips[0][1] >> pool].size, bool)
        dw = np.zeros(w2.shape[::-1], dtype=g.dtype)
        db = np.zeros(cout, dtype=g.dtype)
        dx = dxg = None
        if x_needs_grad:   # dx is the interior of its flat padded grid dxg
            dxg = np.zeros((bsz, cin, (h + 2 * padding) * wp), dtype=g.dtype)
            dx = dxg.reshape(bsz, cin, -1, wp)[
                :, :, padding:padding + h, padding:padding + wid]
        for c in chunks:
            xf = _padded(xd[c], padding, xp)
            for r0, rs in strips:
                n, start = (rs - 1) * wp + ow, r0 * stride * wp
                c3 = _pack(xf[:, :, start:], geom, n, cols)
                p = slice(r0 >> pool, (r0 + rs) >> pool)
                gc = g[c, :, p]
                bc = len(gc)
                hc = hit[:gc.size].reshape(gc.shape)
                grid = gg[:bc * cout * rs * wp].reshape(bc, cout, rs, wp)
                gv = grid[..., :ow]
                if pool:
                    # each pooled gradient to its window's winner, if alive
                    cc = code[c, :, p]
                    for win in range(4):
                        np.equal(cc, 2 * win + relu, out=hc)
                        np.multiply(gc, hc,
                                    out=gv[..., win >> 1::2, win & 1::2])
                    if relu:
                        np.bitwise_and(cc, 1, out=hc.view(np.uint8))
                        db += np.multiply(gc, hc).sum(axis=(0, 2, 3))
                    else:
                        db += gc.sum(axis=(0, 2, 3))
                elif relu:
                    np.multiply(gc, np.greater(relu_out[c, :, p], 0, out=hc),
                                out=gv)
                else:
                    np.copyto(gv, gc)
                gn = grid.reshape(bc, cout, rs * wp)[:, :, :n]
                if not pool:
                    db += gn.sum(axis=(0, 2))
                dw += np.matmul(c3, gn.transpose(0, 2, 1)).sum(axis=0)
                if dx is None:
                    continue
                np.matmul(w2.T, gn, out=c3)  # dcols overwrite the columns
                dcols = c3.reshape(bc, cin, kh, kw, n)
                taps = _taps(dxg[c, :, start:], geom, n, writeable=True)
                for i, j in np.ndindex(kh, kw):
                    tap = taps[:, :, i, j]
                    np.add(tap, dcols[:, :, i, j], out=tap)
        dw = np.ascontiguousarray(dw.T).reshape(wd.shape)
        return dx, dw, db

    return x.tape.record("conv2d", (x, w, bias), out, backward)


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


def sigmoid(x: Var) -> Var:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return x.tape.record("sigmoid", (x,), out,
                         lambda g: (g * (out * (1.0 - out)),))


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


def _operands(a: Var, b: Var) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of a and b, whose shapes must broadcast."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        _broadcast(ad.shape, bd.shape)
    return ad, bd


def add(a: Var, b: Var) -> Var:
    ad, bd = _operands(a, b)
    out = ad + bd
    ash, bsh = ad.shape, bd.shape
    return a.tape.record(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a: Var, b: Var) -> Var:
    ad, bd = _operands(a, b)
    out = ad - bd
    ash, bsh = ad.shape, bd.shape
    return a.tape.record(
        "sub", (a, b), out,
        lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a: Var, b: Var) -> Var:
    ad, bd = _operands(a, b)
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
    """Basic slicing by a tuple key; backward scatters into zeros."""
    xd = x.data
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


def transpose(x: Var, axes) -> Var:
    xd = x.data
    out = np.transpose(xd, axes)
    inv = np.argsort(axes)
    return x.tape.record("transpose", (x,), out,
                         lambda g: (np.transpose(g, inv),))


def mean(x: Var, axis=None) -> Var:
    xd = x.data
    _mean_shape(xd.shape, axis)
    out = xd.mean(axis=axis)
    count = xd.size // max(out.size, 1)

    def backward(g):
        gb = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gb / count, xd.shape),)

    return x.tape.record("mean", (x,), out, backward)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x: Var, wx: Var, wh: Var, b: Var) -> Var:
    """Single-layer LSTM over [B, T, F]; returns the final hidden state.

    Gate packing along the 4H axis is (input, forget, cell, output).  It
    is composed of tape ops, step by step from a zero state whose terms
    step 0 skips, so its gradient is theirs: backpropagation through time.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    _require(xd.ndim == 3, "lstm input must be [B, T, F]")
    _, t_steps, feat = xd.shape
    _require(t_steps >= 1, "lstm needs at least one time step")
    _require(wxd.ndim == 2 and wxd.shape[0] % 4 == 0,
             "lstm wx must be [4H, F]")
    hid = wxd.shape[0] // 4
    _require(wxd.shape == (4 * hid, feat), f"lstm wx shape {wxd.shape} "
             f"incompatible with input feature extent {feat}")
    _require(whd.shape == (4 * hid, hid),
             f"lstm wh shape {whd.shape} must be [4H, H]")
    _require(bd.shape == (4 * hid,), f"lstm bias shape {bd.shape} must be [4H]")

    h = c = None
    for t in range(t_steps):
        z = linear(slice_(x, (slice(None), t)), wx)
        if h is not None:
            z = add(z, linear(h, wh))
        z = add(z, b)
        i, f, g, o = (slice_(z, (slice(None), slice(k * hid, (k + 1) * hid)))
                      for k in range(4))
        i, f, g, o = sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
        c = mul(i, g) if c is None else add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
    return h
