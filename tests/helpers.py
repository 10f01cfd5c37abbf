"""Shared gradient-check utilities (finite differences in float64) and
reference implementations the fast paths are checked against."""

import io
import json
import struct
from dataclasses import asdict

import numpy as np

from stormkan import ops
from stormkan.staticgraph import MAGIC, VERSION, GraphNode, StaticGraph
from stormkan.tape import Tape
from stormkan.tensor import read_tensor, write_container


def total(x):
    """Scalar sum of a Var: its flattening times a ones column."""
    flat = ops.reshape(x, (1, -1))
    ones = x.tape.constant(np.ones((flat.shape[1], 1), dtype=x.data.dtype))
    return ops.reshape(ops.matmul(flat, ones), ())


def numerical_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric)
                        / np.maximum(1.0, np.abs(numeric))))


def check_gradients(build, arrays, tol=1e-6, h=1e-5):
    """build(tape, leaf_vars) -> scalar loss Var; checks every array."""
    def run():
        tape = Tape()
        leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
        return tape, leaves, build(tape, leaves)

    tape, leaves, loss = run()
    grads = tape.backprop(loss)
    worst = 0.0
    for leaf, arr in zip(leaves, arrays):
        analytic = grads.wrt(leaf)
        numeric = numerical_grad(lambda: float(run()[2].data), arr, h=h)
        worst = max(worst, max_rel_err(analytic, numeric))
    assert worst < tol, f"gradient mismatch: rel err {worst:.3e} >= {tol}"
    return worst


def naive_conv2d(x, w, stride, padding, dilation):
    """Cross-correlation as a loop over output positions (reference)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    bsz, _, hp, wp = xp.shape
    cout, _, kh, kw = w.shape
    oh = (hp - dilation * (kh - 1) - 1) // stride + 1
    ow = (wp - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((bsz, cout, oh, ow))
    for b in range(bsz):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    r0, c0 = i * stride, j * stride
                    win = xp[b, :, r0:r0 + dilation * (kh - 1) + 1:dilation,
                             c0:c0 + dilation * (kw - 1) + 1:dilation]
                    out[b, co, i, j] = np.sum(win * w[co])
    return out


def naive_conv2d_grads(x, w, g, stride, padding, dilation):
    """(dx, dw) of sum(g * conv2d(x, w)) by the same loop (reference)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    _, _, kh, kw = w.shape
    bsz, cout, oh, ow = g.shape
    for b in range(bsz):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    r0, c0 = i * stride, j * stride
                    key = (b, slice(None),
                           slice(r0, r0 + dilation * (kh - 1) + 1, dilation),
                           slice(c0, c0 + dilation * (kw - 1) + 1, dilation))
                    dw[co] += g[b, co, i, j] * xp[key]
                    dxp[key] += g[b, co, i, j] * w[co]
    h, wid = x.shape[2], x.shape[3]
    return dxp[:, :, padding:padding + h, padding:padding + wid], dw


def naive_maxpool2d(x, kernel, stride):
    """Window max as a loop over output positions (reference)."""
    bsz, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.empty((bsz, c, oh, ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            win = x[:, :, i * stride:i * stride + kernel,
                    j * stride:j * stride + kernel]
            out[:, :, i, j] = win.max(axis=(2, 3))
    return out


def naive_maxpool2d_grad(x, g, kernel, stride):
    """dx of sum(g * maxpool2d(x)): each window's gradient goes to the
    first flat index of its max, as np.argmax picks it (reference)."""
    dx = np.zeros_like(x)
    bsz, c, oh, ow = g.shape
    for b in range(bsz):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    r0, c0 = i * stride, j * stride
                    win = x[b, ch, r0:r0 + kernel, c0:c0 + kernel]
                    di, dj = divmod(int(np.argmax(win)), kernel)
                    dx[b, ch, r0 + di, c0 + dj] += g[b, ch, i, j]
    return dx


def adaptive_avgpool2d(x, out_h, out_w):
    """Mean of a Var [B, C, H, W] over floor/ceil bins, out_h x out_w of
    them, from slice_, mean and concat (reference)."""
    h, w = x.shape[2:]
    rows = []
    for i in range(out_h):
        r0, r1 = i * h // out_h, -(-(i + 1) * h // out_h)
        cells = []
        for j in range(out_w):
            c0, c1 = j * w // out_w, -(-(j + 1) * w // out_w)
            crop = ops.slice_(x, (slice(None), slice(None), slice(r0, r1),
                                  slice(c0, c1)))
            cells.append(ops.reshape(ops.mean(crop, axis=(2, 3)),
                                     x.shape[:2] + (1, 1)))
        rows.append(ops.concat(cells, axis=3))
    return ops.concat(rows, axis=2)


def one_node_parts(op, attrs, x_shape, constants=()):
    """(inputs, constants, nodes, outputs) of a graph of one node reading
    input "x" and the given constants."""
    consts = [np.asarray(c, dtype=np.float32) for c in constants]
    out = 1 + len(consts)
    return ([("x", tuple(x_shape))], consts,
            [GraphNode(op, tuple(attrs), tuple(range(out)), out)],
            [("y", out)])


def one_node_graph(op, attrs, x_shape, constants=()):
    """A graph of one node reading input "x" and the given constants."""
    return StaticGraph(*one_node_parts(op, attrs, x_shape, constants))


def graph_bytes(inputs, constants, nodes, outputs):
    """The .kfg bytes save_graph would write for these graph parts, made
    without constructing the graph, so an invalid one reaches load_graph."""
    header = {"inputs": [[name, list(shape)] for name, shape in inputs],
              "nodes": [[n.op, list(n.attrs), list(n.inputs)] for n in nodes],
              "outputs": [[name, vid] for name, vid in outputs]}
    return write_container(MAGIC, VERSION, header, {
        str(vid): arr for vid, arr in enumerate(constants, len(inputs))})


def knots(grid):
    """The uniform knots of a grid, extended spline_order steps past
    each end of its domain."""
    order = grid.spline_order
    n = grid.grid_size + 2 * order + 1
    return grid.lo + grid.step * (np.arange(n) - order)


def cox_de_boor(x: np.ndarray, grid, with_deriv: bool = False):
    """Cox-de Boor bases for each input value, [..., basis_count]
    (reference for the Horner kernel of ``stormkan.spline``).

    Inputs are clamped to the grid domain first; with_deriv additionally
    returns d(basis)/dx, zero where the clamp is active.
    """
    x = np.asarray(x)
    t = knots(grid).astype(x.dtype if x.dtype.kind == "f" else np.float64)
    order = grid.spline_order
    xc = np.clip(x, grid.lo, grid.hi)[..., None]
    b = ((xc >= t[:-1]) & (xc < t[1:])).astype(t.dtype)
    prev = b
    for k in range(1, order + 1):
        prev = b
        left = (xc - t[:-k - 1]) / (t[k:-1] - t[:-k - 1]) * b[..., :-1]
        right = (t[k + 1:] - xc) / (t[k + 1:] - t[1:-k]) * b[..., 1:]
        b = left + right
    if not with_deriv:
        return b
    if order == 0:
        return b, np.zeros_like(b)
    den1 = t[order:-1] - t[:-order - 1]
    den2 = t[order + 1:] - t[1:-order]
    deriv = order * (prev[..., :-1] / den1 - prev[..., 1:] / den2)
    inside = ((x > grid.lo) & (x < grid.hi)).astype(b.dtype)[..., None]
    return b, deriv * inside


def container_sections(blob):
    """(start, end) of the magic/version, the JSON header with its
    length, the tensor count and each named tensor of a container
    (.kfc or .kfg)."""
    (n,) = struct.unpack_from("<I", blob, 8)
    spans = [(0, 8), (8, 12 + n), (12 + n, 16 + n)]
    fp = io.BytesIO(blob)
    fp.seek(16 + n)
    while fp.tell() < len(blob):
        start = fp.tell()
        (name_len,) = struct.unpack("<H", fp.read(2))
        fp.seek(name_len, io.SEEK_CUR)
        read_tensor(fp)
        spans.append((start, fp.tell()))
    return spans


def reference_checkpoint(model, extra=None) -> bytes:
    """A version 1 .kfc checkpoint packed field by field, as the
    checkpoint writer did before the container was shared (reference):
    each tensor is a KFT1 record of magic, dtype code (0 float32, 1
    float64), rank, u32 extents and little-endian data."""
    config = {"model": asdict(model.cfg), "dtype": model.dtype.name}
    if extra:
        config["run"] = extra
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(b"KFC1" + struct.pack("<II", 1, len(blob)) + blob)
    state = model.state()
    out.write(struct.pack("<I", len(state)))
    for name in sorted(state):
        raw = name.encode("utf-8")
        out.write(struct.pack("<H", len(raw)) + raw)
        arr = state[name]
        out.write(b"KFT1" + struct.pack(
            f"<BB{arr.ndim}I", {"float32": 0, "float64": 1}[arr.dtype.name],
            arr.ndim, *arr.shape) + arr.astype(arr.dtype.newbyteorder("<"))
            .tobytes())
    return out.getvalue()
