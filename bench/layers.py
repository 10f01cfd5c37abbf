"""Per-layer instrumentation of the stormkan package and the metrics
derived from its spans.

``instrument`` wraps, from outside the package, every public function
and public method of the measured modules, plus two narrower
boundaries: each op's backward closure (wrapped as it is handed to
``Tape.record``) and ``Session._exec`` (one span per static-graph node,
named by node kind).  ``layer_metrics`` turns the spans of one traced
phase into the per-layer table; every ``*_ms`` figure there is self
time per operation (per request, SGD step or batch), so the rows of a
workload add up to roughly its traced operation time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict

from spans import Patches, Tracer, public_callables, self_times, traced_attribute

MIB = 2**20

# stormkan.cli is a thin argparse shell over these and is not measured
MODULES = ("tensor", "tape", "ops", "spline", "model", "training", "data",
           "staticgraph")

NAMED_OPS = ("conv2d", "maxpool2d", "ring_pool", "adaptive_avgpool2d", "lstm")
NODE_KINDS = ("conv2d", "maxpool2d", "avgpool2d", "spline_basis", "add")

# metric -> spans whose self time it sums
SPAN_GROUPS = {
    "spline.bspline_basis.fwd_ms": ("spline.bspline_basis",
                                    "spline.bspline_basis_values"),
    "spline.bspline_basis.bwd_ms": ("bwd.bspline_basis",),
    "spline.kan_linear.self_ms": ("spline.KanLinear.forward",),
    "tape.backprop_self_ms": ("tape.Tape.backprop",),
    "model.temporal_ms": ("model.CycloneNet.temporal_features",
                          "model.LstmLayer.forward"),
    "model.spatial_ms": ("model.CycloneNet.spatial_features",
                         "model.Conv2dLayer.forward"),
    "model.rings_ms": ("model.CycloneNet.ring_features",),
    "model.heads_ms": ("model.AttentionHead.forward",
                       "model.CycloneNet.physics_constraint"),
    "model.decode_ms": ("model.CycloneNet.fuse_decode",),
    "training.collate_ms": ("training.collate",),
    "training.loss_ms": ("training.multitask_loss", "training.mae_loss"),
    "training.sgd_step_ms": ("training.sgd_step",),
    "training.evaluate_ms": ("training.evaluate", "training.predict"),
}


def _ms(*names):
    return [(n, "ms", "lower") for n in names]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(
    _ms("ops.conv2d.fwd_ms", "ops.conv2d.bwd_ms")
    + [("ops.conv2d.calls", "count", "lower"),
       ("ops.conv2d.im2col_mib", "MiB", "lower"),
       ("ops.conv2d.gflop", "GFLOP", "lower")]
    + _ms(*(f"ops.{op}.{d}_ms" for op in NAMED_OPS[1:] + ("other",)
            for d in ("fwd", "bwd")))
    + [("ops.out_mib", "MiB", "lower"),
       ("tape.nodes", "count", "lower"),
       ("tape.record_calls", "count", "lower")]
    + _ms(*SPAN_GROUPS)
    + [("data.generate_ms_per_sample", "ms", "lower"),
       ("data.save_mib_per_s", "MiB/s", "higher"),
       ("data.load_mib_per_s", "MiB/s", "higher")]
    + _ms("staticgraph.export_ms", "staticgraph.save_ms",
          "staticgraph.load_ms", "staticgraph.session_init_ms")
    + [("staticgraph.nodes", "count", "lower"),
       ("staticgraph.constant_values", "count", "lower"),
       ("staticgraph.graph_bytes", "bytes", "lower")]
    + _ms(*(f"staticgraph.node.{kind}_ms" for kind in NODE_KINDS + ("other",)))
    + _ms("staticgraph.tape_reference_ms")
    + [("trace.overhead_share", "ratio", "lower")]
)


# ---------------------------------------------------------------------------
# conv2d work computed from shapes (not measured)


def conv_out_hw(h, w, kh, kw, stride, padding, dilation):
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (w + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    return oh, ow


def im2col_bytes(x_shape, w_shape, itemsize, stride, padding, dilation):
    """Bytes of the [Cin*kh*kw, B*OH*OW] column matrix one forward packs.

    Zero for the 1x1/stride-1/unpadded case, which skips im2col.
    """
    bsz, cin, h, w = x_shape
    _, _, kh, kw = w_shape
    if (kh, kw, stride, padding, dilation) == (1, 1, 1, 0, 1):
        return 0
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding, dilation)
    return cin * kh * kw * bsz * oh * ow * itemsize


def conv_flops(x_shape, w_shape, itemsize, stride, padding, dilation):
    """Forward floating-point operations: 2 per multiply-add, bias excluded."""
    bsz, cin, h, w = x_shape
    cout, _, kh, kw = w_shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding, dilation)
    return 2 * bsz * cout * cin * kh * kw * oh * ow


# ---------------------------------------------------------------------------
# instrumentation


def _conv_note(signature):
    def note(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        x, w = a["x"].data, a["w"].data
        return (x.shape, w.shape, x.dtype.itemsize, a["stride"],
                a["padding"], a["dilation"])
    return note


def _traced_record(tracer: Tracer, record):
    def traced(self, op, inputs, output, backward):
        tracer.notes["tape.Tape.record"].append(getattr(output, "nbytes", 0))
        if backward is not None:
            backward = tracer.wrap("bwd." + op, backward)
        idx = tracer.open("tape.Tape.record")
        try:
            return record(self, op, inputs, output, backward)
        finally:
            tracer.close(idx)
    return traced


def _traced_exec(tracer: Tracer, execute, span_of_op):
    def traced(self, node, scratch):
        idx = tracer.open(span_of_op.get(node.op, "staticgraph.node.other"))
        try:
            return execute(self, node, scratch)
        finally:
            tracer.close(idx)
    return traced


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the measured stormkan modules; ``patches.undo()`` removes it."""
    mods = {short: importlib.import_module(f"stormkan.{short}")
            for short in MODULES}
    ops, sg = mods["ops"], mods["staticgraph"]
    notes = {"ops.conv2d": _conv_note(inspect.signature(ops.conv2d))}

    replaced = {}
    for mod in mods.values():
        for owner, attr, name, raw in public_callables(mod):
            if name == "tape.Tape.record":
                new = _traced_record(tracer, raw)
            else:
                new = traced_attribute(tracer, name, raw, notes.get(name))
            patches.set(owner, attr, new)
            if owner is mod:
                replaced[id(raw)] = (raw, new)
    span_of_op = {getattr(sg, kind.upper()): f"staticgraph.node.{kind}"
                  for kind in NODE_KINDS}
    patches.set(sg.Session, "_exec",
                _traced_exec(tracer, vars(sg.Session)["_exec"], span_of_op))

    # functions imported by name into other modules keep the original
    # object there; point those names at the wrapper too
    for name in sorted(sys.modules):
        mod = sys.modules[name]
        if mod is None or not (name == "stormkan"
                               or name.startswith("stormkan.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                patches.set(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# spans -> per-layer table


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation metrics of one traced phase (0 for absent layers)."""
    spans = tracer.spans()
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        self_ms[name] += own * 1e3
        calls[name] += 1
    n = max(n_ops, 1)
    out = {}
    for op in NAMED_OPS:
        out[f"ops.{op}.fwd_ms"] = self_ms[f"ops.{op}"] / n
        out[f"ops.{op}.bwd_ms"] = self_ms[f"bwd.{op}"] / n
    named_fwd = {f"ops.{op}" for op in NAMED_OPS}
    named_bwd = {f"bwd.{op}" for op in NAMED_OPS + ("bspline_basis",)}
    out["ops.other.fwd_ms"] = sum(
        v for k, v in self_ms.items()
        if k.startswith("ops.") and k not in named_fwd) / n
    out["ops.other.bwd_ms"] = sum(
        v for k, v in self_ms.items()
        if k.startswith("bwd.") and k not in named_bwd) / n

    convs = tracer.notes.get("ops.conv2d", [])
    out["ops.conv2d.calls"] = calls["ops.conv2d"] / n
    out["ops.conv2d.im2col_mib"] = sum(im2col_bytes(*c) for c in convs) / MIB / n
    out["ops.conv2d.gflop"] = sum(conv_flops(*c) for c in convs) / 1e9 / n
    out["ops.out_mib"] = sum(tracer.notes.get("tape.Tape.record", [])) / MIB / n
    out["tape.nodes"] = (calls["tape.Tape.record"] + calls["tape.Tape.leaf"]) / n
    out["tape.record_calls"] = calls["tape.Tape.record"] / n

    for metric, names in SPAN_GROUPS.items():
        out[metric] = sum(self_ms[s] for s in names) / n
    for kind in NODE_KINDS + ("other",):
        out[f"staticgraph.node.{kind}_ms"] = self_ms[f"staticgraph.node.{kind}"] / n
    return out


def write_spans(path, tracer: Tracer, header: dict) -> None:
    """Spans as [name index, start, end, parent] rows, names listed once."""
    index: dict[str, int] = {}
    rows = []
    for name, start, end, parent in tracer.spans():
        rows.append([index.setdefault(name, len(index)), round(start, 7),
                     round(end, 7), parent])
    with open(path, "w") as fp:
        json.dump({**header, "names": list(index), "spans": rows}, fp,
                  separators=(",", ":"))
