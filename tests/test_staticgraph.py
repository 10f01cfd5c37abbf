"""Deployment lowering, serialization, interpreter."""

import dataclasses
import math
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stormkan import ops, staticgraph
from stormkan.errors import ExportError, GraphError, ShapeError, StormkanError
from stormkan.model import COMPRESSED, FLAT_SEQ, ModelConfig, build_model
from stormkan.spline import (SplineGrid, bspline_basis,
                             precompute_basis_coefficients)
from stormkan.staticgraph import (ADD, AVGPOOL2D, CONCAT, CONV2D, MATMUL,
                                  MAXPOOL2D, MEAN, MUL, RELU, RESHAPE, SILU,
                                  SLICE, SOFTMAX, SPLINE_BASIS, TANH,
                                  TRANSPOSE, GraphNode, Session, StaticGraph,
                                  bench, export, load_graph, save_graph)
from stormkan.tape import Tape
from stormkan.tensor import read_container, write_container
from stormkan.training import multitask_loss, sgd_step

from helpers import (container_sections, graph_bytes, naive_conv2d,
                     naive_maxpool2d, one_node_graph, one_node_parts,
                     tensor_paddings)

rng = np.random.default_rng(31)

DEPLOY_TINY = ModelConfig(image_hw=40, r_center=20, ring_count=9,
                          variant="deploy")


def tiny_io(seed=0):
    r = np.random.default_rng(seed)
    return (r.uniform(0, 1, (1, 15)).astype(np.float32),
            r.uniform(0, 1, (1, 8, 40, 40)).astype(np.float32))


@pytest.fixture(scope="module")
def deploy_graph():
    model = build_model(DEPLOY_TINY, seed=2)
    return model, export(model)


@pytest.fixture(scope="module")
def full_size_graph():
    cfg = ModelConfig(variant="deploy")
    assert (cfg.image_hw, cfg.ring_count) == (156, 39)
    model = build_model(cfg, seed=4)
    return model, export(model)


def conv_graph(x_shape, w, b, stride, padding, dilation, relu=0, pool=0):
    return one_node_graph(CONV2D, (stride, padding, dilation, relu, pool),
                          x_shape, (w, b))


def assert_invalid(parts, match):
    """Graph parts that are invalid raise GraphError when constructed,
    and when their bytes are loaded."""
    with pytest.raises(GraphError, match=match):
        StaticGraph(*parts)
    with pytest.raises(GraphError, match=match):
        load_graph(graph_bytes(*parts))


def conv_reference(x, w, b, stride, padding, dilation, relu, pool):
    """naive conv -> + b -> ReLU -> 2x2 max-pool, each after the conv
    optional but the bias (float64)."""
    y = naive_conv2d(x.astype(np.float64), w.astype(np.float64), stride,
                     padding, dilation) + b.reshape(1, -1, 1, 1)
    if relu:
        y = np.maximum(y, 0)
    return naive_maxpool2d(y, 2, 2) if pool else y


class TestExport:
    def test_full_variant_rejected_naming_lstm(self):
        model = build_model(ModelConfig(image_hw=40, r_center=20,
                                        ring_count=9), seed=1)
        with pytest.raises(ExportError, match="lstm"):
            export(model)

    def test_no_adaptive_pool_nodes_and_kernel_limit(self, deploy_graph):
        # no pool node is left: quadrants and rings are matmuls, and the
        # only max-pool is conv2's fixed 2x2 pool flag
        _, graph = deploy_graph
        assert not {AVGPOOL2D, MAXPOOL2D} & {n.op for n in graph.nodes}
        pools = [n.attrs[4] for n in graph.nodes if n.op == CONV2D]
        assert pools == [0, 1] + [0] * 5

    def test_spatial_tail_runs_on_tap_grids(self, deploy_graph):
        # only conv1 and conv2 see maps larger than a 6x6 tap grid
        _, graph = deploy_graph
        convs = [graph.shapes[n.inputs[0]]
                 for n in graph.nodes if n.op == CONV2D]
        assert len(convs) == 7
        assert [s[2] > 6 for s in convs] == [True] * 2 + [False] * 5

    def test_full_size_graph_fuses_the_conv_epilogue(self, full_size_graph):
        # every bias, the trunk's ReLUs and its max-pool are CONV2D
        # inputs and attributes, and conv1 streams into conv2, so no
        # full-resolution map is a value of the Session.  The only ADDs
        # that read a conv are the sums of the dilated branches, which
        # read no constant.
        _, graph = full_size_graph
        assert len(graph.nodes) == 124
        convs = {n.output for n in graph.nodes if n.op == CONV2D}
        assert len(convs) == 7
        first = len(graph.inputs)
        consts = set(range(first, first + len(graph.constants)))
        for n in graph.nodes:
            if convs & set(n.inputs):
                assert n.op not in (RELU, MAXPOOL2D)
                assert n.op != ADD or not consts & set(n.inputs)
        assert [n.attrs[3:] for n in graph.nodes if n.op == CONV2D] == [
            (1, 0), (1, 1)] + [(0, 0)] * 5
        shapes = [v.shape for v in Session(graph)._values if v is not None]
        assert (1, 32, 78, 78) in shapes
        assert not {(1, 16, 156, 156), (1, 32, 156, 156)} & set(shapes)

    def test_one_tap_grid_reads_the_trunk(self, deploy_graph):
        # one MATMUL, the first of a pair that computes every tail conv's
        # tap grid, reads conv2's pooled output; each conv slices its
        # block of the grids
        _, graph = deploy_graph
        conv2 = [n.output for n in graph.nodes if n.op == CONV2D][1]
        readers = [n for n in graph.nodes if conv2 in n.inputs]
        assert [n.op for n in readers] == [MATMUL]
        taps = [n for n in graph.nodes if readers[0].output in n.inputs]
        assert [n.op for n in taps] == [MATMUL]
        blocks = [n for n in graph.nodes if taps[0].output in n.inputs]
        assert [n.op for n in blocks] == [SLICE] * 4

    def test_idempotent_serialization(self, deploy_graph):
        model, _ = deploy_graph
        a = save_graph(export(model))
        b = save_graph(export(model))
        assert a == b

    def test_roundtrip_executes_identically(self, deploy_graph):
        model, graph = deploy_graph
        payload = save_graph(graph)
        back = load_graph(payload)
        assert save_graph(back) == payload
        xs, xi = tiny_io(3)
        out1 = Session(graph).run({"x_seq_flat": xs, "x_img": xi})
        out2 = Session(back).run({"x_seq_flat": xs, "x_img": xi})
        assert np.array_equal(out1["y_msw"], out2["y_msw"])
        assert np.array_equal(out1["y_rmw"], out2["y_rmw"])

    def test_graph_owns_its_constants(self):
        # an in-place SGD step on the model after export changes neither
        # the graph's bytes nor its outputs
        model = build_model(DEPLOY_TINY, seed=3)
        graph = export(model)
        blob = save_graph(graph)
        xs, xi = tiny_io(4)
        inputs = {"x_seq_flat": xs, "x_img": xi}
        before = Session(graph).run(inputs)
        tape = Tape()
        ym, yr = model.forward_deploy(tape, xs, xi)
        target = tape.constant(np.zeros((1, 1), np.float32))
        sgd_step(model.parameters(),
                 tape.backprop(multitask_loss(ym, yr, target, target)), 0.1)
        assert save_graph(export(model)) != blob   # the step moved weights
        assert save_graph(graph) == blob
        after = Session(graph).run(inputs)
        for name in ("y_msw", "y_rmw"):
            assert np.array_equal(before[name], after[name])

    def test_load_graph_copies_no_constant(self, full_size_graph):
        # every constant's data sits at a 64-byte offset of the bytes
        # payload, so the graph keeps the container's read-only views
        blob = save_graph(full_size_graph[1])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = load_graph(blob)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        constants = sum(arr.nbytes for arr in graph.constants)
        assert constants > 900_000
        assert peak < 0.15 * constants
        raw = np.frombuffer(blob, np.uint8)
        for arr in graph.constants:
            assert np.shares_memory(arr, raw)
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_load_graph_of_a_memoryview_copies_no_payload(
            self, full_size_graph):
        # the container's fields are read through the view: neither the
        # payload nor a constant is copied while it loads
        blob = save_graph(full_size_graph[1])
        view = memoryview(blob)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = load_graph(view)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        constants = sum(arr.nbytes for arr in graph.constants)
        assert constants > 900_000
        assert peak < 0.15 * constants
        raw = np.frombuffer(blob, np.uint8)
        assert all(np.shares_memory(arr, raw) for arr in graph.constants)

    def test_mutable_or_unaligned_payload_constants_are_copies(
            self, deploy_graph):
        # a bytearray can change after loading, even behind a read-only
        # view, and an odd start leaves the data unaligned: the graph
        # copies the constants of all three
        _, graph = deploy_graph
        blob = save_graph(graph)
        inputs = dict(zip(("x_seq_flat", "x_img"), tiny_io(5)))
        before = Session(graph).run(inputs)
        sources = [bytearray(blob), bytearray(blob)]
        loaded = [load_graph(sources[0]),
                  load_graph(memoryview(sources[1]).toreadonly())]
        for source in sources:
            source[:] = bytes(len(source))
        odd = b"x" + blob
        shifted = load_graph(memoryview(odd)[1:])
        raw = np.frombuffer(odd, np.uint8)
        assert not any(np.shares_memory(arr, raw)
                       for arr in shifted.constants)
        for back in (*loaded, shifted):
            assert save_graph(back) == blob
            after = Session(back).run(inputs)
            for name in ("y_msw", "y_rmw"):
                assert np.array_equal(before[name], after[name])

    def test_tensor_data_at_aligned_offsets(self, deploy_blob):
        _, tensors = read_container(deploy_blob, staticgraph.MAGIC,
                                    staticgraph.VERSION)
        base = np.frombuffer(deploy_blob, np.uint8).ctypes.data
        assert tensors and all((arr.ctypes.data - base) % 64 == 0
                               for arr in tensors.values())

    def test_save_graph_copies_constants_once(self, full_size_graph):
        # each constant's buffer goes straight into the one output bytes
        graph = full_size_graph[1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blob = save_graph(graph)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(blob) < 1_000_000
        assert peak <= 1.1 * len(blob)

    def test_shapes_inferred_once_per_graph(self, deploy_graph, monkeypatch):
        # export and load_graph each construct a graph, which runs the
        # shape rule once per node; save_graph and Session run it never
        calls = []
        rule = staticgraph._infer_shape
        monkeypatch.setattr(staticgraph, "_infer_shape",
                            lambda *args: calls.append(1) or rule(*args))
        graph = export(deploy_graph[0])
        Session(load_graph(save_graph(graph)))
        assert len(calls) == 2 * len(graph.nodes)


class TestValidation:
    def test_graph_is_frozen(self, deploy_graph):
        _, graph = deploy_graph
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.nodes = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.nodes[0].op = RELU
        with pytest.raises(ValueError, match="read-only"):
            graph.constants[0][...] = 0.0
        assert isinstance(graph.nodes, tuple)
        # an edited copy is validated like any other graph
        bad = dataclasses.replace(graph.nodes[-1], inputs=(graph.n_values,))
        with pytest.raises(GraphError, match="undefined"):
            dataclasses.replace(graph, nodes=graph.nodes[:-1] + (bad,))

    def test_bad_magic(self):
        with pytest.raises(GraphError):
            load_graph(b"NOPE" + b"\x00" * 64)

    def test_truncated_payload(self, deploy_graph):
        _, graph = deploy_graph
        payload = save_graph(graph)
        with pytest.raises(GraphError):
            load_graph(payload[: len(payload) // 3])

    def test_trailing_bytes_rejected(self, deploy_graph):
        payload = save_graph(deploy_graph[1])
        with pytest.raises(GraphError, match="trailing"):
            load_graph(payload + b"junk")

    def test_overstated_section_length_rejected(self, deploy_graph):
        # the JSON header claims 4 bytes more than its content, and 4 zero
        # bytes follow the content so the tensors after it still parse
        payload = save_graph(deploy_graph[1])
        (n,) = struct.unpack_from("<I", payload, 8)
        assert payload[12:12 + n].endswith(b"}")
        bad = (payload[:8] + struct.pack("<I", n + 4) + payload[12:12 + n]
               + bytes(4) + payload[12 + n:])
        with pytest.raises(GraphError, match="JSON header"):
            load_graph(bad)

    def test_deeply_nested_header_rejected(self, deploy_graph):
        # json.loads raises RecursionError on this, not a JSON error
        payload = save_graph(deploy_graph[1])
        (n,) = struct.unpack_from("<I", payload, 8)
        deep = b"[" * 100_000
        bad = (payload[:8] + struct.pack("<I", len(deep)) + deep
               + payload[12 + n:])
        with pytest.raises(GraphError, match="JSON header"):
            load_graph(bad)

    def test_misnumbered_node_output_not_saved(self):
        # the file stores no output id, so no graph holds a node whose
        # output is not the next value id: there is none to save
        inputs, consts, (node,), outputs = one_node_parts(RELU, (), (2, 2))
        with pytest.raises(GraphError, match="contiguous"):
            StaticGraph(inputs, consts,
                        [dataclasses.replace(node, output=2)], outputs)

    def test_maxpool_op_rejected_at_load(self):
        # no node op is a pool: the pool is a CONV2D attribute
        assert_invalid(one_node_parts(MAXPOOL2D, (2, 2), (1, 1, 4, 4)),
                       "unknown op 'maxpool2d'")

    def test_version_1_graph_rejected(self, deploy_graph):
        # version 1 held average pools, version 2 max-pool and bias nodes,
        # version 3 had its own section layout, version 4 numbered its ops,
        # version 5 put tensor data right after its header
        payload = save_graph(deploy_graph[1])
        assert struct.unpack_from("<I", payload, 4) == (6,)
        load_graph(payload)
        for version in (1, 2, 3, 4, 5):
            old = payload[:4] + struct.pack("<I", version) + payload[8:]
            with pytest.raises(GraphError, match=rf"version {version} .*\.kfc"):
                load_graph(old)

    @pytest.mark.parametrize("attrs,bias,x_shape,match", [
        ((1, 1, 1, 2, 0), 3, (1, 2, 6, 6), "0 or 1"),
        ((1, 1, 1, 0, -1), 3, (1, 2, 6, 6), "0 or 1"),
        ((1, 1, 1, 0, 0), 2, (1, 2, 6, 6), r"bias \(2,\) must be \[3\]"),
        ((1, 1, 1, 1, 1), 3, (1, 2, 7, 6), "even conv output extents"),
        ((1, 1, 1, 0, 1), 3, (1, 2, 6, 5), "even conv output extents"),
    ], ids=["relu_2", "pool_-1", "bias_2_of_3", "pool_odd_rows",
            "pool_odd_cols"])
    def test_bad_conv_rejected(self, attrs, bias, x_shape, match):
        assert_invalid(one_node_parts(CONV2D, attrs, x_shape,
                                      (np.ones((3, 2, 3, 3)), np.ones(bias))),
                       match)


GRID_COEFFS = precompute_basis_coefficients(SplineGrid())   # [5, 8, 4]


def spline_parts(coeffs=GRID_COEFFS, meta=(-1.0, 0.4, 5.0)):
    return one_node_parts(SPLINE_BASIS, (), (4, 3), (coeffs, meta))


def spline_graph():
    return StaticGraph(*spline_parts())


class TestSplineValidation:
    """load_graph checks what the SPLINE_BASIS kernel indexes by."""

    def test_nan_input_gives_nan_bases(self):
        # quietly: the tape op and the node share the Horner kernel
        x = np.zeros((4, 3), np.float32)
        x[0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [Session(spline_graph()).run({"x": x})["y"],
                    bspline_basis(Tape().constant(x), SplineGrid()).data]
        for out in outs:
            assert np.isnan(out[0]).all() and np.isfinite(out[1:]).all()

    @pytest.mark.parametrize("meta", [
        (math.nan, 0.4, 5.0),    # lo not finite
        (-1.0, 0.4, math.nan),   # n_intervals not finite
        (-1.0, 0.4, 7.0),        # 7 intervals, 5 coefficient rows
        (-1.0, 0.0, 5.0),        # step 0
        (-1.0, 0.4, 2.5),        # n_intervals not integral
    ], ids=["nan_lo", "nan_intervals", "intervals_7_rows_5", "step_0",
            "intervals_2.5"])
    def test_bad_meta_rejected(self, meta):
        assert_invalid(spline_parts(meta=meta), "spline meta")

    def test_rank_1_coefficients_rejected(self):
        assert_invalid(spline_parts(coeffs=np.ones(5)), "coefficients")

    def test_coefficients_and_meta_must_be_constants(self):
        assert_invalid(([("x", (4, 3)), ("meta", (3,))],
                        [GRID_COEFFS.astype(np.float32)],
                        [GraphNode(SPLINE_BASIS, (), (0, 2, 1), 3)],
                        [("y", 3)]), "constants")


class TestCorruptBytes:
    def test_invalid_utf8_input_name(self):
        blob = save_graph(spline_graph())
        assert blob.count(b'[["x", ') == 1    # the first input's name
        pos = blob.index(b'[["x", ') + 3
        with pytest.raises(GraphError, match="JSON header"):
            load_graph(blob[:pos] + b"\xff" + blob[pos + 1:])

    @pytest.mark.parametrize("names", [("2", "1"), ("1", "3"), ("01", "2")],
                             ids=["swapped", "gap", "leading_zero"])
    def test_constants_named_by_consecutive_value_ids(self, names):
        header, tensors = read_container(
            save_graph(spline_graph()), staticgraph.MAGIC, staticgraph.VERSION)
        assert list(tensors) == ["1", "2"]
        renamed = dict(zip(names, tensors.values()))
        with pytest.raises(GraphError, match="consecutive value ids"):
            load_graph(write_container(staticgraph.MAGIC, staticgraph.VERSION,
                                       header, renamed))

    def test_float64_constant_rejected(self):
        header, tensors = read_container(
            save_graph(spline_graph()), staticgraph.MAGIC, staticgraph.VERSION)
        tensors["2"] = tensors["2"].astype(np.float64)
        with pytest.raises(GraphError, match="float32"):
            load_graph(write_container(staticgraph.MAGIC, staticgraph.VERSION,
                                       header, tensors))

    def test_nonzero_padding_rejected(self, deploy_blob):
        for start, end in tensor_paddings(deploy_blob):
            bad = deploy_blob[:end - 1] + b"\x01" + deploy_blob[end:]
            with pytest.raises(GraphError, match="nonzero padding"):
                load_graph(bad)

    def test_payload_cut_inside_padding_rejected(self, deploy_blob):
        paddings = tensor_paddings(deploy_blob)
        assert paddings
        for start, end in paddings:
            with pytest.raises(GraphError, match="truncated"):
                load_graph(deploy_blob[:(start + end) // 2])

    def test_bad_constant_blob(self):
        blob = save_graph(spline_graph())
        pos = blob.index(b"KFT1")
        with pytest.raises(GraphError):
            load_graph(blob[:pos] + b"XXXX" + blob[pos + 4:])


FUZZ_RUN_BYTES = 64 * 2**20   # declared buffers beyond this: load only


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=8)


def json_paths(tree, path=()):
    """The key path of every subtree of a parsed JSON value, the root's
    included."""
    yield path
    if isinstance(tree, (list, dict)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from json_paths(value, path + (key,))


@pytest.fixture(scope="module")
def deploy_blob(deploy_graph):
    return save_graph(deploy_graph[1])


class TestFuzzLoad:
    """Byte mutations of the tiny deploy graph: load_graph, and a Session
    run of whatever loads, raise only StormkanError subclasses.  A
    mutated constant may make a MATMUL overflow, which warns."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_mutations_fail_typed(self, deploy_blob, data):
        blob = bytearray(deploy_blob)
        start, end = data.draw(
            st.sampled_from(container_sections(deploy_blob)))
        pos = data.draw(st.integers(start, end - 1))
        kind = data.draw(st.sampled_from(
            ["overwrite", "insert", "delete", "truncate"]))
        chunk = data.draw(st.binary(min_size=1, max_size=8))
        if kind == "overwrite":
            blob[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            blob[pos:pos] = chunk
        elif kind == "delete":
            del blob[pos:pos + len(chunk)]
        else:
            del blob[pos:]
        try:
            graph = load_graph(bytes(blob))
        except StormkanError:
            return
        declared = sum(math.prod(s) for s in graph.shapes) * 4
        if declared > FUZZ_RUN_BYTES:
            return
        r = np.random.default_rng(0)
        inputs = {name: r.uniform(0, 1, shape).astype(np.float32)
                  for name, shape in graph.inputs}
        try:
            Session(graph).run(inputs)
        except StormkanError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_header_mutations_fail_typed(self, deploy_blob, data):
        # 1-3 leaves or subtrees of the JSON header replaced by random JSON
        # values, the constants kept: load_graph raises only GraphError
        header, tensors = read_container(deploy_blob, staticgraph.MAGIC,
                                         staticgraph.VERSION)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(json_paths(header))))
            value = data.draw(JSON_VALUES)
            if not path:
                header = value
                continue
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        blob = write_container(staticgraph.MAGIC, staticgraph.VERSION, header,
                               tensors)
        try:
            graph = load_graph(blob)
        except GraphError:
            return
        declared = sum(math.prod(s) for s in graph.shapes) * 4
        if declared > FUZZ_RUN_BYTES:
            return
        try:
            Session(graph).run({name: np.ones(s, np.float32)
                                for name, s in graph.inputs})
        except StormkanError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_graphs_fail_typed(self, data):
        # small random op lists: wrong arity, attrs and shapes included
        shape = st.lists(st.integers(1, 4), max_size=4).map(tuple)
        inputs = [(f"x{i}", s) for i, s in enumerate(
            data.draw(st.lists(shape, min_size=1, max_size=2)))]
        consts = [np.ones(s, np.float32)
                  for s in data.draw(st.lists(shape, max_size=2))]
        nodes = []
        for n in range(data.draw(st.integers(1, 3))):
            vid = len(inputs) + len(consts) + n
            # half the nodes are convs, half of those of the right arity
            op = data.draw(st.one_of(st.just(CONV2D), st.sampled_from(
                sorted(staticgraph._ARITY) + [MAXPOOL2D, AVGPOOL2D])))
            arity = (3, 5) if op == CONV2D and data.draw(st.booleans()) \
                else (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 5)))
            nodes.append(GraphNode(
                op,
                tuple(data.draw(st.lists(st.integers(-1, 4), min_size=arity[1],
                                         max_size=arity[1]))),
                tuple(data.draw(st.lists(st.integers(0, vid - 1),
                                         min_size=arity[0],
                                         max_size=arity[0]))), vid))
        parts = (inputs, consts, nodes, [("y", vid)])
        try:
            StaticGraph(*parts)
        except GraphError:
            # the same graph as bytes fails to load too
            with pytest.raises(GraphError):
                load_graph(graph_bytes(*parts))
            return
        graph = load_graph(graph_bytes(*parts))
        try:
            Session(graph).run({name: np.ones(s, np.float32)
                                for name, s in graph.inputs})
        except StormkanError:
            pass


# every exportable model kind: the LinearBlock lowerings (relu, tanh and
# none), the compressed widths, and a float64 model's float32 graph
DEPLOY_MODELS = {
    "tiny": (DEPLOY_TINY, np.float32),
    "all_mlp": (dataclasses.replace(DEPLOY_TINY, mlp_extract=True,
                                    mlp_attention=True, mlp_constraint=True,
                                    mlp_decoder=True), np.float32),
    "compressed": (dataclasses.replace(DEPLOY_TINY, **COMPRESSED),
                   np.float32),
    "float64": (DEPLOY_TINY, np.float64),
}


class TestSession:
    @pytest.mark.parametrize("kind", list(DEPLOY_MODELS))
    def test_matches_dynamic_forward(self, kind):
        cfg, dtype = DEPLOY_MODELS[kind]
        model = build_model(cfg, seed=2, dtype=dtype)
        session = Session(export(model))
        for trial in range(8):
            xs, xi = tiny_io(trial)
            out = session.run({"x_seq_flat": xs, "x_img": xi})
            tape = Tape()
            ym, yr = model.forward_deploy(tape, xs, xi)
            assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
            assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    def test_matches_dynamic_forward_full_size(self, full_size_graph):
        model, graph = full_size_graph
        session = Session(graph)
        r = np.random.default_rng(8)
        for _ in range(2):
            xs = r.uniform(0, 1, (1, FLAT_SEQ)).astype(np.float32)
            xi = r.uniform(0, 1, (1, 8, 156, 156)).astype(np.float32)
            out = session.run({"x_seq_flat": xs, "x_img": xi})
            ym, yr = model.forward_deploy(Tape(), xs, xi)
            assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
            assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    def test_matches_dynamic_forward_overlapping_quadrants(self):
        # spatial extent 127: the two quadrant bins overlap on row 63,
        # which no fixed-stride pool under the kernel limit could express
        cfg = ModelConfig(image_hw=254, r_center=127, variant="deploy")
        model = build_model(cfg, seed=6)
        session = Session(load_graph(save_graph(export(model))))
        r = np.random.default_rng(9)
        xs = r.uniform(0, 1, (1, FLAT_SEQ)).astype(np.float32)
        xi = r.uniform(0, 1, (1, 8, 254, 254)).astype(np.float32)
        out = session.run({"x_seq_flat": xs, "x_img": xi})
        ym, yr = model.forward_deploy(Tape(), xs, xi)
        assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
        assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    def test_matches_dynamic_forward_wide_rings(self):
        # ring 67 is 268 wide: its 134-wide quadrant bins have no
        # average-pool form within the 63-kernel limit
        cfg = ModelConfig(image_hw=276, r_center=137, ring_count=68,
                          variant="deploy")
        model = build_model(cfg, seed=7)
        session = Session(load_graph(save_graph(export(model))))
        r = np.random.default_rng(10)
        xs = r.uniform(0, 1, (1, FLAT_SEQ)).astype(np.float32)
        xi = r.uniform(0, 1, (1, 8, 276, 276)).astype(np.float32)
        out = session.run({"x_seq_flat": xs, "x_img": xi})
        ym, yr = model.forward_deploy(Tape(), xs, xi)
        assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
        assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_conv_epilogue_node_matches_naive_loop(self, bsz, cin, cout, kh,
                                                   kw, stride, padding,
                                                   dilation, ph, pw, seed):
        # every relu x pool combination of one CONV2D node; even output
        # extents, and small integers, so float32 sums are exact and the
        # pool's windows and the ReLU's zeros often tie
        oh, ow = 2 * ph, 2 * pw
        h = (oh - 1) * stride + dilation * (kh - 1) + 1 - 2 * padding
        wid = (ow - 1) * stride + dilation * (kw - 1) + 1 - 2 * padding
        assume(h >= 1 and wid >= 1)
        r = np.random.default_rng(seed)
        w = r.integers(-1, 2, (cout, cin, kh, kw)).astype(np.float32)
        b = r.integers(-2, 3, cout).astype(np.float32)
        for relu in (0, 1):
            for pool in (0, 1):
                session = Session(conv_graph((bsz, cin, h, wid), w, b, stride,
                                             padding, dilation, relu, pool))
                for _ in range(2):   # the second run must not see the first
                    x = r.integers(-2, 3, (bsz, cin, h, wid)).astype(
                        np.float32)
                    np.testing.assert_array_equal(
                        session.run({"x": x})["y"],
                        conv_reference(x, w, b, stride, padding, dilation,
                                       relu, pool))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_conv_node_matches_naive_loop(self, bsz, cin, cout, kh, kw,
                                          stride, padding, dilation, oh, ow,
                                          seed):
        h = (oh - 1) * stride + dilation * (kh - 1) + 1 - 2 * padding
        wid = (ow - 1) * stride + dilation * (kw - 1) + 1 - 2 * padding
        assume(h >= 1 and wid >= 1)
        r = np.random.default_rng(seed)
        w = r.standard_normal((cout, cin, kh, kw)).astype(np.float32)
        b = r.standard_normal(cout).astype(np.float32)
        session = Session(conv_graph((bsz, cin, h, wid), w, b, stride,
                                     padding, dilation))
        for _ in range(2):
            x = r.standard_normal((bsz, cin, h, wid)).astype(np.float32)
            np.testing.assert_allclose(
                session.run({"x": x})["y"],
                conv_reference(x, w, b, stride, padding, dilation, 0, 0),
                rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_conv_node_row_strips(self, monkeypatch, rows):
        """A conv packed, per sample, in strips of `rows` of its 8 output
        rows (the last one shorter when rows does not divide 8) matches
        the naive loop.  With the pool, an odd budget rounds down to an
        even strip (1 up to 2), so every strip pools whole row pairs."""
        bsz, cin, cout, k, stride, padding, dilation = 2, 3, 4, 3, 2, 1, 2
        h = wid = (8 - 1) * stride + dilation * (k - 1) + 1 - 2 * padding
        budget = 4 * cin * k * k * 8 * rows
        monkeypatch.setattr(staticgraph, "SESSION_STRIP_BYTES", budget)
        r = np.random.default_rng(rows)
        w = r.standard_normal((cout, cin, k, k)).astype(np.float32)
        b = r.standard_normal(cout).astype(np.float32)
        for pool in (0, 1):
            session = Session(conv_graph((bsz, cin, h, wid), w, b, stride,
                                         padding, dilation, 1, pool))
            step = max(2, rows - rows % 2) if pool else rows
            # each block is a chunk of samples and a strip of output rows
            plan = ops._conv_plan((bsz, cin, h, wid), w.shape, stride,
                                  padding, dilation, pool, np.float32,
                                  budget, lambda n, dtype: None)
            assert [(c.start, c.stop, r0, n) for c in plan[1]
                    for r0, n in plan[2]] == [
                (b, b + 1, r0, min(step, 8 - r0))
                for b in range(bsz) for r0 in range(0, 8, step)]
            assert session._scratch[0][1:3] == ops._conv_plan(
                (bsz, cin, h, wid), w.shape, stride, padding, dilation, pool,
                np.float32, budget, lambda n, dtype: None, ops.WORKERS)[1:3]
            x = r.standard_normal((bsz, cin, h, wid)).astype(np.float32)
            np.testing.assert_allclose(
                session.run({"x": x})["y"],
                conv_reference(x, w, b, stride, padding, dilation, 1, pool),
                rtol=1e-5, atol=1e-5)

    def test_silu_saturates_quietly(self):
        # exp(100) overflows float32: the tape op and the node give x / inf
        # = -0 at -100, with no RuntimeWarning
        x = np.array([-100.0, 0.5, 100.0], np.float32)
        ref = x.astype(np.float64) / (1.0 + np.exp(-x.astype(np.float64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [ops.silu(Tape().constant(x)).data,
                    Session(one_node_graph(SILU, (), (3,))).run({"x": x})["y"]]
        for out in outs:
            assert out.dtype == np.float32
            np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-38)
            assert out[0] == 0.0 and np.signbit(out[0])
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_wrong_shape_rejected_before_execution(self, deploy_graph):
        _, graph = deploy_graph
        session = Session(graph)
        with pytest.raises(GraphError):
            session.run({"x_seq_flat": np.zeros((1, 14), np.float32),
                         "x_img": np.zeros((1, 8, 40, 40), np.float32)})

    def test_missing_input_rejected(self, deploy_graph):
        _, graph = deploy_graph
        with pytest.raises(GraphError):
            Session(graph).run({"x_img": np.zeros((1, 8, 40, 40), np.float32)})

    def test_no_steady_state_allocation(self, deploy_graph):
        _, graph = deploy_graph
        session = Session(graph)
        xs, xi = tiny_io(1)
        session.run({"x_seq_flat": xs, "x_img": xi})
        before = session.alloc_count
        for _ in range(3):
            session.run({"x_seq_flat": xs, "x_img": xi})
        assert session.alloc_count == before
        # measured: the traced peak inside a warm run, above what was held
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            session.run({"x_seq_flat": xs, "x_img": xi})
            transient = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert transient < 2**20

    def test_one_block(self, full_size_graph):
        # every node output and scratch view is a 64-byte-aligned view of
        # one block, conv1 streams into conv2 and has no buffer, and no
        # two needs whose lives meet share a byte
        _, graph = full_size_graph
        session = Session(graph)
        assert session.alloc_count == 1
        block = session._block
        lo, hi = block.ctypes.data, block.ctypes.data + block.nbytes
        conv1, conv2 = [node for node in graph.nodes if node.op == CONV2D][:2]
        assert session._fed == {conv2.output: conv1}
        last = {}   # per value, its last reader, past the end if returned;
        for i, node in enumerate(graph.nodes):   # conv2 reads conv1's
            for j in node.inputs + (conv1.inputs if node is conv2 else ()):
                last[j] = i
        last.update((vid, len(graph.nodes)) for _, vid in graph.outputs)
        needs = []   # (first node, last node, first byte, end byte)
        for i, (node, scratch) in enumerate(zip(graph.nodes,
                                                session._scratch)):
            out = session._values[node.output]
            if node is conv1:
                assert out is None and scratch is None
                continue
            views = [v for v in scratch
                     if isinstance(v, np.ndarray) and v.nbytes]
            for v in [out, *views]:
                assert v.ctypes.data % 64 == 0
                assert lo <= v.ctypes.data and v.ctypes.data + v.nbytes <= hi
            needs.append((i, last.get(node.output, i), out.ctypes.data,
                          out.ctypes.data + out.nbytes))
            needs += [(i, i, v.ctypes.data, v.ctypes.data + v.nbytes)
                      for v in views]
        for k, (f1, l1, a1, b1) in enumerate(needs):
            for f2, l2, a2, b2 in needs[k + 1:]:
                if f1 <= l2 and f2 <= l1:
                    assert b1 <= a2 or b2 <= a1
        assert block.nbytes <= 2.25e6

    def test_buffers_hold_no_state(self, full_size_graph):
        # whatever the block holds before a run, it gives the bits of a
        # fresh session
        _, graph = full_size_graph
        r = np.random.default_rng(12)
        inputs = {name: r.uniform(0, 1, shape).astype(np.float32)
                  for name, shape in graph.inputs}
        fresh = Session(graph).run(inputs)
        session = Session(graph)
        session._block.view(np.float32).fill(np.nan)
        out = session.run(inputs)
        for name in fresh:
            assert out[name].tobytes() == fresh[name].tobytes()

    def test_grid_border_zeroed_after_earlier_nodes_use_it(self):
        # the RELU's output is last read by the SLICE, so the bands that
        # conv a streams into conv b through are planned over its bytes:
        # their zero borders must be zeroed when b runs, not when the
        # run starts
        r = np.random.default_rng(13)
        consts = [r.standard_normal(shape).astype(np.float32)
                  for shape in ((2, 8, 3, 3), (2,), (3, 2, 3, 3), (3,))]
        nodes = [GraphNode(RELU, (), (0,), 5),
                 GraphNode(SLICE, (0, 1, 0, 8, 0, 12, 0, 12), (5,), 6),
                 GraphNode(CONV2D, (1, 1, 1, 1, 0), (6, 1, 2), 7),
                 GraphNode(CONV2D, (1, 1, 1, 0, 0), (7, 3, 4), 8)]
        graph = StaticGraph([("x", (1, 8, 200, 12))], consts, nodes,
                            [("y", 8)])
        session = Session(graph)
        assert session._fed == {8: nodes[2]}
        bands = session._scratch[3][1:3]   # worker 0's input band and band
        assert all(np.shares_memory(band, session._values[5])
                   for band in bands)
        session._block.view(np.float32).fill(np.nan)
        x = r.standard_normal((1, 8, 200, 12)).astype(np.float32)
        tape = Tape()
        w = [tape.constant(c) for c in consts]
        a = ops.conv2d(ops.relu(tape.constant(x[:, :, :12])), w[0], w[1], 1,
                       1, relu=True)
        ref = ops.conv2d(a, w[2], w[3], 1, 1).data
        for _ in range(2):
            assert session.run({"x": x})["y"].tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4),
                              st.integers(1, 300)), max_size=30))
    def test_first_fit_keeps_live_needs_apart(self, raw):
        # needs in order of their first node: each aligned, no two that
        # are live at once share a byte, and the span is at least the
        # most bytes live at once
        needs, first = [], 0
        for step, life, nbytes in raw:
            first += step
            needs.append((first, first + life, nbytes))
        offsets, end = staticgraph._first_fit(needs)
        assert len(offsets) == len(needs)
        assert all(at % 64 == 0 for at in offsets)
        spans = [(f, l, at, at + n)
                 for (f, l, n), at in zip(needs, offsets)]
        assert all(b <= end for *_, b in spans)
        for k, (f1, l1, a1, b1) in enumerate(spans):
            for f2, l2, a2, b2 in spans[k + 1:]:
                if f1 <= l2 and f2 <= l1:
                    assert b1 <= a2 or b2 <= a1
        assert end >= max((sum(n for f, l, n in needs if f <= t <= l)
                           for t in range(first + 5)), default=0)

    @pytest.mark.parametrize("c_pad", [None, 1, 2])
    def test_padded_handoff(self, c_pad):
        # conv a's output is read by conv b at padding 1 and, unless
        # None, by conv c at c_pad: read by b alone, a streams into b and
        # has no buffer, else it is a plain value that each reader pads;
        # each gives the tape's bits
        r = np.random.default_rng(5)
        consts = [r.standard_normal(shape).astype(np.float32)
                  for cin in (3, 4, 4) for shape in ((4, cin, 3, 3), (4,))]
        nodes = [GraphNode(CONV2D, (1, 1, 1, 1, 0), (0, 1, 2), 7),
                 GraphNode(CONV2D, (1, 1, 1, 1, 1), (7, 3, 4), 8)]
        if c_pad:
            nodes.append(GraphNode(CONV2D, (1, c_pad, 1, 0, 0), (7, 5, 6), 9))
        graph = StaticGraph([("x", (2, 3, 12, 12))], consts, nodes,
                            [("b", 8), ("c", 9)][:len(nodes) - 1])
        session = Session(graph)
        if c_pad is None:
            assert session._fed == {8: nodes[0]}
            assert session._values[7] is None
        else:
            assert session._fed == {}
            assert session._values[7].shape == (2, 4, 12, 12)
        x = r.standard_normal((2, 3, 12, 12)).astype(np.float32)
        out = session.run({"x": x})
        tape = Tape()
        w = [tape.constant(c) for c in consts]
        a = ops.conv2d(tape.constant(x), w[0], w[1], 1, 1, relu=True)
        refs = {"b": ops.conv2d(a, w[2], w[3], 1, 1, relu=True, pool=True),
                "c": c_pad and ops.conv2d(a, w[4], w[5], 1, c_pad)}
        for name in out:
            assert out[name].tobytes() == refs[name].data.tobytes()

    def test_streams_pairs_not_chains(self):
        # in a chain of three stride-1 convs, a streams into b, and b,
        # whose node runs a, keeps its output for c; the tape's bits
        r = np.random.default_rng(6)
        consts = [r.standard_normal(shape).astype(np.float32)
                  for cin in (3, 4, 4) for shape in ((4, cin, 3, 3), (4,))]
        nodes = [GraphNode(CONV2D, (1, 1, 1, 1, 0), (0, 1, 2), 7),
                 GraphNode(CONV2D, (1, 1, 1, 1, 0), (7, 3, 4), 8),
                 GraphNode(CONV2D, (1, 1, 1, 0, 1), (8, 5, 6), 9)]
        graph = StaticGraph([("x", (2, 3, 12, 12))], consts, nodes,
                            [("y", 9)])
        session = Session(graph)
        assert session._fed == {8: nodes[0]}
        assert session._values[8].shape == (2, 4, 12, 12)
        x = r.standard_normal((2, 3, 12, 12)).astype(np.float32)
        tape = Tape()
        w = [tape.constant(c) for c in consts]
        a = ops.conv2d(tape.constant(x), w[0], w[1], 1, 1, relu=True)
        b = ops.conv2d(a, w[2], w[3], 1, 1, relu=True)
        ref = ops.conv2d(b, w[4], w[5], 1, 1, pool=True).data
        assert session.run({"x": x})["y"].tobytes() == ref.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.tuples(*[st.integers(1, 3)] * 2),
           st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(1, 2),
                     st.booleans()),
           st.tuples(st.integers(0, 2), st.integers(1, 2), st.booleans(),
                     st.booleans()),
           st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 2]),
           st.data())
    def test_streamed_pair_matches_tape(self, bsz, c0, c1, c2, ks, first,
                                        second, ph, pw, workers, data):
        # conv a (any stride, padding and dilation, no pool) streamed
        # into conv b (stride 1, pool drawn), on 1 or 2 workers at any
        # budget from 1 byte to all of either conv's columns, gives the
        # tape's bits on small integers (exact GEMM sums), twice over a
        # NaN-filled block too, and agrees to 1e-6 on normal data.  BLAS
        # may round a column differently with the GEMM's column count,
        # so the normal weights are scaled by 1 / sqrt(fan-in): every
        # value is then O(1), and so is the rounding of its sum in ulps
        (k1, k2), (s1, p1, d1, relu1), (p2, d2, relu2, pool) = ks, first, \
            second
        oh, ow = 2 * ph, 2 * pw   # conv b's output, before the pool
        h1, w1 = (n - 2 * p2 + d2 * (k2 - 1) for n in (oh, ow))
        h, wid = ((n - 1) * s1 + d1 * (k1 - 1) + 1 - 2 * p1 for n in (h1, w1))
        assume(min(h1, w1, h, wid) >= 1)
        whole = 4 * bsz * max(c0 * k1 * k1 * h1 * w1, c1 * k2 * k2 * oh * ow)
        budget = data.draw(st.integers(1, whole))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = ((bsz, c0, h, wid), (c1, c0, k1, k1), (c1,),
                  (c2, c1, k2, k2), (c2,))
        exact = [r.integers(-3, 4, shape).astype(np.float32)
                 for shape in shapes]
        fan = (1, c0 * k1 * k1, 1, c1 * k2 * k2, 1)   # the weights' fan-in
        normal = [(r.standard_normal(shape) / n ** 0.5).astype(np.float32)
                  for shape, n in zip(shapes, fan)]
        nodes = [GraphNode(CONV2D, (s1, p1, d1, int(relu1), 0), (0, 1, 2), 5),
                 GraphNode(CONV2D, (1, p2, d2, int(relu2), int(pool)),
                           (5, 3, 4), 6)]
        graph = StaticGraph([("x", shapes[0])], exact[1:], nodes, [("y", 6)])

        def tape_output(x, w, b, v, c):
            tape = Tape()
            a = ops.conv2d(tape.constant(x), tape.constant(w),
                           tape.constant(b), s1, p1, d1, relu1)
            return ops.conv2d(a, tape.constant(v), tape.constant(c), 1, p2,
                              d2, relu2, pool).data

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(staticgraph, "SESSION_STRIP_BYTES", budget)
            mp.setattr(staticgraph, "WORKERS", workers)
            session = Session(graph)
            other = Session(StaticGraph([("x", shapes[0])], normal[1:],
                                        nodes, [("y", 6)]))
        assert session._fed == {6: nodes[0]}
        expected = tape_output(*exact).tobytes()
        assert session.run({"x": exact[0]})["y"].tobytes() == expected
        session._block.view(np.float32).fill(np.nan)
        for _ in range(2):
            assert session.run({"x": exact[0]})["y"].tobytes() == expected
        np.testing.assert_allclose(other.run({"x": normal[0]})["y"],
                                   tape_output(*normal), rtol=1e-6,
                                   atol=1e-6)

    def test_concurrent_sessions_identical(self, deploy_graph):
        _, graph = deploy_graph
        xs, xi = tiny_io(5)
        results = [None, None]

        def work(slot):
            session = Session(graph)
            acc = None
            for _ in range(3):
                acc = session.run({"x_seq_flat": xs, "x_img": xi})
            results[slot] = acc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(results[0]["y_msw"], results[1]["y_msw"])
        assert np.array_equal(results[0]["y_rmw"], results[1]["y_rmw"])


def _blocks_on_threads(monkeypatch):
    """The set that each conv block's thread id is added to from now."""
    seen = set()
    block = ops._conv_block

    def recorded(*args):
        seen.add(threading.get_ident())
        return block(*args)

    monkeypatch.setattr(ops, "_conv_block", recorded)
    return seen


@pytest.fixture
def pinnable():
    if ops._openblas_threads() is None:
        pytest.skip("this numpy build exports no OpenBLAS thread setter")
    return ops._openblas_threads()


def _strip_graph(monkeypatch, pool):
    """A conv graph at batch 2 whose 16 output rows make 8 strips of
    two workers' plan, and its inputs."""
    monkeypatch.setattr(staticgraph, "SESSION_STRIP_BYTES", 4 * 3 * 9 * 16 * 4)
    r = np.random.default_rng(pool)
    w = r.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = r.standard_normal(4).astype(np.float32)
    graph = conv_graph((2, 3, 16, 16), w, b, 1, 1, 1, 1, pool)
    return graph, {"x": r.standard_normal((2, 3, 16, 16)).astype(np.float32)}


class TestWorkers:
    @pytest.mark.parametrize("inline", ["helper_busy", "no_blas_setter"])
    @pytest.mark.parametrize("case", ["full_size", "conv", "conv_pool"])
    def test_helper_path_matches_inline(self, request, monkeypatch,
                                        pinnable, case, inline):
        # the strips on the caller and the helper, or all on the caller
        # when the helper is busy or BLAS cannot be pinned: the same bits
        if case == "full_size":
            graph = request.getfixturevalue("full_size_graph")[1]
            r = np.random.default_rng(3)
            inputs = {name: r.uniform(0, 1, shape).astype(np.float32)
                      for name, shape in graph.inputs}
        else:
            graph, inputs = _strip_graph(monkeypatch, case == "conv_pool")
        session = Session(graph)
        seen = _blocks_on_threads(monkeypatch)
        both = session.run(inputs)
        assert len(seen) == 2
        seen.clear()
        if inline == "helper_busy":
            with ops._helper_free:   # as a concurrent caller holds it
                alone = session.run(inputs)
        else:
            monkeypatch.setattr(ops, "_openblas_threads", lambda: None)
            alone = session.run(inputs)
        assert seen == {threading.get_ident()}
        for name in both:
            assert both[name].tobytes() == alone[name].tobytes()

    def test_worker_error_reaches_the_caller(self, monkeypatch, pinnable):
        # a strip that fails on the helper raises in the caller, with
        # BLAS's thread count restored, and the same helper serves the
        # next run
        graph, inputs = _strip_graph(monkeypatch, 1)
        session = Session(graph)
        setter, getter = pinnable
        before = getter()
        fresh = Session(graph).run(inputs)
        helper = ops._helper
        block = ops._conv_block

        def failing(*args):
            if threading.current_thread() is helper:
                raise ShapeError("worker 1")
            return block(*args)

        monkeypatch.setattr(ops, "_conv_block", failing)
        with pytest.raises(ShapeError, match="worker 1"):
            session.run(inputs)
        assert getter() == before
        monkeypatch.setattr(ops, "_conv_block", block)
        seen = _blocks_on_threads(monkeypatch)
        again = session.run(inputs)
        assert ops._helper is helper and helper.ident in seen
        assert again["y"].tobytes() == fresh["y"].tobytes()

    def test_worker_runs_in_the_callers_errstate(self, monkeypatch, pinnable):
        # an overflow only in strip 1, worker 1's, raises in the caller
        # under its np.errstate(over="raise"), and is quiet under "ignore"
        graph, inputs = _strip_graph(monkeypatch, 0)
        session = Session(graph)
        r0, rows = session._scratch[0][2][1]
        x = inputs["x"].copy()
        x[:, :, r0:r0 + rows] = np.finfo(np.float32).max
        with np.errstate(over="raise"), \
                pytest.raises(FloatingPointError, match="overflow"):
            session.run({"x": x})
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            session.run({"x": x})

    def test_blas_pinned_over_the_whole_run(self, full_size_graph,
                                            monkeypatch, pinnable):
        # every node of a run, convs and the rest, sees BLAS at one
        # thread, and the caller's count is back once run returns
        _, graph = full_size_graph
        session = Session(graph)
        inputs = {name: np.ones(shape, np.float32)
                  for name, shape in graph.inputs}
        setter, getter = pinnable
        seen = []
        exec_ = Session._exec

        def counted(self, node, scratch):
            seen.append(getter())
            return exec_(self, node, scratch)

        monkeypatch.setattr(Session, "_exec", counted)
        before = getter()
        setter(2)   # not the count the pin sets
        try:
            session.run(inputs)
            assert getter() == 2
        finally:
            setter(before)
        assert seen == [1] * len(graph.nodes)

    def test_concurrent_sessions_share_the_helper(self, monkeypatch):
        # four threads, more than the cores, each running its own session
        # while the others hold the helper or BLAS pins, switching often:
        # every run gives the bits of one alone
        import sys
        graph, inputs = _strip_graph(monkeypatch, 1)
        alone = Session(graph).run(inputs)["y"].tobytes()
        results = []

        def work():
            session = Session(graph)
            results.extend(session.run(inputs)["y"].tobytes()
                           for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [alone] * 20

    def test_one_helper_and_no_thread_per_run(self, full_size_graph,
                                              pinnable):
        # after a first run, runs start no thread, one helper serves the
        # process, and it keeps nothing of a run: a dropped session's
        # block is freed
        import gc
        import weakref
        _, graph = full_size_graph
        session = Session(graph)
        inputs = {name: np.ones(shape, np.float32)
                  for name, shape in graph.inputs}
        session.run(inputs)
        count = threading.active_count()
        for _ in range(3):
            session.run(inputs)
        assert threading.active_count() == count
        assert [t for t in threading.enumerate()
                if t.name == "stormkan-helper"] == [ops._helper]
        block = weakref.ref(session._block.base)
        del session
        gc.collect()
        assert block() is None


def _conv_case(attrs, x_shape=(2, 3, 10, 10)):
    stride, padding, dilation, relu, pool = attrs
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    return (CONV2D, attrs, x_shape, (w, b),
            lambda x, w, b: ops.conv2d(x, w, b, stride, padding, dilation,
                                       bool(relu), bool(pool)))


# id -> (op, attrs, x shape, constants, the tape op on (x, *constants))
NODE_CASES = {
    "conv2d": _conv_case((1, 1, 1, 0, 0)),
    "conv2d_relu": _conv_case((1, 1, 1, 1, 0)),
    "conv2d_pool": _conv_case((1, 1, 1, 0, 1)),
    "conv2d_relu_pool": _conv_case((1, 1, 1, 1, 1)),
    "conv2d_strided_dilated": _conv_case((2, 2, 2, 1, 0),
                                         (2, 3, 11, 11)),
    "spline_basis": (SPLINE_BASIS, (), (64, 32),
                     (GRID_COEFFS, (-1.0, 0.4, 5.0)),
                     lambda x, *_: bspline_basis(x, SplineGrid())),
    "relu": (RELU, (), (64, 32), (), ops.relu),
    "silu": (SILU, (), (64, 32), (), ops.silu),
    "tanh": (TANH, (), (64, 32), (), ops.tanh),
    "softmax": (SOFTMAX, (1,), (64, 32), (), lambda x: ops.softmax(x, 1)),
    "mean": (MEAN, (0,), (64, 32), (), lambda x: ops.mean(x, 0)),
    "matmul": (MATMUL, (), (2, 64, 32),
               (rng.standard_normal((32, 16)),), ops.matmul),
    "add": (ADD, (), (64, 32), (rng.standard_normal(32),), ops.add),
    "mul": (MUL, (), (64, 32), (rng.standard_normal((64, 1)),), ops.mul),
    "concat": (CONCAT, (1,), (64, 32), (rng.standard_normal((64, 5)),),
               lambda x, c: ops.concat([x, c], 1)),
    "slice": (SLICE, (3, 40, 1, 32), (64, 32), (),
              lambda x: ops.slice_(x, (slice(3, 40), slice(1, 32)))),
    "reshape": (RESHAPE, (32, 2, 32), (64, 32), (),
                lambda x: ops.reshape(x, (32, 2, 32))),
    "transpose": (TRANSPOSE, (1, 0), (64, 32), (),
                  lambda x: ops.transpose(x, (1, 0))),
}


class TestTapeParity:
    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    def test_node_matches_tape_op_bitwise(self, case):
        # each node runs the tape op's own shape rule and kernel
        op, attrs, x_shape, consts, tape_op = NODE_CASES[case]
        x = (3 * rng.standard_normal(x_shape)).astype(np.float32)
        graph = one_node_graph(op, attrs, x_shape, consts)
        out = Session(graph).run({"x": x})["y"]
        tape = Tape()
        ref = tape_op(tape.constant(x), *map(tape.constant,
                                             graph.constants)).data
        assert out.dtype == ref.dtype and out.shape == ref.shape
        differ = np.ascontiguousarray(out).view(np.uint32) \
            != np.ascontiguousarray(ref).view(np.uint32)
        assert not differ.any(), f"{differ.sum()} of {out.size} differ"

    @pytest.mark.parametrize("blocks", ["samples", "sample", "rows"])
    @pytest.mark.parametrize("case", sorted(c for c in NODE_CASES
                                            if c.startswith("conv2d")))
    def test_conv_node_matches_tape_op_in_blocks(self, monkeypatch, case,
                                                  blocks):
        # at batch 2, the budget fits both samples' columns, one sample's,
        # or three output rows of one (two under the pool).  The tape op
        # walks ops._conv_plan for one worker and the node for two: the
        # same blocks, but for rows without the pool, where the tape cuts
        # strips of three rows (the last one shorter) and the node strips
        # of one, a multiple of two within a worker's share of the
        # budget.  There the bits agree because BLAS rounds this fixed
        # data's columns alike at both column counts, not because the
        # blocks are equal (test_row_split_changes_no_bit)
        op, attrs, x_shape, consts, tape_op = NODE_CASES[case]
        graph = one_node_graph(op, attrs, x_shape, consts)
        oh, ow = (n << attrs[4] for n in graph.shapes[graph.outputs[0][1]][2:])
        row = 4 * consts[0][0].size * ow    # one output row's columns
        budget = {"samples": 2 * oh * row, "sample": oh * row,
                  "rows": 3 * row}[blocks]
        monkeypatch.setattr(ops, "STRIP_BYTES", budget)
        monkeypatch.setattr(staticgraph, "SESSION_STRIP_BYTES", budget)
        plan = ops._conv_plan(x_shape, consts[0].shape, *attrs[:3], attrs[4],
                              np.float32, budget, lambda n, dtype: None)
        assert (len(plan[1]), len(plan[2])) == {
            "samples": (1, 1), "sample": (2, 1),
            "rows": (2, -(-oh // (3 - attrs[4])))}[blocks]
        tall = 3 - attrs[4] if blocks == "rows" else oh
        strips = [(r0, min(tall, oh - r0)) for r0 in range(0, oh, tall)]
        assert plan[2] == strips
        session = Session(graph)
        assert session._scratch[0][2] == (
            [(r0, 1) for r0 in range(oh)]
            if blocks == "rows" and not attrs[4] else strips)
        x = (3 * rng.standard_normal(x_shape)).astype(np.float32)
        out = session.run({"x": x})["y"]
        tape = Tape()
        ref = tape_op(tape.constant(x), *map(tape.constant,
                                             graph.constants)).data
        assert out.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
           st.integers(1, 2), st.integers(1, 4), st.integers(1, 4),
           st.booleans(), st.booleans(), st.sampled_from([1, 2]),
           st.data())
    def test_row_split_changes_no_bit(self, bsz, cin, cout, k, stride,
                                      padding, dilation, ph, pw, relu, pool,
                                      workers, data):
        # the tape op (recording the pool's code) and a one-node Session
        # on 1 or 2 workers give, at any budget from one output row per
        # strip to one block of all samples, the bits of that one block.
        # The data are small integers, so every GEMM sum is exact: BLAS
        # may round a column differently with the GEMM's column count,
        # which normal data show only as rounding (checked at 1e-6)
        oh, ow = 2 * ph, 2 * pw
        h = (oh - 1) * stride + dilation * (k - 1) + 1 - 2 * padding
        wid = (ow - 1) * stride + dilation * (k - 1) + 1 - 2 * padding
        assume(h >= 1 and wid >= 1)
        whole = bsz * oh * 4 * cin * k * k * ow   # all samples' columns
        budget = data.draw(st.integers(1, whole))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        exact = [r.integers(-3, 4, shape).astype(np.float32) for shape in
                 ((bsz, cin, h, wid), (cout, cin, k, k), (cout,))]
        normal = [r.standard_normal(a.shape).astype(np.float32)
                  for a in exact]

        def outputs(budget, x, w, b):
            graph = conv_graph(x.shape, w, b, stride, padding, dilation,
                               int(relu), int(pool))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "STRIP_BYTES", budget)
                mp.setattr(staticgraph, "SESSION_STRIP_BYTES", budget)
                mp.setattr(staticgraph, "WORKERS", workers)
                tape = Tape()
                ref = ops.conv2d(tape.constant(x), tape.leaf(w, True),
                                 tape.constant(b), stride, padding, dilation,
                                 relu, pool)
                return [ref.data, Session(graph).run({"x": x})["y"]]

        expected = outputs(whole, *exact)[0].tobytes()
        assert [out.tobytes() for split in (1, budget)
                for out in outputs(split, *exact)] == [expected] * 4
        expected = outputs(whole, *normal)[0]
        for split in (1, budget):
            for out in outputs(split, *normal):
                np.testing.assert_allclose(out, expected, rtol=1e-6,
                                           atol=1e-6)


class TestBench:
    def test_report_fields(self, deploy_graph):
        _, graph = deploy_graph
        report = bench(graph, n_warmup=1, n_runs=3)
        for key in ("mean_ms", "p50_ms", "p95_ms", "runs", "warmup",
                    "param_count", "steady_state_allocs", "buffer_bytes",
                    "alloc_mib_per_run"):
            assert key in report
        assert report["runs"] == 3
        assert report["buffer_bytes"] == Session(graph)._block.nbytes
        assert np.isfinite(report["mean_ms"])
        assert report["steady_state_allocs"] == 0
        assert 0 < report["alloc_mib_per_run"] < 1

    def test_runs_validated(self, deploy_graph):
        _, graph = deploy_graph
        with pytest.raises(ShapeError):
            bench(graph, n_runs=0)
