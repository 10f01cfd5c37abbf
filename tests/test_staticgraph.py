"""Deployment lowering, serialization, interpreter, pooling decomposition."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stormkan.errors import ExportError, GraphError, ShapeError
from stormkan.model import ModelConfig, build_model
from stormkan.staticgraph import (AVGPOOL2D, CONV2D, MAXPOOL2D, GraphNode,
                                  Session, StaticGraph, bench,
                                  decompose_pooling, export, fixed_pool_spec,
                                  load_graph, run, save_graph)
from stormkan.tape import Tape

from helpers import naive_conv2d, naive_maxpool2d

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


class TestDecomposePooling:
    def test_reference_case_76(self):
        assert decompose_pooling(76, 76) == [(4, 4), (19, 19)]

    def test_under_limit_single_stage(self):
        assert decompose_pooling(32, 32) == [(32, 32)]

    def test_prime_beyond_limit_rejected(self):
        with pytest.raises(ShapeError):
            decompose_pooling(127, 127)

    def test_no_valid_split_rejected(self):
        # 2 * 2047, 2047 = 23*89: every 2-factor split has a stage > 63
        with pytest.raises(ShapeError):
            decompose_pooling(4094, 4094)

    def test_stride_must_equal_kernel(self):
        with pytest.raises(ShapeError):
            decompose_pooling(10, 5)

    def test_composition_matches_single_stage(self):
        from stormkan import ops
        x = rng.standard_normal((1, 2, 76, 76))
        tape = Tape()
        single = ops.avgpool2d_fixed(tape.constant(x), 76, 76)
        staged = tape.constant(x)
        for k, s in decompose_pooling(76, 76):
            staged = ops.avgpool2d_fixed(staged, k, s)
        np.testing.assert_allclose(single.data, staged.data, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3600))
    def test_factorization_property(self, kernel):
        try:
            stages = decompose_pooling(kernel, kernel)
        except ShapeError:
            # correct rejection: no 2-split with both factors in range
            assert all(kernel % a or kernel // a > 63
                       for a in range(2, min(kernel, 64)))
            return
        assert 1 <= len(stages) <= 2
        prod = 1
        for k, s in stages:
            assert k == s and 1 <= k <= 63
            prod *= k
        assert prod == kernel


class TestFixedPoolSpec:
    @pytest.mark.parametrize("extent", [3, 4, 7, 20, 78, 152])
    def test_matches_adaptive_two_bins(self, extent):
        from stormkan import ops
        kernel, stride = fixed_pool_spec(extent, 2)
        x = rng.standard_normal((1, 1, extent, extent))
        tape = Tape()
        adaptive = ops.adaptive_avgpool2d(tape.constant(x), 2, 2)
        fixed = ops.avgpool2d_fixed(tape.constant(x), kernel, stride)
        np.testing.assert_allclose(adaptive.data, fixed.data, atol=1e-10)


class TestExport:
    def test_full_variant_rejected_naming_lstm(self):
        model = build_model(ModelConfig(image_hw=40, r_center=20,
                                        ring_count=9), seed=1)
        with pytest.raises(ExportError, match="lstm"):
            export(model)

    def test_no_adaptive_pool_nodes_and_kernel_limit(self, deploy_graph):
        _, graph = deploy_graph
        for node in graph.nodes:
            if node.op in (AVGPOOL2D, MAXPOOL2D):
                assert node.attrs[0] <= 63

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
        out1 = run(graph, {"x_seq_flat": xs, "x_img": xi})
        out2 = run(back, {"x_seq_flat": xs, "x_img": xi})
        assert np.array_equal(out1["y_msw"], out2["y_msw"])
        assert np.array_equal(out1["y_rmw"], out2["y_rmw"])


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(GraphError):
            load_graph(b"NOPE" + b"\x00" * 64)

    def test_truncated_payload(self, deploy_graph):
        _, graph = deploy_graph
        payload = save_graph(graph)
        with pytest.raises(GraphError):
            load_graph(payload[: len(payload) // 3])

    def test_kernel_limit_enforced_at_load(self, deploy_graph):
        _, graph = deploy_graph
        import copy
        bad = copy.deepcopy(graph)
        for node in bad.nodes:
            if node.op == AVGPOOL2D:
                node.attrs = (100, 100)
                break
        with pytest.raises(GraphError):
            load_graph(save_graph(bad))


def one_node_graph(op, attrs, x_shape, constants=()):
    """A graph of one node reading input "x" and the given constants."""
    consts = {1 + i: np.asarray(c, dtype=np.float32)
              for i, c in enumerate(constants)}
    out = 1 + len(consts)
    return StaticGraph([("x", tuple(x_shape))], consts,
                       [GraphNode(op, tuple(attrs), tuple(range(out)), out)],
                       [("y", out)])


class TestSession:
    def test_matches_dynamic_forward(self, deploy_graph):
        model, graph = deploy_graph
        session = Session(graph)
        for trial in range(8):
            xs, xi = tiny_io(trial)
            out = session.run({"x_seq_flat": xs, "x_img": xi})
            tape = Tape()
            ym, yr = model.forward_deploy(tape, xs, xi)
            assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
            assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    def test_matches_dynamic_forward_full_size(self):
        cfg = ModelConfig(variant="deploy")
        assert (cfg.image_hw, cfg.ring_count) == (156, 39)
        model = build_model(cfg, seed=4)
        session = Session(export(model))
        r = np.random.default_rng(8)
        for _ in range(2):
            xs = r.uniform(0, 1, (1, cfg.flat_seq)).astype(np.float32)
            xi = r.uniform(0, 1, (1, 8, 156, 156)).astype(np.float32)
            out = session.run({"x_seq_flat": xs, "x_img": xi})
            ym, yr = model.forward_deploy(Tape(), xs, xi)
            assert abs(out["y_msw"][0, 0] - ym.data[0, 0]) <= 1e-5
            assert abs(out["y_rmw"][0, 0] - yr.data[0, 0]) <= 1e-5

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_maxpool_node_matches_naive_loop(self, bsz, c, kernel, stride,
                                             oh, ow, seed):
        shape = (bsz, c, (oh - 1) * stride + kernel, (ow - 1) * stride + kernel)
        session = Session(one_node_graph(MAXPOOL2D, (kernel, stride), shape))
        r = np.random.default_rng(seed)
        for _ in range(2):   # the second run must not see the first
            x = r.standard_normal(shape).astype(np.float32)
            np.testing.assert_array_equal(session.run({"x": x})["y"],
                                          naive_maxpool2d(x, kernel, stride))

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
        session = Session(one_node_graph(
            CONV2D, (stride, padding, dilation), (bsz, cin, h, wid), (w,)))
        for _ in range(2):
            x = r.standard_normal((bsz, cin, h, wid)).astype(np.float32)
            np.testing.assert_allclose(
                session.run({"x": x})["y"],
                naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                             stride, padding, dilation),
                rtol=1e-5, atol=1e-5)

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


class TestBench:
    def test_report_fields(self, deploy_graph):
        _, graph = deploy_graph
        report = bench(graph, n_warmup=1, n_runs=3)
        for key in ("mean_ms", "p50_ms", "p95_ms", "runs", "warmup",
                    "param_count", "steady_state_allocs",
                    "alloc_mib_per_run"):
            assert key in report
        assert report["runs"] == 3
        assert np.isfinite(report["mean_ms"])
        assert report["steady_state_allocs"] == 0
        assert 0 < report["alloc_mib_per_run"] < 1

    def test_runs_validated(self, deploy_graph):
        _, graph = deploy_graph
        with pytest.raises(ShapeError):
            bench(graph, n_runs=0)
