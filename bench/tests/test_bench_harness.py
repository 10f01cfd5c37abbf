"""Tests of the benchmark harness itself (not of stormkan).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import stormkan as sk  # noqa: E402
from layers import (PER_LAYER, conv_flops, im2col_bytes, instrument,  # noqa: E402
                    layer_metrics)
from spans import Patches, Tracer, self_times  # noqa: E402
from stats import quartile_spread, supported_percentile  # noqa: E402
from workloads import END_TO_END, dataset_samples, serve_pool  # noqa: E402


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        # 180 samples: p95 = 170.05, and only 171..179 lie beyond it
        assert supported_percentile(np.arange(180.0), 95) is None
        value, beyond = supported_percentile(np.arange(200.0), 95)
        assert beyond == 10
        assert value == pytest.approx(189.05)

    def test_ties_do_not_count_as_beyond(self):
        assert supported_percentile([1.0] * 500, 95) is None

    def test_empty(self):
        assert supported_percentile([], 95) is None

    def test_quartile_spread(self):
        # statistics.quantiles([1..5], n=4) -> 1.5, 3, 4.5
        assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)


class TestSelfTime:
    def test_nested_and_overlapping(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),     # overlaps a: union [1, 6] covers 5
            ("a.x", 2.0, 3.0, 1),
            ("c", 9.0, 12.0, 0),    # clipped to the parent: covers 1
            ("d", 11.0, 13.0, 0),   # wholly outside the parent: covers 0
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0,
                                                   2.0])

    def test_touching_children(self):
        spans = [("p", 0.0, 4.0, -1), ("a", 0.0, 2.0, 0), ("b", 2.0, 4.0, 0)]
        assert self_times(spans)[0] == pytest.approx(0.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda: None)

        def outer():
            inner()
            inner()

        tracer.wrap("outer", outer)()
        names = [s[0] for s in tracer.spans()]
        parents = [s[3] for s in tracer.spans()]
        assert names == ["outer", "inner", "inner"]
        assert parents == [-1, 0, 0]
        # outer [0, 5], inners [1, 2] and [3, 4]
        assert self_times(tracer.spans()) == [3.0, 1.0, 1.0]

    def test_span_closed_on_exception(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        assert not np.isnan(tracer.ends[0])
        assert tracer._open == []


class TestConvFormulas:
    def test_conv1_at_batch_16(self):
        # spatial.conv1: 8 -> 16 channels, 5x5, padding 2, 156x156, B=16.
        # K = 8*5*5 = 200 rows, B*OH*OW = 16*156*156 = 389376 columns
        x, w = (16, 8, 156, 156), (16, 8, 5, 5)
        assert im2col_bytes(x, w, 4, 1, 2, 1) == 200 * 389376 * 4
        assert im2col_bytes(x, w, 4, 1, 2, 1) == 311_500_800
        # 2 FLOPs per multiply-add: 2 * Cout * K * B*OH*OW
        assert conv_flops(x, w, 4, 1, 2, 1) == 2_492_006_400

    def test_dilated_keeps_extent(self):
        x, w = (1, 32, 78, 78), (32, 32, 3, 3)
        assert im2col_bytes(x, w, 4, 1, 3, 3) == 32 * 9 * 78 * 78 * 4

    def test_pointwise_skips_im2col(self):
        x, w = (2, 32, 78, 78), (64, 32, 1, 1)
        assert im2col_bytes(x, w, 4, 1, 0, 1) == 0
        assert conv_flops(x, w, 4, 1, 0, 1) == 2 * 2 * 64 * 32 * 78 * 78


class TestInstrumentation:
    def test_traced_step_and_clean_undo(self):
        cfg = sk.ModelConfig(image_hw=40, r_center=20, ring_count=9)
        model = sk.build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (2, 3, 5)).astype(np.float32)
        xi = rng.uniform(0, 1, (2, 8, 40, 40)).astype(np.float32)
        before = (sk.ops.conv2d, vars(sk.tape.Tape)["record"],
                  sk.training.sgd_step, sk.model.kan_init)
        tracer = Tracer()
        with Patches() as patches:
            instrument(tracer, patches)
            assert sk.model.kan_init is sk.spline.kan_init  # alias patched
            tape = sk.Tape()
            ym, yr = model.forward(tape, xs, xi)
            loss = sk.multitask_loss(ym, yr, tape.constant(np.zeros((2, 1))),
                                     tape.constant(np.zeros((2, 1))))
            grads = tape.backprop(loss)
            sk.training.sgd_step(model.parameters(), grads, 1e-3)
        after = (sk.ops.conv2d, vars(sk.tape.Tape)["record"],
                 sk.training.sgd_step, sk.model.kan_init)
        assert all(a is b for a, b in zip(before, after))

        m = layer_metrics(tracer, 1)
        assert m["ops.conv2d.calls"] == 7
        assert m["ops.conv2d.fwd_ms"] > 0 and m["ops.conv2d.bwd_ms"] > 0
        assert m["tape.record_calls"] == len(
            [n for n in tracer.names if n == "tape.Tape.record"])
        # conv1 at B=2 and 40x40 plus the other six convs, from shapes
        assert m["ops.conv2d.im2col_mib"] * 2**20 == sum(
            im2col_bytes(*n) for n in tracer.notes["ops.conv2d"])
        assert tracer.notes["ops.conv2d"][0] == ((2, 8, 40, 40),
                                                 (16, 8, 5, 5), 4, 1, 2, 1)


class TestInputs:
    def test_same_seed_same_bytes(self):
        a = serve_pool(sk, 3, storms=1, steps=2)
        b = serve_pool(sk, 3, storms=1, steps=2)
        c = serve_pool(sk, 4, storms=1, steps=2)
        assert len(a) == 8   # 2 samples x 4 rotations
        for x, y in zip(a, b):
            assert x["x_img"].tobytes() == y["x_img"].tobytes()
            assert x["x_seq_flat"].tobytes() == y["x_seq_flat"].tobytes()
        assert any(x["x_img"].tobytes() != z["x_img"].tobytes()
                   for x, z in zip(a, c))

        d1 = dataset_samples(sk, 3, 2, 1)
        d2 = dataset_samples(sk, 3, 2, 1)
        for s, t in zip(d1, d2):
            assert s.x_img.tobytes() == t.x_img.tobytes()
            assert s.x_seq.tobytes() == t.x_seq.tobytes()
            assert (s.y_msw_norm, s.y_rmw_norm) == (t.y_msw_norm, t.y_rmw_norm)


class TestBenchmarkSpec:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metrics_match_the_harness(self):
        assert [(m["name"], m["unit"], m["better"])
                for m in self.spec["end_to_end"]] == list(END_TO_END)
        assert [(m["name"], m["unit"], m["better"])
                for m in self.spec["per_layer"]] == list(PER_LAYER)

    def test_within_contract_limits(self):
        spec = self.spec
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in spec[k]]
        assert all(name.match(n) for n in names)
        assert len(set(names)) == len(names)
        assert 2 <= len(spec["workloads"]) <= 8
        assert all(len(w["why"]) <= 200 for w in spec["workloads"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert 1 <= spec["run_seconds"] <= 60
        assert (ROOT / spec["command"][1]).parent.name in spec["paths"]
