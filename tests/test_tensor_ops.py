"""Tensor engine: op semantics, exact gradients, serialization."""

import io
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stormkan import ops
from stormkan.errors import DataError, ShapeError
from stormkan.tape import Tape
from stormkan.tensor import Parameter, read_tensor, write_tensor

from helpers import (adaptive_avgpool2d, check_gradients, naive_conv2d,
                     naive_conv2d_grads, naive_maxpool2d, naive_maxpool2d_grad,
                     total)

rng = np.random.default_rng(42)


def leafy(tape, arr):
    return tape.leaf(arr, requires_grad=True)


def zero_bias(w):
    """A constant zero bias for the conv kernel Var w."""
    return w.tape.constant(np.zeros(w.shape[0], w.dtype))


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        x = rng.standard_normal((3, 3))
        out = ops.matmul(tape.constant(np.eye(3)), tape.constant(x))
        np.testing.assert_allclose(out.data, x)

    def test_hand_example(self):
        tape = Tape()
        a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        b = tape.constant([[0.0], [1.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, [[2.0], [4.0]])

    def test_gradients(self):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        r = rng.standard_normal((3, 2))

        def build(tape, leaves):
            return total(ops.mul(ops.matmul(*leaves), tape.constant(r)))

        check_gradients(build, [a, b])

    def test_batched_broadcast_gradients(self):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        r = rng.standard_normal((2, 3, 4, 2))

        def build(tape, leaves):
            return total(ops.mul(ops.matmul(*leaves), tape.constant(r)))

        check_gradients(build, [a, b])

    @pytest.mark.parametrize("const_side", [0, 1], ids=["const_a", "const_b"])
    def test_constant_operand_gets_no_gradient(self, const_side):
        # a constant matrix broadcast against a batched parameter, on
        # either side, as the quadrant tap means use it
        shapes = [(6, 9), (2, 3, 9, 9)]
        if const_side:
            shapes = [(2, 3, 9, 9), (9, 6)]
        const = rng.standard_normal(shapes[const_side])
        param = rng.standard_normal(shapes[1 - const_side])

        def product(tape, leaf):
            operands = [leaf, leaf]
            operands[const_side] = tape.constant(const)
            return ops.matmul(*operands)

        g = rng.standard_normal((2, 3, shapes[0][-2], shapes[1][-1]))

        def build(tape, leaves):
            return total(ops.mul(product(tape, leaves[0]),
                                    tape.constant(g)))

        check_gradients(build, [param])
        tape = Tape()
        out = product(tape, tape.leaf(param, requires_grad=True))
        grads = tape.nodes[out.idx].backward(g)
        assert grads[const_side] is None
        expected = (np.matmul(const.T, g) if const_side == 0
                    else np.matmul(g, const.T))
        np.testing.assert_allclose(grads[1 - const_side], expected,
                                   rtol=1e-12)

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.matmul(tape.constant(np.ones((2, 3))),
                       tape.constant(np.ones((2, 3))))


class TestConv2d:
    def test_identity_channel_mix(self):
        tape = Tape()
        x = rng.standard_normal((2, 3, 7, 7))
        w = tape.constant(np.eye(3).reshape(3, 3, 1, 1))
        out = ops.conv2d(tape.constant(x), w, zero_bias(w))
        np.testing.assert_allclose(out.data, x)

    def test_reference_extents(self):
        # 8->16 channels, 5x5 kernel, same padding on 156x156
        tape = Tape()
        x = tape.constant(rng.standard_normal((1, 8, 156, 156)).astype(np.float32))
        w = tape.constant(rng.standard_normal((16, 8, 5, 5)).astype(np.float32))
        assert ops.conv2d(x, w, zero_bias(w), stride=1,
                          padding=2).shape == (1, 16, 156, 156)

    def test_dilation_receptive_field(self):
        # dilation-3 3x3 kernel acts like a zero-interleaved 7x7 kernel
        x = rng.standard_normal((1, 2, 12, 12))
        w = rng.standard_normal((3, 2, 3, 3))
        w_stuffed = np.zeros((3, 2, 7, 7))
        w_stuffed[:, :, ::3, ::3] = w
        tape = Tape()
        w, w_stuffed = tape.constant(w), tape.constant(w_stuffed)
        a = ops.conv2d(tape.constant(x), w, zero_bias(w), dilation=3,
                       padding=3)
        b = ops.conv2d(tape.constant(x), w_stuffed, zero_bias(w), dilation=1,
                       padding=3)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @pytest.mark.parametrize("cin,cout,k,stride,padding,dilation", [
        (3, 4, 3, 1, 1, 1),
        (3, 2, 1, 1, 0, 1),
        (2, 3, 3, 2, 3, 2),
        (2, 2, 5, 1, 2, 1),
        (2, 2, 3, 3, 0, 1),
    ])
    def test_gradients(self, cin, cout, k, stride, padding, dilation):
        x = rng.standard_normal((2, cin, 9, 9))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)

        def build(tape, leaves):
            out = ops.conv2d(leaves[0], leaves[1], leaves[2], stride=stride,
                             padding=padding, dilation=dilation)
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x, w, b])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 2**12),
           st.integers(0, 2**32 - 1))
    def test_matches_naive_loop(self, bsz, cin, cout, kh, kw, stride,
                                padding, dilation, oh, ow, strip_bytes,
                                seed):
        # input extents chosen so the output is exactly oh x ow
        h = (oh - 1) * stride + dilation * (kh - 1) + 1 - 2 * padding
        wid = (ow - 1) * stride + dilation * (kw - 1) + 1 - 2 * padding
        assume(h >= 1 and wid >= 1)
        r = np.random.default_rng(seed)
        x = r.standard_normal((bsz, cin, h, wid))
        w = r.standard_normal((cout, cin, kh, kw))
        g = r.standard_normal((bsz, cout, oh, ow))
        with pytest.MonkeyPatch.context() as mp:
            # blocks of several samples, of one, or strips of a sample's
            # rows: dw accumulates over blocks, and col2im adds each
            # block from the reused buffer, overlapping strips included
            mp.setattr(ops, "STRIP_BYTES", strip_bytes)
            tape = Tape()
            xv, wv = leafy(tape, x), leafy(tape, w)
            out = ops.conv2d(xv, wv, zero_bias(wv), stride=stride,
                             padding=padding, dilation=dilation)
            grads = tape.backprop(total(ops.mul(out, tape.constant(g))))
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, stride, padding, dilation),
            rtol=1e-12, atol=1e-12)
        dx, dw = naive_conv2d_grads(x, w, g, stride, padding, dilation)
        np.testing.assert_allclose(grads.wrt(xv), dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads.wrt(wv), dw, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cin,cout,k,padding,dilation,x_grad", [
        (3, 2, 1, 1, 1, True),
        (2, 3, 5, 2, 1, True),
        (2, 2, 3, 3, 3, True),
        (2, 3, 5, 2, 1, False),
    ], ids=["padded_1x1", "5x5_pad2", "3x3_dil3_pad3", "constant_input"])
    def test_one_sample_per_chunk(self, monkeypatch, cin, cout, k, padding,
                                  dilation, x_grad):
        # three samples, each padded into the reused buffer in forward and
        # again in backward and walked in one-row strips, so a first, a
        # middle and a last one, whose input gradients overlap in dx's
        # padded grid; an input that needs no gradient (conv1's image)
        # gets none computed
        monkeypatch.setattr(ops, "STRIP_BYTES", 1)
        r = np.random.default_rng(11)
        x = r.standard_normal((3, cin, 7, 7))
        w = r.standard_normal((cout, cin, k, k))
        b = r.standard_normal(cout)
        o = 7 + 2 * padding - dilation * (k - 1)   # 9 for the 1x1, else 7
        g = r.standard_normal((3, cout, o, o))

        def conv(xv, wv, bv):
            return ops.conv2d(xv, wv, bv, padding=padding, dilation=dilation)

        def build(tape, leaves):
            xv = leaves[0] if x_grad else tape.constant(x)
            out = conv(xv, *leaves[-2:])
            return total(ops.mul(out, tape.constant(g)))

        check_gradients(build, [x, w, b] if x_grad else [w, b])
        tape = Tape()
        xv = tape.leaf(x, requires_grad=x_grad)
        out = conv(xv, leafy(tape, w), leafy(tape, b))
        dx, dw, db = tape.nodes[out.idx].backward(g)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, 1, padding, dilation)
            + b.reshape(1, cout, 1, 1), rtol=1e-12, atol=1e-12)
        ndx, ndw = naive_conv2d_grads(x, w, g, 1, padding, dilation)
        if x_grad:
            np.testing.assert_allclose(dx, ndx, rtol=1e-12, atol=1e-12)
        else:
            assert dx is None
        np.testing.assert_allclose(dw, ndw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, g.sum(axis=(0, 2, 3)), rtol=1e-12,
                                   atol=1e-12)

    def test_backward_holds_one_strip(self):
        # one sample's columns, 288 x 160 x 162 floats, are about seven
        # times the strip budget: above the input gradient's padded grid
        # and one sample's padded input, the backward holds one strip of
        # columns and one of gradient grid.  The budget counts OW of each
        # row's Wp grid columns, so a strip's grids reach Wp/OW of it.
        bsz, cin, cout, size = 2, 32, 8, 160
        r = np.random.default_rng(7)
        x = r.standard_normal((bsz, cin, size, size)).astype(np.float32)
        w = r.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        b = r.standard_normal(cout).astype(np.float32)
        g = r.standard_normal((bsz, cout, size, size)).astype(np.float32)
        k, wp = cin * 9, size + 2
        assert k * size * size * 4 > 6 * ops.STRIP_BYTES
        tape = Tape()
        out = ops.conv2d(leafy(tape, x), leafy(tape, w), leafy(tape, b),
                         padding=1, relu=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dx = tape.nodes[out.idx].backward(g)[0]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        dx_grid = bsz * cin * wp * wp * 4
        padded = cin * wp * wp * 4                  # one sample's input
        strip = ops.STRIP_BYTES * wp / size * (1 + cout / k)
        assert dx.base.nbytes == dx_grid
        assert peak < dx_grid + padded + strip + 2**16

    def test_holds_only_its_output(self, monkeypatch):
        # between forward and backward neither the im2col columns (50x
        # the output's bytes, repacked by the backward) nor a padded copy
        # of the input are kept: each block is padded into a reused
        # buffer, here one sample of the four (its 100 x 20 x 20 columns
        # are the budget), and padded again later
        monkeypatch.setattr(ops, "STRIP_BYTES", 100 * 20 * 20 * 8)
        r = np.random.default_rng(5)
        x = r.standard_normal((4, 4, 20, 20))
        w = r.standard_normal((2, 4, 5, 5))
        tape = Tape()
        xv, wv = leafy(tape, x), leafy(tape, w)
        bv = zero_bias(wv)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(xv, wv, bv, padding=2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        padded = 4 * 4 * 24 * 24 * x.itemsize       # [B, C, 20 + 4, 20 + 4]
        assert out.data.nbytes <= held
        assert held < out.data.nbytes + padded // 4
        grads = tape.backprop(total(out))
        dx, dw = naive_conv2d_grads(x, w, np.ones(out.shape), 1, 2, 1)
        np.testing.assert_allclose(grads.wrt(wv), dw, rtol=1e-12)
        np.testing.assert_allclose(grads.wrt(xv), dx, rtol=1e-12,
                                   atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.booleans(), st.booleans(),
           st.integers(1, 2**12), st.integers(0, 2**32 - 1))
    def test_epilogue_matches_naive_loop(self, bsz, cin, cout, kh, kw,
                                         stride, padding, dilation, ph, pw,
                                         relu, pool, strip_bytes, seed):
        # conv -> +b -> max(., 0) -> 2x2 max-pool, each step optional but
        # the bias; even output extents, and small integer inputs, so
        # that windows often tie and the ReLU often zeroes a whole window
        oh, ow = 2 * ph, 2 * pw
        h = (oh - 1) * stride + dilation * (kh - 1) + 1 - 2 * padding
        wid = (ow - 1) * stride + dilation * (kw - 1) + 1 - 2 * padding
        assume(h >= 1 and wid >= 1)
        r = np.random.default_rng(seed)
        x = r.integers(-2, 3, (bsz, cin, h, wid)).astype(np.float64)
        w = r.integers(-1, 2, (cout, cin, kh, kw)).astype(np.float64)
        b = r.integers(-2, 3, cout).astype(np.float64)
        y = naive_conv2d(x, w, stride, padding, dilation) \
            + b.reshape(1, cout, 1, 1)
        if relu:
            y = np.maximum(y, 0)
        expected = naive_maxpool2d(y, 2, 2) if pool else y
        g = r.standard_normal(expected.shape)
        gy = naive_maxpool2d_grad(y, g, 2, 2) if pool else g
        if relu:
            gy = gy * (y > 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "STRIP_BYTES", strip_bytes)
            tape = Tape()
            xv, wv, bv = leafy(tape, x), leafy(tape, w), leafy(tape, b)
            out = ops.conv2d(xv, wv, bv, stride=stride, padding=padding,
                             dilation=dilation, relu=relu, pool=pool)
            grads = tape.backprop(total(ops.mul(out, tape.constant(g))))
        np.testing.assert_array_equal(out.data, expected)
        dx, dw = naive_conv2d_grads(x, w, gy, stride, padding, dilation)
        np.testing.assert_allclose(grads.wrt(xv), dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads.wrt(wv), dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads.wrt(bv), gy.sum(axis=(0, 2, 3)),
                                   rtol=1e-12, atol=1e-12)

    def test_pool_holds_pooled_output_input_and_masks(self, monkeypatch):
        # with pool=True neither the conv output nor the ReLU output is
        # kept at full resolution, nor a padded copy of the input: only
        # the pooled output and one uint8 code per pooled output
        # one sample a block: its 100 x 40 x 40 columns
        monkeypatch.setattr(ops, "STRIP_BYTES", 100 * 40 * 40 * 8)
        x = rng.standard_normal((4, 4, 40, 40))
        w = rng.standard_normal((2, 4, 5, 5))
        b = rng.standard_normal(2)
        tape = Tape()
        xv, wv, bv = leafy(tape, x), leafy(tape, w), leafy(tape, b)
        # a first, untraced call leaves CPython's free lists warm
        ops.conv2d(xv, wv, bv, padding=2, relu=True, pool=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(xv, wv, bv, padding=2, relu=True, pool=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 2, 20, 20)
        padded = 4 * 4 * 44 * 44 * x.itemsize       # [B, C, 40 + 4, 40 + 4]
        code = 4 * 2 * 20 * 20                      # a byte per pooled output
        assert out.data.nbytes + code <= held
        assert held < out.data.nbytes + code + padded // 32

    def test_forward_only_pool_records_no_masks(self, monkeypatch):
        # with nothing to differentiate, the pool allocates no winner code
        # and the op holds only its output, which is bitwise the same
        # one sample a block: its 100 x 40 x 40 columns
        monkeypatch.setattr(ops, "STRIP_BYTES", 100 * 40 * 40 * 8)
        x = rng.standard_normal((4, 4, 40, 40))
        w = rng.standard_normal((2, 4, 5, 5))
        b = rng.standard_normal(2)
        code = 4 * 2 * 20 * 20                      # a byte per pooled output
        runs = {}
        for grad in (True, False):
            tape = Tape(grad=grad)
            xv, wv, bv = leafy(tape, x), leafy(tape, w), leafy(tape, b)
            # a first, untraced call leaves CPython's free lists warm
            ops.conv2d(xv, wv, bv, padding=2, relu=True, pool=True)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = ops.conv2d(xv, wv, bv, padding=2, relu=True, pool=True)
                held, peak = (m - before
                              for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            runs[grad] = out.data, held, peak
        (ref, held_grad, peak_grad), (out, held, peak) = runs[True], runs[False]
        assert out.tobytes() == ref.tobytes()
        assert held_grad - held >= code and peak_grad - peak >= code
        assert out.nbytes <= held < out.nbytes + code // 2

    def test_pooled_output_freed_before_its_backward(self):
        # the pool's backward reads its code, not its output: once the
        # caller lets go of its Var, backprop frees the pooled output
        # before the conv's backward runs
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        tape = Tape()
        xv, wv, bv = leafy(tape, x), leafy(tape, w), leafy(tape, b)
        out = ops.conv2d(xv, wv, bv, padding=1, relu=True, pool=True)
        expected = out.data.copy()
        alive = weakref.ref(out.data)
        node = tape.nodes[out.idx]
        conv_backward, seen = node.backward, []

        def backward(g):
            seen.append(alive() is not None)
            return conv_backward(g)

        node.backward = backward
        loss = total(ops.mul(out, tape.constant(np.ones(expected.shape))))
        del out
        grads = tape.backprop(loss)
        assert seen == [False]
        y = naive_conv2d(x, w, 1, 1, 1) + b.reshape(1, 4, 1, 1)
        gy = naive_maxpool2d_grad(np.maximum(y, 0), np.ones(expected.shape),
                                  2, 2) * (y > 0)
        np.testing.assert_allclose(grads.wrt(bv), gy.sum(axis=(0, 2, 3)),
                                   rtol=1e-12)

    def test_non_integral_extent_rejected(self):
        tape = Tape()
        w = tape.constant(np.ones((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            ops.conv2d(tape.constant(np.ones((1, 1, 7, 7))), w, zero_bias(w),
                       stride=2)

    def test_channel_mismatch(self):
        tape = Tape()
        w = tape.constant(np.ones((1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            ops.conv2d(tape.constant(np.ones((1, 3, 7, 7))), w, zero_bias(w))


def maxpool2x2(x):
    """The bare 2x2, stride-2 max-pool: conv2d's pool epilogue after a
    1x1 identity kernel, which copies x exactly."""
    c = x.shape[1]
    w = x.tape.constant(np.eye(c).reshape(c, c, 1, 1))
    return ops.conv2d(x, w, zero_bias(w), pool=True)


class TestTwoWorkers:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 40),
           st.integers(0, 1), st.integers(1, 2**14))
    def test_worker_plan_strips_tile_the_rows(self, cin, k, pairs, pool,
                                              strip_bytes):
        # a plan for WORKERS has a multiple of WORKERS strips of
        # near-equal heights, even under the pool, that tile the output
        # rows, each within its share of the budget if one row (pair)
        # is, and the same buffers per worker; else it is the one-worker
        # plan
        oh, ow = 2 * pairs, 6
        args = ((1, cin, oh + k - 1, ow + k - 1), (3, cin, k, k), 1, 0, 1,
                pool, np.float32, lambda n, _: n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "STRIP_BYTES", strip_bytes)
            plan = ops._conv_plan(*args, ops.WORKERS)
            one = ops._conv_plan(*args)
        workers = (len(plan) - 4) // 3
        strips = plan[2]
        assert [r0 for r0, _ in strips] == [
            sum(n for _, n in strips[:i]) for i in range(len(strips))]
        assert sum(n for _, n in strips) == oh
        if workers == 1:
            assert plan == one
            return
        unit, row = 1 + pool, 4 * cin * k * k * ow
        heights = [n for _, n in strips]
        assert workers == ops.WORKERS and len(strips) % workers == 0
        assert all(n % unit == 0 for n in heights)
        assert max(heights) - min(heights) <= unit
        assert max(heights) * row <= max(strip_bytes // workers, unit * row)
        assert plan[4:7] == plan[7:10]

    @pytest.mark.parametrize("conv,pool,heights", [
        ((8, 5, 2), 0, {15, 16}), ((16, 3, 1), 1, {18, 20})],
        ids=["conv1", "conv2"])
    def test_full_size_worker_plans(self, conv, pool, heights):
        # at 156^2 and batch 1, conv1's columns fill 10 strips and conv2's
        # 8, half of them each worker's
        cin, k, padding = conv
        x = (1, cin, 156, 156)
        plan = ops._conv_plan(x, (2 * cin, cin, k, k), 1, padding, 1, pool,
                              np.float32, lambda n, _: n, ops.WORKERS)
        assert len(plan) == 4 + 3 * ops.WORKERS
        assert len(plan[2]) == {0: 10, 1: 8}[pool]
        assert {n for _, n in plan[2]} == heights

    def test_overlapping_blas_pins(self):
        # A pins, B pins, A leaves, B leaves: B still runs on one thread,
        # and the last one out restores the count the first one found
        import threading
        blas = ops._openblas_threads()
        if blas is None:
            pytest.skip("this numpy build exports no OpenBLAS thread setter")
        setter, getter = blas
        before = getter()
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def a():
            with ops._one_blas_thread():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with ops._one_blas_thread():
                b_in.set()
                a_out.wait(10)
                seen["b"] = getter()

        setter(2)   # not the count the pins set
        try:
            threads = [threading.Thread(target=f) for f in (a, b)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            assert seen == {"b": 1}
            assert getter() == 2
        finally:
            setter(before)


class TestMaxPool:
    def test_constant_input(self):
        tape = Tape()
        out = maxpool2x2(tape.constant(np.full((1, 2, 6, 6), 3.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 3, 3), 3.5))

    def test_reference_extent(self):
        tape = Tape()
        x = tape.constant(rng.standard_normal((1, 1, 156, 156)).astype(np.float32))
        assert maxpool2x2(x).shape == (1, 1, 78, 78)

    def test_tie_breaks_to_first_flat_index(self):
        x = np.zeros((1, 1, 2, 2))  # all equal: 4-way tie
        tape = Tape()
        xv = leafy(tape, x)
        out = maxpool2x2(xv)
        grads = tape.backprop(total(out))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(grads.wrt(xv), expected)

    def test_odd_extent_rejected(self):
        tape = Tape()
        for shape in [(1, 1, 5, 6), (1, 1, 6, 3)]:
            with pytest.raises(ShapeError):
                maxpool2x2(tape.constant(np.ones(shape)))
        w = tape.constant(np.ones((1, 1, 3, 3)))
        with pytest.raises(ShapeError):  # odd after a 3x3 conv: 9 -> 7
            ops.conv2d(tape.constant(np.ones((1, 1, 8, 9))), w, zero_bias(w),
                       pool=True)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 2**12),
           st.integers(0, 2**32 - 1))
    def test_matches_naive_loop(self, bsz, c, oh, ow, strip_bytes, seed):
        # few distinct integer values, so most windows hold ties
        r = np.random.default_rng(seed)
        x = r.integers(0, 3, (bsz, c, 2 * oh, 2 * ow)).astype(np.float64)
        g = r.integers(-4, 5, (bsz, c, oh, ow)).astype(np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "STRIP_BYTES", strip_bytes)
            tape = Tape()
            xv = leafy(tape, x)
            out = maxpool2x2(xv)
            grads = tape.backprop(total(ops.mul(out, tape.constant(g))))
        np.testing.assert_array_equal(out.data, naive_maxpool2d(x, 2, 2))
        np.testing.assert_array_equal(grads.wrt(xv),
                                      naive_maxpool2d_grad(x, g, 2, 2))

    def test_gradients(self):
        # keep values distinct so no tie sits near the FD step
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)

        def build(tape, leaves):
            out = maxpool2x2(leaves[0])
            r = np.cos(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x])


class TestAdaptivePool:
    """Pins of the reference pool, and of its gradient, that the
    spatial-tail tests compare against."""

    def test_identity(self):
        x = rng.standard_normal((1, 2, 5, 7))
        out = adaptive_avgpool2d(Tape().constant(x), 5, 7)
        np.testing.assert_array_equal(out.data, x)

    def test_block_means_6_to_2(self):
        x = rng.standard_normal((1, 1, 6, 6))
        out = adaptive_avgpool2d(Tape().constant(x), 2, 2)
        np.testing.assert_allclose(out.data[0, 0, 0, 0], x[0, 0, :3, :3].mean())
        np.testing.assert_allclose(out.data[0, 0, 1, 0], x[0, 0, 3:, :3].mean())

    def test_block_means_152_to_2(self):
        x = rng.standard_normal((1, 1, 152, 152)).astype(np.float32)
        out = adaptive_avgpool2d(Tape().constant(x), 2, 2)
        np.testing.assert_allclose(out.data[0, 0, 0, 1],
                                   x[0, 0, :76, 76:].mean(), rtol=1e-5)

    def test_gradients_odd_bins(self):
        x = rng.standard_normal((1, 2, 5, 5))

        def build(tape, leaves):
            out = adaptive_avgpool2d(leaves[0], 2, 2)
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x])


ELEMENTWISE_CASES = {
    "relu": lambda t, v: ops.relu(v),
    "silu": lambda t, v: ops.silu(v),
    "sigmoid": lambda t, v: ops.sigmoid(v),
    "tanh": lambda t, v: ops.tanh(v),
    "softmax": lambda t, v: ops.softmax(v, axis=1),
    "add": lambda t, v: ops.add(v, t.constant(np.linspace(-1, 1, 12).reshape(3, 4))),
    "mul": lambda t, v: ops.mul(v, t.constant(np.linspace(0.5, 2, 12).reshape(3, 4))),
    "sub": lambda t, v: ops.sub(v, t.constant(np.linspace(-1, 1, 12).reshape(3, 4))),
    "abs": lambda t, v: ops.abs_(v),
    "scale": lambda t, v: ops.scale(v, -2.5),
    "concat": lambda t, v: ops.concat(
        [v, t.constant(np.ones((3, 2)))], axis=1),
    "slice": lambda t, v: ops.slice_(v, (slice(1, 3), slice(0, 2))),
    "mean": lambda t, v: ops.mean(v, axis=1),
    "reshape": lambda t, v: ops.reshape(v, (4, 3)),
    "transpose": lambda t, v: ops.transpose(v, (1, 0)),
}


class TestElementwise:
    def test_silu_at_zero(self):
        tape = Tape()
        assert ops.silu(tape.constant(np.zeros(3))).data[0] == 0.0

    def test_softmax_of_constant_is_uniform(self):
        tape = Tape()
        out = ops.softmax(tape.constant(np.full((2, 5), 3.0)), axis=1)
        np.testing.assert_allclose(out.data, 0.2)

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE_CASES))
    def test_gradients(self, name):
        # keep away from relu/abs kinks
        x = rng.uniform(0.05, 0.45, (3, 4)) * np.where(
            rng.uniform(size=(3, 4)) < 0.5, -1, 1)
        build_op = ELEMENTWISE_CASES[name]

        def build(tape, leaves):
            out = build_op(tape, leaves[0])
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x])

    def test_concat_extent_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.concat([tape.constant(np.ones((2, 3))),
                        tape.constant(np.ones((3, 3)))], axis=1)

    def test_axis_out_of_range(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.softmax(tape.constant(np.ones((2, 3))), axis=5)


def _ones(*shapes):
    """float32 ones of each shape, as constants on one tape."""
    tape = Tape()
    return [tape.constant(np.ones(shape, np.float32)) for shape in shapes]


class TestShapeRules:
    """A bad call raises ShapeError from the op's shape rule, the one
    staticgraph's shape inference calls, before numpy sees it."""

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"dilation": 0}, {"padding": -1}, {"stride": -1}],
        ids=["stride_0", "dilation_0", "padding_-1", "stride_-1"])
    def test_bad_conv_geometry(self, kwargs):
        with pytest.raises(ShapeError, match="stride >= 1"):
            ops.conv2d(*_ones((1, 2, 6, 6), (3, 2, 3, 3), (3,)), **kwargs)

    def test_conv_bias_extent(self):
        with pytest.raises(ShapeError, match=r"bias \(2,\) must be \[3\]"):
            ops.conv2d(*_ones((1, 2, 6, 6), (3, 2, 3, 3), (2,)))

    def test_matmul_batch_extents_must_broadcast(self):
        with pytest.raises(ShapeError, match="broadcast"):
            ops.matmul(*_ones((2, 3, 4), (5, 4, 6)))

    def test_mean_axis_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            ops.mean(*_ones((2, 3)), axis=3)

    def test_mean_repeated_axis(self):
        with pytest.raises(ShapeError, match="repeated"):
            ops.mean(*_ones((2, 3)), axis=(1, -1))

    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul],
                             ids=["add", "sub", "mul"])
    def test_elementwise_operands_must_broadcast(self, op):
        with pytest.raises(ShapeError, match="do not broadcast"):
            op(*_ones((2, 3), (4,)))
        assert op(*_ones((2, 3), (3,))).shape == (2, 3)

    def test_concat_rank_mismatch(self):
        with pytest.raises(ShapeError, match="concat extent mismatch"):
            ops.concat(_ones((2, 3), (2,)), axis=1)


class TestLstm:
    def _params(self, feat, hid, scale=0.3):
        wx = rng.standard_normal((4 * hid, feat)) * scale
        wh = rng.standard_normal((4 * hid, hid)) * scale
        b = rng.standard_normal(4 * hid) * scale
        return wx, wh, b

    def test_zero_params_zero_state(self):
        tape = Tape()
        x = tape.constant(rng.standard_normal((2, 3, 5)))
        out = ops.lstm(x, tape.constant(np.zeros((8, 5))),
                       tape.constant(np.zeros((8, 2))),
                       tape.constant(np.zeros(8)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_single_step_matches_hand_unrolled_cell(self):
        feat, hid = 4, 3
        wx, wh, b = self._params(feat, hid)
        x = rng.standard_normal((2, 1, feat))
        tape = Tape()
        out = ops.lstm(tape.constant(x), tape.constant(wx),
                       tape.constant(wh), tape.constant(b))

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        z = x[:, 0] @ wx.T + b
        i, f = sigmoid(z[:, :hid]), sigmoid(z[:, hid:2 * hid])
        g, o = np.tanh(z[:, 2 * hid:3 * hid]), sigmoid(z[:, 3 * hid:])
        c = i * g
        np.testing.assert_allclose(out.data, o * np.tanh(c), atol=1e-12)

    def test_three_steps_match_hand_unrolled_cell(self):
        feat, hid = 4, 3
        wx, wh, b = self._params(feat, hid)
        x = rng.standard_normal((2, 3, feat))
        tape = Tape()
        out = ops.lstm(tape.constant(x), tape.constant(wx),
                       tape.constant(wh), tape.constant(b))

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = c = np.zeros((2, hid))
        for t in range(3):
            z = x[:, t] @ wx.T + h @ wh.T + b
            i, f = sigmoid(z[:, :hid]), sigmoid(z[:, hid:2 * hid])
            g, o = np.tanh(z[:, 2 * hid:3 * hid]), sigmoid(z[:, 3 * hid:])
            c = f * c + i * g
            h = o * np.tanh(c)
        assert out.data.dtype == np.float64
        np.testing.assert_allclose(out.data, h, rtol=0, atol=1e-12)

    def test_reference_shape(self):
        wx, wh, b = self._params(5, 64, scale=0.1)
        tape = Tape()
        out = ops.lstm(tape.constant(rng.standard_normal((2, 3, 5))),
                       tape.constant(wx), tape.constant(wh), tape.constant(b))
        assert out.shape == (2, 64)

    def test_gradients_bptt(self):
        feat, hid = 3, 2
        wx, wh, b = self._params(feat, hid)
        x = rng.standard_normal((2, 4, feat))

        def build(tape, leaves):
            out = ops.lstm(*leaves)
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x, wx, wh, b])

    def test_param_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            ops.lstm(tape.constant(np.ones((1, 2, 5))),
                     tape.constant(np.ones((8, 4))),
                     tape.constant(np.ones((8, 2))),
                     tape.constant(np.ones(8)))


class TestBackprop:
    def test_sum_gives_ones(self):
        tape = Tape()
        x = leafy(tape, rng.standard_normal((3, 4)))
        grads = tape.backprop(total(x))
        np.testing.assert_array_equal(grads.wrt(x), np.ones((3, 4)))

    def test_mean_squared_error_gradient(self):
        x_arr = rng.standard_normal(6)
        t_arr = rng.standard_normal(6)
        tape = Tape()
        x = leafy(tape, x_arr)
        diff = ops.sub(x, tape.constant(t_arr))
        grads = tape.backprop(ops.mean(ops.mul(diff, diff)))
        np.testing.assert_allclose(grads.wrt(x), 2 * (x_arr - t_arr) / 6,
                                   atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = leafy(tape, np.ones((2, 2)))
        with pytest.raises(ShapeError):
            tape.backprop(ops.relu(x))

    def test_second_backprop_rejected(self):
        tape = Tape()
        loss = total(ops.tanh(leafy(tape, np.ones((2, 2)))))
        tape.backprop(loss)
        with pytest.raises(ShapeError, match="already"):
            tape.backprop(loss)

    def test_outputs_dropped_as_backprop_passes(self):
        # no node holds an op's output and backprop drops each closure
        # once it has run, so after it only a caller's Var keeps an
        # output alive: the caller's h until it is dropped, then none
        tape = Tape()
        outputs = []
        record = tape.record

        def keeping(op, inputs, output, backward):
            outputs.append(weakref.ref(output))
            return record(op, inputs, output, backward)

        tape.record = keeping
        x = leafy(tape, rng.standard_normal((3, 4)))
        h = ops.tanh(x)
        want = np.tanh(x.data)
        grads = tape.backprop(total(ops.mul(h, ops.silu(h))))
        assert len(outputs) == 6
        assert [ref() is not None for ref in outputs] == [True] + [False] * 5
        np.testing.assert_array_equal(h.data, want)
        sig = 1 / (1 + np.exp(-want))
        np.testing.assert_allclose(
            grads.wrt(x), (want * sig * (2 + want * (1 - sig)))
            * (1 - want ** 2), rtol=1e-12)
        del h
        assert all(ref() is None for ref in outputs)

    def test_forward_only_tape_keeps_no_outputs(self):
        # an intermediate dies with its Var: no node or closure holds it
        tape = Tape(grad=False)
        x = tape.constant(rng.standard_normal((3, 4)))
        h = ops.tanh(x)
        alive = weakref.ref(h.data)
        y = ops.tanh(h)
        del h
        assert alive() is None
        np.testing.assert_array_equal(y.data, np.tanh(np.tanh(x.data)))

    def test_disconnected_param_zero_gradient(self):
        from stormkan.tensor import Parameter
        tape = Tape()
        x = leafy(tape, np.ones(3))
        unused = Parameter("unused", np.ones(4))
        grads = tape.backprop(total(x))
        np.testing.assert_array_equal(grads.wrt_param(unused), np.zeros(4))

    def test_deterministic_eval(self):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)

        def run():
            tape = Tape()
            wv = tape.constant(w)
            out = ops.conv2d(tape.constant(x), wv, zero_bias(wv), padding=1)
            return ops.mean(ops.silu(out)).data.copy()

        assert np.array_equal(run(), run())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_checked_mode_flags_nonfinite(self):
        from stormkan.errors import NumericsError
        tape = Tape(checked=True)
        x = tape.constant(np.array([1e308]))
        with pytest.raises(NumericsError):
            ops.mul(x, x)


def record_bytes(array) -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, array)
    return buf.getvalue()


class _Pipe(io.RawIOBase):
    """A non-seekable raw stream over bytes."""

    def __init__(self, data):
        self._src = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._src.readinto(b)


class TestTensorSerialization:
    def test_roundtrip(self):
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        back = read_tensor(io.BytesIO(record_bytes(arr)))
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_roundtrip_f64_stream(self):
        a1 = rng.standard_normal((2, 3))
        a2 = rng.standard_normal(7).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, a1)
        write_tensor(buf, a2)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a1)
        np.testing.assert_array_equal(read_tensor(buf), a2)

    def test_big_endian_float64_stays_float64(self):
        arr = np.array([1 / 3], ">f8")
        buf = io.BytesIO()
        write_tensor(buf, arr)
        buf.seek(0)
        back = read_tensor(buf)
        assert back.dtype == np.float64
        assert back[0] == 1 / 3
        data = Parameter("p", arr).data
        assert data.dtype == np.float64 and data.dtype.isnative
        assert data[0] == 1 / 3

    def test_zero_d_keeps_its_rank(self):
        for arr in (np.array(2.5, np.float32), np.array(1 / 3, ">f8")):
            back = read_tensor(io.BytesIO(record_bytes(arr)))
            assert back.shape == () and back.dtype == arr.dtype.newbyteorder("=")
            assert back == arr
            assert Parameter("p", arr).data.shape == ()

    def test_non_seekable_stream(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4).T   # strided
        payload = record_bytes(arr)
        np.testing.assert_array_equal(
            read_tensor(io.BufferedReader(_Pipe(payload))), arr)
        with pytest.raises(DataError, match="truncated"):
            read_tensor(io.BufferedReader(_Pipe(payload[:-8])))

    def test_magic_mismatch(self):
        with pytest.raises(DataError):
            read_tensor(io.BytesIO(b"JUNK" + b"\x00" * 16))

    def test_truncation(self):
        payload = record_bytes(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(DataError):
            read_tensor(io.BytesIO(payload[:-8]))

    def test_rank_beyond_numpy_limit(self):
        # 65 unit extents: one element, but more axes than numpy allows
        payload = (b"KFT1" + bytes([0, 65]) + struct.pack("<65I", *[1] * 65)
                   + b"\x00" * 4)
        with pytest.raises(DataError):
            read_tensor(io.BytesIO(payload))

    def test_size_beyond_int64(self):
        # 2**61 float32 elements: 2**63 bytes, beyond any read size
        payload = b"KFT1" + bytes([0, 2]) + struct.pack("<2I", 2**31, 2**30)
        with pytest.raises(DataError):
            read_tensor(io.BytesIO(payload + b"\x00" * 16))
        with pytest.raises(DataError):
            read_tensor(io.BufferedReader(_Pipe(payload + b"\x00" * 16)))

    def test_size_beyond_file(self, tmp_path):
        # 2**51 float32 elements from a real file: a DataError from the
        # bytes left in it, not a MemoryError from a 2**53-byte buffer
        path = tmp_path / "huge.kft"
        path.write_bytes(b"KFT1" + bytes([0, 2])
                         + struct.pack("<2I", 2**31, 2**20) + b"\x00" * 16)
        with open(path, "rb") as fp, pytest.raises(DataError):
            read_tensor(fp)

    def test_file_read_and_write_copy_the_data_once(self, tmp_path):
        # one [8, 156, 156] image record: the read allocates only the
        # array it returns, the write nothing the size of the data
        arr = rng.standard_normal((8, 156, 156)).astype(np.float32)
        path = tmp_path / "image.kft"
        with open(path, "wb") as fp:
            tracemalloc.start()
            try:
                write_tensor(fp, arr)
                wrote = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert wrote < 0.1 * arr.nbytes
        with open(path, "rb") as fp:
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                back = read_tensor(fp)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        assert peak <= 1.1 * arr.nbytes
        np.testing.assert_array_equal(back, arr)
        assert path.read_bytes()[-arr.nbytes:] == arr.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutations_fail_typed(self, data):
        # byte edits of one record, its header most often: only DataError
        blob = bytearray(record_bytes(np.arange(6, dtype=np.float64)
                                      .reshape(2, 3)))
        pos = data.draw(st.integers(0, 13) | st.integers(0, len(blob) - 1))
        kind = data.draw(st.sampled_from(
            ["overwrite", "insert", "delete", "truncate", "append"]))
        chunk = data.draw(st.binary(min_size=1, max_size=8))
        if kind == "overwrite":
            blob[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            blob[pos:pos] = chunk
        elif kind == "delete":
            del blob[pos:pos + len(chunk)]
        elif kind == "truncate":
            del blob[pos:]
        else:
            blob += chunk
        try:
            read_tensor(io.BytesIO(bytes(blob)))
        except DataError:
            pass
