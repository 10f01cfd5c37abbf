"""B-spline basis identities and the spline-linear layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormkan import ops
from stormkan.errors import ShapeError
from stormkan.spline import (SplineGrid, bspline_basis, kan_init,
                             precompute_basis_coefficients)
from stormkan.staticgraph import SPLINE_BASIS, Session
from stormkan.tape import Tape

from helpers import (check_gradients, cox_de_boor, knots, one_node_graph,
                     total)

rng = np.random.default_rng(7)
GRID = SplineGrid()  # 5 intervals, cubic, [-1, 1]


def basis(x, grid=GRID):
    """Bases of x by the tape op, the package's one evaluator."""
    return bspline_basis(Tape().constant(np.asarray(x)), grid).data


def session_basis(x, grid):
    """Bases of float32 x by a one-node graph, as ``export`` lowers it."""
    meta = [grid.lo, grid.step, grid.grid_size]
    graph = one_node_graph(SPLINE_BASIS, (), x.shape,
                           (precompute_basis_coefficients(grid), meta))
    return Session(graph).run({"x": x})["y"]


def textbook_de_boor(x, k, i, t):
    """Recursive Cox-de Boor reference, straight from the definition."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = c2 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * textbook_de_boor(x, k - 1, i, t)
    if t[i + k + 1] != t[i + 1]:
        c2 = ((t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1])
              * textbook_de_boor(x, k - 1, i + 1, t))
    return c1 + c2


class TestBasis:
    def test_partition_of_unity_10k(self):
        xs = rng.uniform(-1 + 1e-9, 1 - 1e-9, 10_000)
        sums = basis(xs).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_local_support(self):
        xs = rng.uniform(-1, 1, 2_000)
        values = basis(xs)
        active = (values > 1e-12).sum(axis=-1)
        assert active.max() <= GRID.spline_order + 1

    def test_against_textbook_de_boor(self):
        for x in (-0.97, -0.5, 0.0, 0.31, 0.99):
            mine = basis(np.array([x]))[0]
            ref = [textbook_de_boor(x, 3, i, knots(GRID))
                   for i in range(GRID.basis_count)]
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_order_zero_is_interval_indicator(self):
        grid = SplineGrid(grid_size=4, spline_order=0)
        values = basis(np.array([-0.3]), grid)[0]
        # -0.3 sits in interval [-0.5, 0), index 1 of 4
        np.testing.assert_array_equal(values, [0, 1, 0, 0])

    def test_forward_only_keeps_no_derivative(self):
        # on a forward-only tape the output owns only the bases; with a
        # gradient the derivative it also computes is held apart
        x = np.linspace(-1.2, 1.2, 64 * 32, dtype=np.float32).reshape(64, 32)
        for grad in (False, True):
            tape = Tape(grad=grad)
            out = bspline_basis(tape.leaf(x, requires_grad=True), GRID)
            data = out.data
            assert (data if data.base is None else data.base).nbytes == 65_536
            assert (tape.nodes[out.idx].backward is None) == (not grad)

    def test_clamping_outside_domain(self):
        inside = basis(np.array([1.0]))
        outside = basis(np.array([3.7]))
        np.testing.assert_array_equal(inside, outside)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_tape_equals_session_at_domain_edges(self, order):
        # lo, inside, hi and beyond: the tape op and the graph node run
        # one kernel, so float32 bases agree exactly, and the last
        # interval covers hi for every order
        grid = SplineGrid(grid_size=4, spline_order=order)
        x = np.array([[-1.0, -0.3, 0.55, 1.0, 1.7, -2.0]], dtype=np.float32)
        tape_out = basis(x, grid)
        assert tape_out.dtype == np.float32
        assert np.array_equal(tape_out, session_basis(x, grid))
        np.testing.assert_allclose(tape_out.sum(axis=-1), 1.0, atol=1e-6)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ShapeError):
            SplineGrid(grid_size=0)

    def test_cubic_continuity_at_interior_knots(self):
        eps = 1e-6
        for knot in np.linspace(-1, 1, GRID.grid_size + 1)[1:-1]:
            left = basis(np.array([knot - eps]))
            right = basis(np.array([knot + eps]))
            assert np.abs(left - right).max() < 1e-4
            dleft = (basis(np.array([knot - eps]))
                     - basis(np.array([knot - 2 * eps]))) / eps
            dright = (basis(np.array([knot + 2 * eps]))
                      - basis(np.array([knot + eps]))) / eps
            assert np.abs(dleft - dright).max() < 1e-4

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-0.999, 0.999))
    def test_partition_of_unity_property(self, x):
        values = basis(np.array([x]))
        assert abs(values.sum() - 1.0) < 1e-6

    def test_gradient_wrt_input(self):
        x = rng.uniform(-0.9, 0.9, (4, 3))

        def build(tape, leaves):
            out = bspline_basis(leaves[0], GRID)
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return total(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x])


class TestPrecomputedCoefficients:
    def test_horner_matches_cox_de_boor(self):
        xs = rng.uniform(-1, 1, 10_000)
        values, deriv = cox_de_boor(xs, GRID, with_deriv=True)
        # the deployment path: the static graph's SPLINE_BASIS node
        horner = session_basis(xs.astype(np.float32), GRID)
        assert np.abs(values - horner).max() < 1e-6
        # the training path: the tape op and its derivative
        w = rng.standard_normal(values.shape)
        tape = Tape()
        xv = tape.leaf(xs, requires_grad=True)
        out = bspline_basis(xv, GRID)
        grads = tape.backprop(total(ops.mul(out, tape.constant(w))))
        assert np.abs(values - out.data).max() < 1e-6
        assert np.abs((deriv * w).sum(axis=-1) - grads.wrt(xv)).max() < 1e-6

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_closed_form_equals_interpolated_table(self, order):
        # the table .kfg files carry was once built by interpolating the
        # Cox-de Boor bases at order + 1 interior points of each
        # interval; the closed form must give the same table, so that
        # graphs exported that way evaluate the same
        grid = SplineGrid(grid_size=5, spline_order=order)
        h = grid.step
        u = (np.arange(order + 1) + 0.5) / (order + 1) * h
        inv = np.linalg.inv(np.vander(u, order + 1, increasing=True))
        interpolated = np.stack([(inv @ cox_de_boor(grid.lo + j * h + u,
                                                    grid)).T
                                 for j in range(grid.grid_size)])
        table = precompute_basis_coefficients(grid)
        assert table.shape == interpolated.shape
        scale = np.abs(table).max()
        assert np.abs(table - interpolated).max() <= 1e-12 * scale

    def test_order_one_hat_functions(self):
        grid = SplineGrid(grid_size=4, spline_order=1)
        coeffs = precompute_basis_coefficients(grid)
        # piecewise-linear hats: slope magnitude is 1/step on the support
        slopes = coeffs[:, :, 1]
        nonzero = slopes[np.abs(slopes) > 1e-12]
        np.testing.assert_allclose(np.abs(nonzero), 1.0 / grid.step)

    def test_deterministic(self):
        a = precompute_basis_coefficients(GRID)
        b = precompute_basis_coefficients(GRID)
        assert np.array_equal(a, b)


class TestKanLinear:
    def test_zero_weights_zero_output(self):
        layer = kan_init("k", 4, 3, GRID, 0, dtype=np.float64)
        layer.base_weight.data[:] = 0
        layer.spline_weight.data[:] = 0
        tape = Tape()
        out = layer.forward(tape.constant(rng.uniform(-1, 1, (5, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_spline_zero_reduces_to_silu_linear(self):
        layer = kan_init("k", 4, 3, GRID, 1, dtype=np.float64)
        layer.spline_weight.data[:] = 0
        x = rng.uniform(-1, 1, (5, 4))
        tape = Tape()
        out = layer.forward(tape.constant(x))
        expected = (x / (1 + np.exp(-x))) @ layer.base_weight.data.T
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_reference_shape_and_gradients(self):
        from helpers import max_rel_err, numerical_grad
        layer = kan_init("k", 6, 4, GRID, 2, dtype=np.float64)
        x = rng.uniform(-0.9, 0.9, (3, 6))
        r = np.sin(np.arange(12)).reshape(3, 4)

        def run():
            tape = Tape()
            xv = tape.leaf(x, requires_grad=True)
            out = layer.forward(xv)
            return tape, xv, out, total(ops.mul(out, tape.constant(r)))

        tape, xv, out, loss = run()
        assert out.shape == (3, 4)
        grads = tape.backprop(loss)
        scalar = lambda: float(run()[3].data)
        assert max_rel_err(grads.wrt(xv), numerical_grad(scalar, x)) < 1e-6
        for param in layer.parameters():
            numeric = numerical_grad(scalar, param.data)
            assert max_rel_err(grads.wrt_param(param), numeric) < 1e-6

    def test_large_shape(self):
        layer = kan_init("k", 64, 32, GRID, 3)
        tape = Tape()
        out = layer.forward(tape.constant(
            rng.uniform(-1, 1, (2, 64)).astype(np.float32)))
        assert out.shape == (2, 32)

    def test_clamp_rule_spline_clamped_silu_raw(self):
        layer = kan_init("k", 2, 2, GRID, 4, dtype=np.float64)
        x_out = np.array([[2.5, -3.0]])
        tape = Tape()
        out = layer.forward(tape.constant(x_out))
        silu = x_out / (1 + np.exp(-x_out))
        base = silu @ layer.base_weight.data.T
        bases = cox_de_boor(np.clip(x_out, -1, 1), GRID)
        spline = np.einsum("bim,oim->bo", bases, layer.spline_weight.data)
        np.testing.assert_allclose(out.data, base + spline, atol=1e-12)

    def test_extent_mismatch(self):
        layer = kan_init("k", 4, 3, GRID, 0)
        tape = Tape()
        with pytest.raises(ShapeError):
            layer.forward(tape.constant(np.ones((2, 5))))


class TestKanInit:
    def test_same_seed_identical(self):
        a = kan_init("k", 8, 8, GRID, 123)
        b = kan_init("k", 8, 8, GRID, 123)
        assert np.array_equal(a.base_weight.data, b.base_weight.data)
        assert np.array_equal(a.spline_weight.data, b.spline_weight.data)

    def test_different_seeds_differ(self):
        a = kan_init("k", 8, 8, GRID, 1)
        b = kan_init("k", 8, 8, GRID, 2)
        assert not np.array_equal(a.spline_weight.data, b.spline_weight.data)

    def test_output_scale_at_init(self):
        layer = kan_init("k", 64, 64, GRID, 5)
        tape = Tape()
        x = rng.standard_normal((256, 64)).astype(np.float32)
        out = layer.forward(tape.constant(x))
        mean_abs = np.abs(out.data).mean()
        assert 0.01 <= mean_abs <= 10.0

    def test_invalid_extents(self):
        with pytest.raises(ShapeError):
            kan_init("k", 0, 3, GRID, 0)
