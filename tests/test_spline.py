"""B-spline basis identities and the spline-linear layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormkan import ops
from stormkan.errors import ShapeError
from stormkan.spline import (SplineGrid, bspline_basis, bspline_basis_values,
                             kan_init, precompute_basis_coefficients)
from stormkan.staticgraph import SPLINE_BASIS, Session
from stormkan.tape import Tape

from helpers import check_gradients, one_node_graph

rng = np.random.default_rng(7)
GRID = SplineGrid()  # 5 intervals, cubic, [-1, 1]


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
        total = bspline_basis_values(xs, GRID).sum(axis=-1)
        assert np.abs(total - 1.0).max() < 1e-6

    def test_local_support(self):
        xs = rng.uniform(-1, 1, 2_000)
        values = bspline_basis_values(xs, GRID)
        active = (values > 1e-12).sum(axis=-1)
        assert active.max() <= GRID.spline_order + 1

    def test_against_textbook_de_boor(self):
        for x in (-0.97, -0.5, 0.0, 0.31, 0.99):
            mine = bspline_basis_values(np.array([x]), GRID)[0]
            ref = [textbook_de_boor(x, 3, i, GRID.knots)
                   for i in range(GRID.basis_count)]
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_order_zero_is_interval_indicator(self):
        grid = SplineGrid(grid_size=4, spline_order=0)
        values = bspline_basis_values(np.array([-0.3]), grid)[0]
        # -0.3 sits in interval [-0.5, 0), index 1 of 4
        np.testing.assert_array_equal(values, [0, 1, 0, 0])

    def test_clamping_outside_domain(self):
        inside = bspline_basis_values(np.array([1.0]), GRID)
        outside = bspline_basis_values(np.array([3.7]), GRID)
        np.testing.assert_array_equal(inside, outside)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ShapeError):
            SplineGrid(grid_size=0)

    def test_cubic_continuity_at_interior_knots(self):
        eps = 1e-6
        for knot in np.linspace(-1, 1, GRID.grid_size + 1)[1:-1]:
            left = bspline_basis_values(np.array([knot - eps]), GRID)
            right = bspline_basis_values(np.array([knot + eps]), GRID)
            assert np.abs(left - right).max() < 1e-4
            dleft = (bspline_basis_values(np.array([knot - eps]), GRID)
                     - bspline_basis_values(np.array([knot - 2 * eps]), GRID)) / eps
            dright = (bspline_basis_values(np.array([knot + 2 * eps]), GRID)
                      - bspline_basis_values(np.array([knot + eps]), GRID)) / eps
            assert np.abs(dleft - dright).max() < 1e-4

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-0.999, 0.999))
    def test_partition_of_unity_property(self, x):
        values = bspline_basis_values(np.array([x]), GRID)
        assert abs(values.sum() - 1.0) < 1e-6

    def test_gradient_wrt_input(self):
        x = rng.uniform(-0.9, 0.9, (4, 3))

        def build(tape, leaves):
            out = bspline_basis(leaves[0], GRID)
            r = np.sin(np.arange(out.data.size)).reshape(out.shape)
            return ops.sum_(ops.mul(out, tape.constant(r)))

        check_gradients(build, [x])


class TestPrecomputedCoefficients:
    def test_horner_matches_cox_de_boor(self):
        # the deployment evaluator: the static graph's SPLINE_BASIS node
        coeffs = precompute_basis_coefficients(GRID)
        meta = [GRID.lo, GRID.step, GRID.grid_size]
        xs = rng.uniform(-1, 1, 10_000)
        session = Session(one_node_graph(SPLINE_BASIS, (), xs.shape,
                                         (coeffs, meta)))
        horner = session.run({"x": xs.astype(np.float32)})["y"]
        direct = bspline_basis_values(xs, GRID)
        assert np.abs(direct - horner).max() < 1e-6

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
            return tape, xv, ops.sum_(ops.mul(out, tape.constant(r)))

        tape, xv, loss = run()
        assert tape.nodes[loss.idx - 1].output.shape == (3, 4)
        grads = tape.backprop(loss)
        scalar = lambda: float(run()[2].data)
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
        bases = bspline_basis_values(np.clip(x_out, -1, 1), GRID)
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
