"""B-spline bases and the spline-parameterized dense layer.

Run: python demos/02_spline_layers.py
"""

import numpy as np

from stormkan import (Session, SplineGrid, StaticGraph, Tape, bspline_basis,
                      kan_init, precompute_basis_coefficients)
from stormkan.staticgraph import SPLINE_BASIS, GraphNode

grid = SplineGrid()  # 5 intervals, cubic, domain [-1, 1]
print("basis count:", grid.basis_count)
print("coefficient table [interval, basis, power]:", grid.coefficients.shape)

# the tape op: partition of unity across the domain, its edges included
xs = np.linspace(-1, 1, 9)
bases = bspline_basis(Tape().constant(xs), grid).data
print("basis sums:", bases.sum(axis=-1))

# at most order+1 bases are active anywhere (local support)
print("active bases per x:", (bases > 1e-12).sum(axis=-1))

# every basis is a shift of one cardinal B-spline, so the per-interval
# polynomial coefficients have a closed form; the deployment path ships
# them as constants of a one-node static graph (input x, constants
# coeffs and [lo, step, n_intervals]) and runs the same Horner kernel
coeffs = precompute_basis_coefficients(grid).astype(np.float32)
meta = np.array([grid.lo, grid.step, grid.grid_size], dtype=np.float32)
sample = np.random.default_rng(1).uniform(-1.2, 1.2, 10_000)
sample = sample.astype(np.float32)
graph = StaticGraph([("x", sample.shape)], (coeffs, meta),
                    [GraphNode(SPLINE_BASIS, (), (0, 1, 2), 3)],
                    [("bases", 3)])
deployed = Session(graph).run({"x": sample})["bases"]
trained = bspline_basis(Tape().constant(sample), grid).data
print("tape == Session (float32, bitwise):",
      bool(np.array_equal(trained, deployed)))

# a spline-dense layer: silu base path + learnable spline per edge
layer = kan_init("demo", in_dim=4, out_dim=3, grid=grid, seed_or_rng=0)
tape = Tape()
x = tape.leaf(np.random.default_rng(2).uniform(-1, 1, (5, 4)),
              requires_grad=True)
y = layer.forward(x)
print("layer output shape:", y.shape)

# with zero spline weights the layer is a silu-activated linear map
layer.spline_weight.data[:] = 0
y2 = layer.forward(Tape().constant(x.data))
manual = (x.data / (1 + np.exp(-x.data))) @ layer.base_weight.data.T
print("reduction check:", np.abs(y2.data - manual).max())
