"""B-spline basis machinery and the spline-parameterized linear layer.

A layer edge (j, i) realizes

    phi(x) = base_weight[j, i] * silu(x) + sum_m spline_weight[j, i, m] * B_m(x)

with the spline argument clamped to the grid domain (the silu path sees
the raw input, preserving gradient flow outside the grid).  Bases are a
clamped-uniform knot grid evaluated by the Cox-de Boor recursion.  For
deployment, ``precompute_basis_coefficients`` turns them into
per-interval power-basis coefficients, which the static graph's
``SPLINE_BASIS`` node evaluates by Horner's rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tape import Tape, Var
from . import ops
from .tensor import Parameter


@dataclass(frozen=True)
class SplineGrid:
    """Uniform knot grid: grid_size intervals of degree spline_order."""

    grid_size: int = 5
    spline_order: int = 3
    lo: float = -1.0
    hi: float = 1.0
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid_size < 1:
            raise ShapeError(f"degenerate grid: grid_size={self.grid_size}")
        if not self.hi > self.lo:
            raise ShapeError(f"degenerate domain [{self.lo}, {self.hi}]")
        h = (self.hi - self.lo) / self.grid_size
        n = self.grid_size + 2 * self.spline_order + 1
        knots = self.lo + h * (np.arange(n) - self.spline_order)
        object.__setattr__(self, "knots", knots)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.grid_size

    @property
    def basis_count(self) -> int:
        return self.grid_size + self.spline_order


def bspline_basis_values(x: np.ndarray, grid: SplineGrid,
                         with_deriv: bool = False):
    """Cox-de Boor bases for each input value, [..., basis_count].

    Inputs are clamped to the grid domain first; with_deriv additionally
    returns d(basis)/dx, zero where the clamp is active.
    """
    x = np.asarray(x)
    t = grid.knots.astype(x.dtype if x.dtype.kind == "f" else np.float64)
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


def bspline_basis(x: Var, grid: SplineGrid) -> Var:
    """Tape op: [..., in] -> [..., in, basis_count]; differentiable in x."""
    values, deriv = bspline_basis_values(x.data, grid, with_deriv=True)

    def backward(g):
        return ((g * deriv).sum(axis=-1),)

    return x.tape.record("bspline_basis", (x,), values, backward)


def precompute_basis_coefficients(grid: SplineGrid) -> np.ndarray:
    """Per-interval power-basis coefficients for every basis function.

    Returns [grid_size, basis_count, spline_order + 1] with ascending
    powers of the local coordinate u = x - interval_lo, so that Horner
    evaluation reproduces the Cox-de Boor values across the domain.
    """
    order = grid.spline_order
    h = grid.step
    # order+1 interior sample points interpolate a degree-order
    # polynomial exactly
    u = (np.arange(order + 1, dtype=np.float64) + 0.5) / (order + 1) * h
    coeffs = np.empty((grid.grid_size, grid.basis_count, order + 1))
    vander = np.vander(u, order + 1, increasing=True)
    inv = np.linalg.inv(vander)
    for j in range(grid.grid_size):
        xs = grid.lo + j * h + u
        values = bspline_basis_values(xs, grid)       # [order+1, nb]
        coeffs[j] = (inv @ values).T
    return coeffs


class KanLinear:
    """Spline-parameterized dense layer (no bias term).

    output_j = sum_i base_weight[j,i] * silu(x_i)
             + sum_{i,m} spline_weight[j,i,m] * B_m(clamp(x_i))
    """

    def __init__(self, name: str, in_dim: int, out_dim: int,
                 grid: SplineGrid, base_weight: Parameter,
                 spline_weight: Parameter):
        if in_dim < 1 or out_dim < 1:
            raise ShapeError("KanLinear extents must be >= 1")
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.grid = grid
        self.base_weight = base_weight
        self.spline_weight = spline_weight

    def parameters(self) -> list[Parameter]:
        return [self.base_weight, self.spline_weight]

    def forward(self, x: Var) -> Var:
        if x.data.shape[-1] != self.in_dim:
            raise ShapeError(
                f"{self.name}: input extent {x.data.shape[-1]} != "
                f"{self.in_dim}")
        tape = x.tape
        lead = x.data.shape[:-1]
        x2 = x if len(lead) == 1 else ops.reshape(x, (-1, self.in_dim))
        bw = tape.param(self.base_weight)
        sw = tape.param(self.spline_weight)
        base = ops.linear(ops.silu(x2), bw)
        bases = bspline_basis(x2, self.grid)
        nb = self.grid.basis_count
        bases2 = ops.reshape(bases, (-1, self.in_dim * nb))
        sw2 = ops.reshape(sw, (self.out_dim, self.in_dim * nb))
        out = ops.add(base, ops.matmul(bases2, ops.transpose(sw2, (1, 0))))
        if len(lead) != 1:
            out = ops.reshape(out, lead + (self.out_dim,))
        return out


def kan_init(name: str, in_dim: int, out_dim: int, grid: SplineGrid,
             seed_or_rng, dtype=np.float32) -> KanLinear:
    """Fresh layer: base ~ U(+-sqrt(6/in)), spline ~ N(0, 0.1/sqrt(nb*in))."""
    if in_dim < 1 or out_dim < 1:
        raise ShapeError("KanLinear extents must be >= 1")
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    limit = np.sqrt(6.0 / in_dim)
    base = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    nb = grid.basis_count
    std = 0.1 / np.sqrt(nb * in_dim)
    spline = rng.normal(0.0, std, size=(out_dim, in_dim, nb))
    return KanLinear(
        name, in_dim, out_dim, grid,
        Parameter(f"{name}.base_w", base.astype(dtype)),
        Parameter(f"{name}.spline_w", spline.astype(dtype)),
    )
