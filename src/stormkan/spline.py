"""B-spline basis machinery and the spline-parameterized linear layer.

A layer edge (j, i) realizes

    phi(x) = base_weight[j, i] * silu(x) + sum_m spline_weight[j, i, m] * B_m(x)

with the spline argument clamped to the grid domain (the silu path sees
the raw input, preserving gradient flow outside the grid).  Each grid
holds its bases as per-interval polynomial coefficients in closed form,
and one Horner kernel evaluates them: the tape op ``bspline_basis``
(with its derivative, from the same coefficients) and the static
graph's ``SPLINE_BASIS`` node both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .errors import ShapeError
from .tape import Var
from . import ops
from .tensor import Parameter


@dataclass(frozen=True)
class SplineGrid:
    """Uniform, extended knot grid on [lo, hi] = [-1, 1]: grid_size
    intervals of degree spline_order, and its
    ``precompute_basis_coefficients`` table."""

    lo = -1.0   # class constants, not fields
    hi = 1.0
    grid_size: int = 5
    spline_order: int = 3
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid_size < 1 or self.spline_order < 0:
            raise ShapeError(f"degenerate grid: {self}")
        object.__setattr__(self, "coefficients",
                           precompute_basis_coefficients(self))

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.grid_size

    @property
    def basis_count(self) -> int:
        return self.grid_size + self.spline_order


def precompute_basis_coefficients(grid: SplineGrid) -> np.ndarray:
    """[grid_size, basis_count, spline_order + 1] coefficients of every
    basis on every interval, in ascending powers of u = x - interval_lo.

    Each basis is a shift of the cardinal B-spline of degree p, whose
    piece q on s = u / step in [0, 1) is (1/p!) sum_{i<=q} (-1)^i
    C(p+1, i) (s + q - i)^p; interval j runs it for basis j - q + p.
    """
    p, n = grid.spline_order, grid.grid_size
    piece = np.array([[comb(p, k) * sum((-1) ** i * comb(p + 1, i)
                                        * (q - i) ** (p - k)
                                        for i in range(q + 1))
                       for k in range(p + 1)] for q in range(p + 1)],
                     dtype=np.float64)
    piece /= factorial(p) * grid.step ** np.arange(p + 1)
    table = np.zeros((n, n + p, p + 1))
    j = np.arange(n)[:, None]
    table[j, j - np.arange(p + 1) + p] = piece
    table.flags.writeable = False
    return table


def _horner_basis(x, coeffs, lo, step, out, t, u, idx, cg, deriv=None):
    """Bases of x [m], clamped to the table's domain, into out [m, nb].

    coeffs is a [intervals, nb, order + 1] coefficient table; t, u [m],
    idx [m] (int64) and cg [m, nb, order + 1] are scratch.  deriv
    [m, nb], if given, receives d(basis)/dx, zero where the clamp acts.
    """
    n_int, order = coeffs.shape[0], coeffs.shape[-1] - 1
    np.subtract(x, lo, out=t)
    t /= step
    inside = None if deriv is None else (t > 0) & (t < n_int)
    np.clip(t, 0.0, float(n_int), out=t)
    np.floor(t, out=u)
    np.clip(u, 0.0, float(n_int - 1), out=u)
    np.subtract(t, u, out=t)       # fractional part in [0, 1]
    t *= step
    with np.errstate(invalid="ignore"):   # a NaN row index casts quietly
        np.copyto(idx, u, casting="unsafe")
    # clip: a NaN input must not become an out-of-range row
    np.take(coeffs, idx, axis=0, out=cg, mode="clip")
    tc = t[:, None]
    np.copyto(out, cg[..., order])
    for k in range(order - 1, -1, -1):
        out *= tc
        out += cg[..., k]
    if deriv is not None:
        np.multiply(cg[..., order], order, out=deriv)
        for k in range(order - 1, 0, -1):
            deriv *= tc
            deriv += k * cg[..., k]
        deriv *= inside[:, None]


def _horner_scratch(m: int, coeffs, alloc=np.empty) -> tuple:
    """The scratch (t, u, idx, cg) of _horner_basis for m inputs, each
    from alloc(shape, dtype)."""
    dt = coeffs.dtype
    return (alloc(m, dt), alloc(m, dt), alloc(m, np.int64),
            alloc((m,) + coeffs.shape[1:], dt))


def bspline_basis(x: Var, grid: SplineGrid) -> Var:
    """Tape op: [..., in] -> [..., in, basis_count]; differentiable in x.
    The derivative is computed and kept only if x needs a gradient."""
    xf = np.ravel(x.data)
    coeffs = grid.coefficients.astype(np.result_type(xf, np.float32))
    m, nb = xf.size, coeffs.shape[1]
    shape = x.data.shape + (nb,)
    values = np.empty((m, nb), coeffs.dtype)
    deriv = np.empty((m, nb), coeffs.dtype) if x.requires_grad else None
    _horner_basis(xf, coeffs, grid.lo, grid.step, values,
                  *_horner_scratch(m, coeffs), deriv)
    if deriv is not None:
        deriv = deriv.reshape(shape)
    return x.tape.record("bspline_basis", (x,), values.reshape(shape),
                         lambda g: ((g * deriv).sum(axis=-1),))


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
        width = self.in_dim * self.grid.basis_count
        base = ops.linear(ops.silu(x), tape.param(self.base_weight))
        bases = ops.reshape(bspline_basis(x, self.grid),
                            x.data.shape[:-1] + (width,))
        sw2 = ops.reshape(tape.param(self.spline_weight),
                          (self.out_dim, width))
        return ops.add(base, ops.linear(bases, sw2))


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
