"""Reverse-mode automatic differentiation on an explicit tape.

Every forward op appends a TapeNode holding the op name, the indices of
its parent nodes, the output array, and a backward rule (a closure over
whatever forward context the rule needs), and returns a Var that holds
the same array.  ``Tape.backprop`` walks the nodes in reverse,
accumulating output-gradients and handing each node's contribution to
its parents.  As the walk reaches an op's node it drops the node's
output, and after that node's backward its closure, so an array lives
only while a caller's Var or a backward still to run holds it.  A tape
is backpropagated once.

A tape is confined to one logical thread while it is being built and
differentiated; independent tapes may run concurrently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NumericsError, ShapeError
from .tensor import Parameter


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward", "requires_grad")

    def __init__(self, op, inputs, output, backward, requires_grad):
        self.op = op
        self.inputs = inputs          # indices of parent nodes
        self.output = output          # np.ndarray; None once backprop passed
        self.backward = backward      # grad_out -> tuple of parent grads
        self.requires_grad = requires_grad


class Var:
    """Handle to one tape node, holding the node's output array."""

    __slots__ = ("tape", "idx", "data")

    def __init__(self, tape: "Tape", idx: int, data: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self.tape.nodes[self.idx].requires_grad

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.shape})"


class Gradients:
    """Backprop result: per-node gradients for retained (leaf) nodes."""

    def __init__(self, tape: "Tape", by_idx: dict[int, np.ndarray]):
        self._tape = tape
        self._by_idx = by_idx

    def wrt(self, var: Var) -> np.ndarray:
        grad = self._by_idx.get(var.idx)
        if grad is None:
            return np.zeros_like(var.data)
        return grad

    def wrt_param(self, param: Parameter) -> np.ndarray:
        idx = self._tape._param_idx.get(id(param))
        if idx is None:
            # parameter never touched this tape: disconnected, zero grad
            return np.zeros_like(param.data)
        grad = self._by_idx.get(idx)
        if grad is None:
            return np.zeros_like(param.data)
        return grad


class Tape:
    """Records ops for one forward pass and replays them backward.

    checked=True validates that every leaf and op output is finite; the
    NumericsError it raises otherwise names the node and its op, or the
    parameter a leaf holds (off by default; ``training.train`` re-runs a
    batch whose loss is non-finite on a checked tape).

    grad=False makes a forward-only tape: every leaf, parameters
    included, is a constant, so ``record`` keeps no backward closure nor
    anything it captured, and no node keeps its output (its Var does), so
    each array dies with the last Var that holds it; ``backprop`` finds
    no gradient.
    """

    def __init__(self, checked: bool = False, grad: bool = True):
        self.nodes: list[TapeNode] = []
        self.checked = checked
        self.grad = grad
        self._param_idx: dict[int, int] = {}
        self._spent = False   # set by backprop

    # -- node creation -----------------------------------------------------

    def _append(self, op, inputs, output, backward, requires_grad) -> Var:
        if self.checked and not np.all(np.isfinite(output)):
            raise NumericsError(f"non-finite values in output of node "
                                f"{len(self.nodes)}, op '{op}'")
        self.nodes.append(TapeNode(op, inputs, output if self.grad else None,
                                   backward, requires_grad))
        return Var(self, len(self.nodes) - 1, output)

    def leaf(self, array, requires_grad: bool = False) -> Var:
        arr = np.asarray(array)
        return self._append("leaf", (), arr, None, requires_grad and self.grad)

    def constant(self, array) -> Var:
        return self.leaf(array, requires_grad=False)

    def param(self, parameter: Parameter) -> Var:
        """Bind a Parameter as a differentiable leaf (a constant on a
        grad=False tape), cached per tape."""
        idx = self._param_idx.get(id(parameter))
        if idx is not None:
            return Var(self, idx, parameter.data)
        try:
            var = self.leaf(parameter.data, requires_grad=True)
        except NumericsError as exc:
            raise NumericsError(f"{exc}: parameter {parameter.name}") from None
        self._param_idx[id(parameter)] = var.idx
        return var

    def release(self) -> None:
        """Drop all recorded nodes (frees activations and closures)."""
        self.nodes.clear()
        self._param_idx.clear()

    def record(
        self,
        op: str,
        inputs: Iterable[Var],
        output: np.ndarray,
        backward: Optional[Callable],
    ) -> Var:
        input_vars = tuple(inputs)
        for v in input_vars:
            if v.tape is not self:
                raise ShapeError("inputs belong to a different tape")
        requires = any(v.requires_grad for v in input_vars)
        idxs = tuple(v.idx for v in input_vars)
        return self._append(op, idxs, output, backward if requires else None,
                            requires)

    # -- reverse pass ------------------------------------------------------

    def backprop(self, loss: Var) -> Gradients:
        """Accumulate d(loss)/d(node) for every grad-requiring leaf.

        The loss must be scalar, and a tape is backpropagated once.  Each
        op node's output is dropped as the walk reaches it, before its
        backward runs, and its gradient and backward closure as soon as
        that backward has run; an array that a caller's Var or an earlier
        node's backward still holds stays alive until they let it go.
        """
        if loss.tape is not self:
            raise ShapeError("loss belongs to a different tape")
        if self._spent:
            raise ShapeError("this tape has already been backpropagated")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        self._spent = True

        grads: dict[int, np.ndarray] = {loss.idx: np.ones_like(loss.data)}
        owned: set[int] = {loss.idx}
        retained: dict[int, np.ndarray] = {}
        for i in range(loss.idx, -1, -1):
            node = self.nodes[i]
            if node.inputs:
                node.output = None
            grad_out = grads.pop(i, None)
            owned.discard(i)
            if grad_out is None or not node.requires_grad:
                continue
            if node.backward is None:  # leaf
                retained[i] = grad_out
                continue
            parent_grads = node.backward(grad_out)
            for j, g in zip(node.inputs, parent_grads):
                if g is None or not self.nodes[j].requires_grad:
                    continue
                acc = grads.get(j)
                if acc is None:
                    # backward rules may hand out aliased arrays; only
                    # mutate buffers this loop has allocated itself
                    grads[j] = g
                elif j in owned:
                    acc += g
                else:
                    grads[j] = acc + g
                    owned.add(j)
            node.backward = None  # free saved forward context
        return Gradients(self, retained)
