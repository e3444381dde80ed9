"""Reverse-mode differentiation on an append-only tape of fused nodes.

A Tensor is a float64 numpy array registered on an ADTape. The tape holds
leaves and `fused` nodes: a fused node is a whole function of one Tensor,
computed off the tape, with a caller-written backward that maps the
adjoint of its value to the adjoint of its parent. A training loss's tape
form is one such node on the parameter leaf; training itself builds no
tape (training.loss_and_grad). grad runs the backwards of the chain from
its target down to the leaf.

The general op set (add, mul, matmul, slice, ...) that the fused backwards
reproduce lives in the tests, as the oracle they are checked against bit
for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import NonScalarOutput


class ADTape:
    """Append-only record of nodes and their forward values."""

    __slots__ = ("ops", "parents", "ctxs", "values")

    def __init__(self) -> None:
        self.ops: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.ctxs: list[tuple] = []
        self.values: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: str, parents: tuple[int, ...], ctx: tuple, value: np.ndarray) -> int:
        self.ops.append(op)
        self.parents.append(parents)
        self.ctxs.append(ctx)
        self.values.append(value)
        return len(self.ops) - 1

    def tensor(self, value) -> "Tensor":
        """Register a differentiable leaf."""
        arr = np.asarray(value, dtype=np.float64)
        return Tensor(self, self.append("leaf", (), (), arr))


class Tensor:
    """Handle to one tape node; wraps a float64 array in row-major order."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: ADTape, index: int) -> None:
        self.tape = tape
        self.index = index

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.index]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node={self.index})"


def fused(a: Tensor, value: np.ndarray, backward) -> Tensor:
    """One node for a function of a's value computed off the tape.

    backward(g) takes the adjoint of `value` and returns a's full adjoint
    as a new array, so a whole sub-network costs one node and one
    hand-written VJP.
    """
    t = a.tape
    return Tensor(t, t.append("fused", (a.index,), (backward,), value))


def grad(f: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar f with respect to each leaf.

    Every node has at most one parent, so f depends on exactly one leaf,
    through one chain of fused nodes: grad runs their backwards from f
    down, and every other leaf gets zeros. f's forward value is left
    untouched.
    """
    if not isinstance(f, Tensor):
        raise TypeError("grad target must be a Tensor on a tape")
    if f.value.size != 1:
        raise NonScalarOutput(f"grad target has shape {f.shape}, expected a scalar")
    tape = f.tape
    for leaf in leaves:
        if leaf.tape is not tape:
            raise ValueError("all leaves must live on the target's tape")

    g = np.ones_like(f.value)
    i = f.index
    while tape.parents[i]:
        g = tape.ctxs[i][0](g)
        i = tape.parents[i][0]
    return [np.asarray(g, dtype=np.float64) if leaf.index == i else np.zeros_like(leaf.value)
            for leaf in leaves]
