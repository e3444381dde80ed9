"""Named blocks of one flat parameter vector, laid out once per model shape.

A ParamLayout compiles an ordered list of (name, shape) entries into a plan
of (name, start, stop, shape) rows that tile the vector in row-major order.
`blocks` then reads every block in one pass as numpy views of the vector.
A hand-written backward fills a flat gradient the same way: it takes the
block views of a gradient vector and writes each block's adjoint into its
view with out=, an affine map's through `affine_adjoint`. No other module
reads the plan's rows.

Every layout is a list of `affine` maps, each a weight matrix directly
followed by its bias. That order is the one rule `init_uniform` needs for
its scales: a weight's fan-in is its row count, and a bias takes the
fan-in of the weight before it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ShapeMismatch
from .rng import RngStream


class ParamLayout:
    """Compiled tiling of a flat parameter vector by named blocks."""

    __slots__ = ("plan", "total", "offsets")

    def __init__(self, entries: Sequence[tuple[str, tuple[int, ...]]]) -> None:
        plan = []
        start = 0
        for name, shape in entries:
            shape = tuple(int(n) for n in shape)
            stop = start + math.prod(shape)
            plan.append((name, start, stop, shape))
            start = stop
        self.plan: tuple[tuple[str, int, int, tuple[int, ...]], ...] = tuple(plan)
        self.total = start
        # name -> (offset, shape)
        self.offsets = {name: (a, shape) for name, a, _, shape in plan}

    @staticmethod
    def affine(weight: str, bias: str, n_in: int, n_out: int) -> list:
        """The entries of one affine map: the (n_in, n_out) weight, then its bias."""
        return [(weight, (n_in, n_out)), (bias, (n_out,))]

    @staticmethod
    def affine_adjoint(grads: dict, weight: str, bias: str, x, gy) -> None:
        """Write x @ w + b's adjoints for output adjoint gy into grads' views:
        x.T @ gy into the weight's, gy's column sums into the bias's."""
        np.matmul(x.T, gy, out=grads[weight])
        np.add.reduce(gy, axis=0, out=grads[bias])

    def blocks(self, params) -> dict:
        """Every block of params by name, shaped as its entry."""
        flat = np.asarray(params)
        if flat.shape != (self.total,):
            raise ShapeMismatch(f"parameter vector of shape {flat.shape}, "
                                f"layout needs ({self.total},)")
        return {name: flat[a:b].reshape(shape) for name, a, b, shape in self.plan}

    def init_uniform(self, seed: int) -> np.ndarray:
        """Each block uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn in
        plan order from one RngStream(seed)."""
        stream, params, fan_in = RngStream(seed), np.empty(self.total), 1
        for _, start, stop, shape in self.plan:
            fan_in = shape[0] if len(shape) == 2 else fan_in
            bound = 1.0 / math.sqrt(fan_in)
            params[start:stop] = bound * (2.0 * stream.uniforms(stop - start) - 1.0)
        return params
