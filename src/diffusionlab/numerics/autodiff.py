"""Reverse-mode automatic differentiation on an append-only tape.

A Tensor is a float64 numpy array registered on an ADTape. Every operation
appends one node (operation id, parent indices, the context its local
partial derivatives need) and grad replays the tape in reverse, so parents
always precede children and one backward pass yields every leaf gradient.

Scope is deliberately small: arrays of rank <= 2, broadcasting only between
rank-2 and rank-1 (bias rows) or scalars, and the primitive set needed by
the denoiser and losses. Fractional powers assume positive bases; ln and
div assume nonzero arguments, as their closed-form partials do.

The op functions (add, mul, matmul, ...) also accept plain numpy inputs and
then compute plain numpy outputs, so model code written against them runs
with or without a tape. float64 ndarray and float operands skip the dispatch
entirely.

Two primitives serve flat parameter vectors: `view` takes one contiguous
block of a rank-1 leaf as an array of any shape, and `linear` is the fused
x @ w + b of a dense layer. grad scatters the adjoint of every view in
place into one flat buffer for its parent, so a backward pass costs O(P)
in the parameter count however many blocks the model reads. `fused`
records a whole function of one Tensor as a single node with a
caller-written backward; the denoiser network is one such node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import NonScalarOutput, UnsupportedPrimitive

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
_ND = np.ndarray
_F64 = np.dtype(np.float64)


class ADTape:
    """Append-only record of operations and their forward values."""

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

    # arithmetic sugar; scalars take the cheap shift/scale paths
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _tape_of(*args) -> ADTape | None:
    for a in args:
        if isinstance(a, Tensor):
            return a.tape
    return None


def _index_on(tape: ADTape, x) -> int:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise ValueError("operands live on different tapes")
        return x.index
    return tape.append("leaf", (), (), np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of rank-2 (op) rank-1/scalar broadcast)."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(op: str, a, b, fn):
    ta, tb = type(a), type(b)
    if (ta is _ND and a.dtype is _F64 or ta is float) and \
            (tb is _ND and b.dtype is _F64 or tb is float):
        return fn(a, b)
    tape = _tape_of(a, b)
    if tape is None:
        return fn(_value(a), _value(b))
    ia, ib = _index_on(tape, a), _index_on(tape, b)
    return Tensor(tape, tape.append(op, (ia, ib), (), fn(tape.values[ia], tape.values[ib])))


def _unary(op: str, a, fn, ctx: tuple = ()):
    if type(a) is _ND and a.dtype is _F64:
        return fn(a)
    if not isinstance(a, Tensor):
        return fn(_value(a))
    t = a.tape
    return Tensor(t, t.append(op, (a.index,), ctx, fn(a.value)))


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ------------------------------------------------------------ primitives

def add(a, b):
    if isinstance(a, Tensor) and _is_scalar(b):
        return _unary("shift", a, lambda v: v + b, (float(b),))
    if isinstance(b, Tensor) and _is_scalar(a):
        return _unary("shift", b, lambda v: v + a, (float(a),))
    return _binary("add", a, b, np.add)


def sub(a, b):
    if isinstance(a, Tensor) and _is_scalar(b):
        return _unary("shift", a, lambda v: v - b, (float(-b),))
    if isinstance(b, Tensor) and _is_scalar(a):
        return neg(_unary("shift", b, lambda v: v - a, (float(-a),)))
    return _binary("sub", a, b, np.subtract)


def mul(a, b):
    if isinstance(a, Tensor) and _is_scalar(b):
        return _unary("scale", a, lambda v: v * b, (float(b),))
    if isinstance(b, Tensor) and _is_scalar(a):
        return _unary("scale", b, lambda v: v * a, (float(a),))
    return _binary("mul", a, b, np.multiply)


def div(a, b):
    if isinstance(a, Tensor) and _is_scalar(b):
        return _unary("scale", a, lambda v: v / b, (1.0 / float(b),))
    return _binary("div", a, b, np.divide)


def neg(a):
    return _unary("scale", a, np.negative, (-1.0,)) if isinstance(a, Tensor) else -_value(a)


def matmul(a, b):
    return _binary("matmul", a, b, np.matmul)


def linear(x, w, b):
    """Dense layer x @ w + b as one node; x is a row batch or one vector.

    A constant x (not a Tensor) is kept in the node's context instead of
    becoming a leaf, so backward skips its unused gradient.
    """
    if type(x) is _ND and type(w) is _ND and type(b) is _ND and x.dtype is _F64 \
            and w.dtype is _F64 and b.dtype is _F64:
        return np.add(np.matmul(x, w), b)
    tape = _tape_of(x, w, b)
    if tape is None:
        return np.add(np.matmul(_value(x), _value(w)), _value(b))
    iw, ib = _index_on(tape, w), _index_on(tape, b)
    vals = tape.values
    if isinstance(x, Tensor):
        parents, ctx, xv = (_index_on(tape, x), iw, ib), (), x.value
    else:
        xv = _value(x)
        parents, ctx = (iw, ib), (xv,)
    out = np.add(np.matmul(xv, vals[iw]), vals[ib])
    return Tensor(tape, tape.append("linear", parents, ctx, out))


def exp(a):
    return _unary("exp", a, np.exp)


def ln(a):
    """Natural logarithm; argument must be strictly positive."""
    return _unary("ln", a, np.log)


def tanh(a):
    return _unary("tanh", a, np.tanh)


def erf(a):
    from scipy.special import erf as scipy_erf  # lazy: ~0.3 s to import

    return _unary("erf", a, scipy_erf)


def clip_min(a, floor: float):
    """Elementwise max(a, floor); the clamped region gets zero gradient."""
    floor = float(floor)
    return _unary("clip_min", a, lambda v: np.maximum(v, floor), (floor,))


def power(a, p):
    """Elementwise a**p for a constant exponent p."""
    p = float(p)
    return _unary("power", a, lambda v: np.power(v, p), (p,))


def sqrt(a):
    return power(a, 0.5)


def total(a):
    """Sum of every entry (scalar)."""
    return _unary("sum", a, lambda v: np.asarray(np.sum(v)), (_value(a).shape,))


def softmax(a, axis: int = -1):
    def fn(v):
        m = np.max(v, axis=axis, keepdims=True)
        e = np.exp(v - m)
        return e / np.sum(e, axis=axis, keepdims=True)

    return _unary("softmax", a, fn, (axis,))


def reshape(a, shape):
    shape = tuple(shape)
    return _unary("reshape", a, lambda v: v.reshape(shape), (_value(a).shape,))


def slice_axis(a, axis: int, start: int, stop: int):
    """Contiguous slice along one axis."""

    def fn(v):
        sl = [slice(None)] * v.ndim
        sl[axis] = slice(start, stop)
        return v[tuple(sl)].copy()

    return _unary("slice", a, fn, (axis, start, stop, _value(a).shape))


def view(a, start: int, stop: int, shape):
    """Entries start..stop of the rank-1 a, read in row-major order as `shape`.

    Plain arrays give a numpy view; a Tensor gives one node whose value is
    a view of a's value, so a must not be written to while the tape lives.
    """
    if not isinstance(a, Tensor):
        return _value(a)[start:stop].reshape(shape)
    t = a.tape
    flat = t.values[a.index]
    if flat.ndim != 1:
        raise ValueError(f"view needs a rank-1 operand, got shape {flat.shape}")
    return Tensor(t, t.append("view", (a.index,), (start, stop), flat[start:stop].reshape(shape)))


def fused(a: Tensor, value: np.ndarray, backward):
    """One node for a function of a's value computed off the tape.

    backward(g) takes the adjoint of `value` and returns a's full adjoint,
    so a whole sub-network costs one node and one hand-written VJP.
    """
    t = a.tape
    return Tensor(t, t.append("fused", (a.index,), (backward,), value))


# ------------------------------------------------------------ backward

def _vjp_add(g, out, pv, ctx):
    return _unbroadcast(g, pv[0].shape), _unbroadcast(g, pv[1].shape)


def _vjp_sub(g, out, pv, ctx):
    return _unbroadcast(g, pv[0].shape), _unbroadcast(-g, pv[1].shape)


def _vjp_mul(g, out, pv, ctx):
    return _unbroadcast(g * pv[1], pv[0].shape), _unbroadcast(g * pv[0], pv[1].shape)


def _vjp_div(g, out, pv, ctx):
    a, b = pv
    return _unbroadcast(g / b, a.shape), _unbroadcast(-g * a / (b * b), b.shape)


def _vjp_shift(g, out, pv, ctx):
    return (g,)


def _vjp_scale(g, out, pv, ctx):
    return (g * ctx[0],)


def _vjp_matmul(g, out, pv, ctx):
    a, b = pv
    if a.ndim == 2 and b.ndim == 2:
        return g @ b.T, a.T @ g
    if a.ndim == 1 and b.ndim == 2:
        return g @ b.T, np.outer(a, g)
    if a.ndim == 2 and b.ndim == 1:
        return np.outer(g, b), a.T @ g
    # 1-D @ 1-D inner product
    return g * b, g * a


def _vjp_linear(g, out, pv, ctx):
    if ctx:  # constant x: gradients for w and b only
        x, (w, b) = ctx[0], pv
        gw = x.T @ g if x.ndim == 2 else np.outer(x, g)
        return gw, _unbroadcast(g, b.shape)
    x, w, b = pv
    gx, gw = _vjp_matmul(g, out, (x, w), ())
    return gx, gw, _unbroadcast(g, b.shape)


def _vjp_fused(g, out, pv, ctx):
    return (ctx[0](g),)


def _vjp_exp(g, out, pv, ctx):
    return (g * out,)


def _vjp_ln(g, out, pv, ctx):
    return (g / pv[0],)


def _vjp_tanh(g, out, pv, ctx):
    return (g * (1.0 - out * out),)


def _vjp_erf(g, out, pv, ctx):
    x = pv[0]
    return (g * _TWO_OVER_SQRT_PI * np.exp(-x * x),)


def _vjp_clip_min(g, out, pv, ctx):
    return (g * (pv[0] > ctx[0]),)


def _vjp_power(g, out, pv, ctx):
    p = ctx[0]
    return (g * p * np.power(pv[0], p - 1.0),)


def _vjp_sum(g, out, pv, ctx):
    return (np.full(ctx[0], g),)


def _vjp_softmax(g, out, pv, ctx):
    axis = ctx[0]
    return (out * (g - np.sum(g * out, axis=axis, keepdims=True)),)


def _vjp_reshape(g, out, pv, ctx):
    return (g.reshape(ctx[0]),)


def _vjp_slice(g, out, pv, ctx):
    axis, start, stop, in_shape = ctx
    full = np.zeros(in_shape, dtype=np.float64)
    sl = [slice(None)] * len(in_shape)
    sl[axis] = slice(start, stop)
    full[tuple(sl)] = g
    return (full,)


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "shift": _vjp_shift,
    "scale": _vjp_scale,
    "matmul": _vjp_matmul,
    "linear": _vjp_linear,
    "fused": _vjp_fused,
    "exp": _vjp_exp,
    "ln": _vjp_ln,
    "tanh": _vjp_tanh,
    "erf": _vjp_erf,
    "clip_min": _vjp_clip_min,
    "power": _vjp_power,
    "sum": _vjp_sum,
    "softmax": _vjp_softmax,
    "reshape": _vjp_reshape,
    "slice": _vjp_slice,
}


def grad(f: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar expression f with respect to each leaf.

    Reverse accumulation over the tape; f's forward value is left untouched.
    A view node adds its adjoint in place into its parent's flat adjoint,
    which starts as zeros, so every entry receives its one contribution
    plus exact zeros, as a sum of full-length slice adjoints would give.
    Adjoints are stored without copying; one that may alias another array
    is copied before it is written in place or returned.
    """
    if not isinstance(f, Tensor):
        raise TypeError("grad target must be a Tensor on a tape")
    if f.value.size != 1:
        raise NonScalarOutput(f"grad target has shape {f.shape}, expected a scalar")
    tape = f.tape
    for leaf in leaves:
        if leaf.tape is not tape:
            raise ValueError("all leaves must live on the target's tape")

    adjoint: list[np.ndarray | None] = [None] * (f.index + 1)
    adjoint[f.index] = np.ones_like(f.value)
    owned = {f.index}  # nodes whose adjoint array grad allocated itself
    ops, parents, ctxs, values = tape.ops, tape.parents, tape.ctxs, tape.values

    for i in range(f.index, -1, -1):
        g = adjoint[i]
        op = ops[i]
        if g is None or op == "leaf":
            continue
        if op == "view":
            p = parents[i][0]
            flat = adjoint[p]
            if flat is None:
                flat = adjoint[p] = np.zeros(values[p].shape, dtype=np.float64)
            elif p not in owned:
                flat = adjoint[p] = np.array(flat, dtype=np.float64)
            owned.add(p)
            start, stop = ctxs[i]
            flat[start:stop] += g.reshape(-1)
            continue
        vjp = _VJP.get(op)
        if vjp is None:
            raise UnsupportedPrimitive(f"no derivative rule for operation {op!r}")
        par = parents[i]
        contribs = vjp(g, values[i], [values[p] for p in par], ctxs[i])
        for p, c in zip(par, contribs):
            if adjoint[p] is None:
                adjoint[p] = c
            else:
                adjoint[p] = adjoint[p] + c
                owned.add(p)

    out = []
    for leaf in leaves:
        i = leaf.index
        g = adjoint[i] if i <= f.index else None
        if g is None:
            out.append(np.zeros_like(leaf.value))
        else:
            out.append(np.asarray(g) if i in owned else np.array(g, dtype=np.float64))
    return out
