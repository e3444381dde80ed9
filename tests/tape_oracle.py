"""The general reverse-mode op set: the oracle for the program's fused nodes.

The program differentiates with hand-written backwards only (a loss's
tape form is one `fused` node over its own adjoint and the network's
backward). This module keeps the op set they were composed from before
that: elementwise and matrix ops, `view` (one
block of a flat leaf) and `linear` (x @ w + b as one node), each with its
closed-form VJP, and a `grad` that replays any tape of them, `fused` nodes
included. On top of it sit the network, the two training losses and the
feature classifier's cross-entropy as compositions of these ops, and the
exact discretized decoder likelihood that the hybrid loss's clamped t = 1
term approximates.

The ops record nodes on the program's ADTape with its Tensor handles, so a
composed loss can sit on a fused node of the program's network
(`denoise_on_fused`). Given float64 numpy operands they compute plain
numpy results.

Scope is deliberately small: arrays of rank <= 2, broadcasting only between
rank-2 and rank-1 (bias rows) or scalars. Fractional powers assume positive
bases; ln and div assume nonzero arguments, as their closed-form partials do.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erf as _scipy_erf, log_ndtr, ndtr

from diffusionlab import training
from diffusionlab.denoiser import HEAD_DUAL, _check_conditioning, _embedding, _network_vjp
from diffusionlab.errors import NonScalarOutput, ShapeMismatch, SingularCovariance
from diffusionlab.forward import GRID_LEVELS, HALF_BIN, forward_sample, grid_index, \
    posterior_mean_var, reverse_mean_from_eps
from diffusionlab.numerics import ADTape, Tensor, fused

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
_ND = np.ndarray
_F64 = np.dtype(np.float64)


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
    return _unary("ln", a, np.log)


def tanh(a):
    return _unary("tanh", a, np.tanh)


def erf(a):
    return _unary("erf", a, _scipy_erf)


def clip_min(a, floor: float):
    """Elementwise max(a, floor); the clamped region gets zero gradient."""
    floor = float(floor)
    return _unary("clip_min", a, lambda v: np.maximum(v, floor), (floor,))


def power(a, p):
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

    A Tensor gives one node whose value is a view of a's value, so a must
    not be written to while the tape lives.
    """
    if not isinstance(a, Tensor):
        return _value(a)[start:stop].reshape(shape)
    t = a.tape
    flat = t.values[a.index]
    if flat.ndim != 1:
        raise ValueError(f"view needs a rank-1 operand, got shape {flat.shape}")
    return Tensor(t, t.append("view", (a.index,), (start, stop), flat[start:stop].reshape(shape)))


def blocks(plan, params) -> dict:
    """plan.blocks for a flat tape Tensor: one view node per block."""
    if not isinstance(params, Tensor):
        return plan.blocks(params)
    return {name: view(params, a, b, shape) for name, a, b, shape in plan.plan}


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
    return g * b, g * a  # 1-D @ 1-D inner product


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
    "add": _vjp_add, "sub": _vjp_sub, "mul": _vjp_mul, "div": _vjp_div,
    "shift": _vjp_shift, "scale": _vjp_scale, "matmul": _vjp_matmul,
    "linear": _vjp_linear, "fused": _vjp_fused, "exp": _vjp_exp, "ln": _vjp_ln,
    "tanh": _vjp_tanh, "erf": _vjp_erf, "clip_min": _vjp_clip_min,
    "power": _vjp_power, "sum": _vjp_sum, "softmax": _vjp_softmax,
    "reshape": _vjp_reshape, "slice": _vjp_slice,
}


def grad(f: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar expression f with respect to each leaf.

    A view node adds its adjoint in place into its parent's flat adjoint,
    which starts as zeros, so every entry receives its one contribution
    plus exact zeros, as a sum of full-length slice adjoints would give.
    Adjoints are stored without copying; one that may alias another array
    is copied before it is written in place or returned.
    """
    if f.value.size != 1:
        raise NonScalarOutput(f"grad target has shape {f.shape}, expected a scalar")
    tape = f.tape
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
        par = parents[i]
        contribs = _VJP[op](g, values[i], [values[p] for p in par], ctxs[i])
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


def loss_and_grad(loss_fn, params: np.ndarray):
    """(value, gradient, tape length) of loss_fn at a fresh leaf of params."""
    tape = ADTape()
    leaf = tape.tensor(params)
    loss = loss_fn(leaf)
    return loss.value, grad(loss, [leaf])[0], len(tape)


# ------------------------------------------------------------ the network

def _const_group_matrices(d_feat: int, D: int, groups: int):
    """The averaging matrix (groups x d_feat), its indicator transpose, and
    the (d_feat x D) tiling matrix for modulation signals; coordinate
    i + D*j has channel i."""
    ch = np.arange(d_feat) % D
    grp = ch // (D // groups)
    avg = np.zeros((groups, d_feat))
    avg[grp, np.arange(d_feat)] = 1.0
    counts = avg.sum(axis=1, keepdims=True)
    tile = np.zeros((d_feat, D))
    tile[np.arange(d_feat), ch] = 1.0
    return avg / counts, (avg > 0).astype(np.float64), tile


def _adagn(x, y1, y2, beta=0.0, gamma=1.0, eps=1e-5, groups=1):
    """Adaptive group normalization in its general form: `groups` groups,
    modulation signals of period D = y1.shape[-1] tiled over the
    coordinates, and a gamma/beta affine; the network uses one group,
    D equal to the width, gamma 1 and beta 0."""
    avg, ind, tile = _const_group_matrices(x.shape[-1], y1.shape[-1], groups)
    m = matmul(matmul(x, avg.T), ind)
    centered = sub(x, m)
    v = matmul(matmul(mul(centered, centered), avg.T), ind)
    normed = div(centered, sqrt(add(v, eps)))
    gn = add(mul(normed, gamma), beta)
    return add(mul(matmul(y1, tile.T), gn), matmul(y2, tile.T))


def _split(arch, out, single):
    if arch.head == HEAD_DUAL:
        v1 = slice_axis(out, 1, 0, arch.d)
        v2 = tanh(slice_axis(out, 1, arch.d, 2 * arch.d))
        if single:
            return reshape(v1, (arch.d,)), reshape(v2, (arch.d,))
        return v1, v2
    return (reshape(out, (arch.d,)) if single else out), None


def denoise(model, xt, t, cond=None, params=None):
    """The network composed from ops, one node per linear, add, tanh, slice
    and AdaGN step; returns (eps_hat, v2) as denoise does for arrays."""
    arch = model.arch
    xv = np.asarray(xt, dtype=np.float64)
    single = xv.ndim == 1
    xb = xv.reshape(1, -1) if single else xv
    cv = _check_conditioning(arch, cond, xb.shape[0])
    p = blocks(model.plan, model.params if params is None else params)
    emb = _embedding(t, arch.d_emb)
    h = linear(xb, p["input.w"], p["input.b"])
    for k, w in enumerate(arch.hidden):
        pre = f"block{k}."
        if pre + "proj.w" in p:
            h = linear(h, p[pre + "proj.w"], p[pre + "proj.b"])
        h = add(h, linear(emb, p[pre + "time.w"], p[pre + "time.b"]))
        if cv is not None:
            ypair = linear(cv, p[pre + "cls.w"], p[pre + "cls.b"])
            y1 = slice_axis(ypair, 1, 0, w)
            y2 = slice_axis(ypair, 1, w, 2 * w)
            h = _adagn(h, y1, y2)
        inner = tanh(linear(h, p[pre + "core.w1"], p[pre + "core.b1"]))
        h = add(h, linear(inner, p[pre + "core.w2"], p[pre + "core.b2"]))
    return _split(arch, linear(h, p["head.w"], p["head.b"]), single)


def denoise_off_tape(model, xt, t, cond=None, params=None):
    """denoise of arrays as the program's forward off the tape runs up to
    512 rows: padded to a multiple of 8 rows with copies of the last row,
    whose own rows are kept."""
    xv = np.asarray(xt, dtype=np.float64)
    xb = xv.reshape(1, -1) if xv.ndim == 1 else xv
    n = xb.shape[0]
    if n % 8 == 0:
        return denoise(model, xv, t, cond, params)
    rows = np.minimum(np.arange(n + -n % 8), n - 1)
    cv = cond if cond is None or np.ndim(cond) == 1 else np.asarray(cond)[rows]
    padded = denoise(model, xb[rows], t, cv, params)
    return tuple(None if o is None else o[:n].reshape(xv.shape) for o in padded)


def denoise_on_fused(model, xt, t, cond=None, params=None):
    """The program's network forward and backward (denoiser._network_vjp)
    as one fused node on a tape Tensor of parameters, its head split by ops."""
    if not isinstance(params, Tensor):
        return training.denoise(model, xt, t, cond, params=params)
    xv = np.asarray(xt, dtype=np.float64)
    out, backward = _network_vjp(model, params.value, xv.reshape(-1, xv.shape[-1]), t, cond)
    return _split(model.arch, fused(params, out, backward), xv.ndim == 1)


# ------------------------------------------------------------ the losses

def _batched(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def simple_loss(model, x0, eps, t, sched, cond=None, params=None, network=denoise):
    """training.simple_loss composed from ops over `network`'s outputs."""
    x0b, epsb = _batched(x0), _batched(eps)
    xt = forward_sample(x0b, t, epsb, sched)
    eps_hat, _ = network(model, xt, t, cond, params=params)
    r = sub(epsb, eps_hat)
    return mul(total(mul(r, r)), 1.0 / x0b.shape[0])


def _log_variance(v2, t, sched):
    log_hi = math.log(1.0 - sched.a(t))
    log_lo = math.log(sched.btilde(t) if t >= 2 else sched.btilde(2))
    return add(mul(v2, log_hi), mul(sub(1.0, v2), log_lo))


def _normal_cdf(z):
    return mul(add(erf(mul(z, 1.0 / math.sqrt(2.0))), 1.0), 0.5)


def _decoder_term(x0b, mean, log_sigma2):
    k = grid_index(x0b)
    sigma = exp(mul(log_sigma2, 0.5))
    interior_hi = (k < GRID_LEVELS - 1).astype(np.float64)
    interior_lo = (k > 0).astype(np.float64)
    cdf_hi = _normal_cdf(div(x0b + HALF_BIN - mean, sigma))
    cdf_lo = _normal_cdf(div(x0b - HALF_BIN - mean, sigma))
    cdf_hi = add(mul(cdf_hi, interior_hi), 1.0 - interior_hi)
    cdf_lo = mul(cdf_lo, interior_lo)
    log_probs = ln(clip_min(sub(cdf_hi, cdf_lo), training._DECODER_PROB_FLOOR))
    return mul(total(log_probs), -1.0 / x0b.shape[0])


def hybrid_loss(model, frozen_params, x0, eps, t, sched, lam=0.001, cond=None, params=None,
                network=denoise):
    """training.hybrid_loss composed from ops over `network`'s outputs."""
    x0b, epsb = _batched(x0), _batched(eps)
    J = x0b.shape[0]
    xt = forward_sample(x0b, t, epsb, sched)
    v1, v2 = network(model, xt, t, cond, params=params)
    r = sub(epsb, v1)
    loss = mul(total(mul(r, r)), 1.0 / J)
    if lam == 0.0:
        return loss
    if frozen_params is None:
        frozen_v1 = _value(v1)
    else:
        frozen_v1, _ = training.denoise(model, xt, t, cond, params=frozen_params)
    mean_p = reverse_mean_from_eps(xt, np.asarray(frozen_v1), sched.a(t), sched.abar(t))
    log_sigma2 = _log_variance(v2, t, sched)
    if t >= 2:
        mu_q, beta_t = posterior_mean_var(xt, x0b, t, sched)
        gap2 = (mu_q - mean_p) ** 2
        inv = div(1.0, exp(log_sigma2))
        kl = add(add(log_sigma2, -math.log(beta_t) - 1.0), mul(inv, gap2 + beta_t))
        term = mul(total(kl), 0.5 / J)
    else:
        term = _decoder_term(x0b, mean_p, log_sigma2)
    return add(loss, mul(term, lam))


def feature_cross_entropy(fm, x, onehot, params):
    """Batch-mean softmax cross-entropy of the feature classifier, from ops."""
    p = blocks(fm._plan, params)
    h = _batched(x)
    for name in fm._tanh_layers():
        h = tanh(linear(h, p[name + ".w"], p[name + ".b"]))
    probs = softmax(linear(h, p["cls.w"], p["cls.b"]), axis=-1)
    return mul(total(mul(ln(probs), onehot)), -1.0 / onehot.shape[0])


# ------------------------------------------------------------ the exact decoder likelihood

def _log_bin_prob(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ln(Phi(hi) - Phi(lo)) elementwise, stable far into either tail.

    Entries of lo may be -inf and entries of hi +inf (boundary bins).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)

    # mirror right-tail pairs into the left tail where log_ndtr is sharp
    flip = lo > 0.0
    lo_w = np.where(flip, -hi, lo)
    hi_w = np.where(flip, -lo, hi)

    tail = hi_w <= 0.0
    with np.errstate(divide="ignore"):
        la = log_ndtr(np.where(tail, lo_w, -np.inf))
        lb = log_ndtr(np.where(tail, hi_w, 0.0))
        # la <= lb by monotonicity; equality marks a bin with no mass left
        tail_val = lb + np.log1p(-np.exp(la - lb))
        direct = ndtr(hi_w) - ndtr(lo_w)
        out = np.where(tail, tail_val, np.log(np.maximum(direct, 1e-300)))
    return out


def decoder_loglik(x0, mean, variance: float) -> float:
    """Log-probability that a N(mean, variance*I) draw rounds back to x0's bins.

    Per coordinate the bin is (x - 1/255, x + 1/255), widened to a full
    half-line at the grid boundaries.
    """
    if variance <= 0.0:
        raise SingularCovariance(f"variance must be > 0, got {variance}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    if x0.shape != mean.shape:
        raise ShapeMismatch(f"shapes {x0.shape} vs {mean.shape}")
    k = grid_index(x0)
    sigma = math.sqrt(variance)
    upper = np.where(k == GRID_LEVELS - 1, np.inf, (x0 + HALF_BIN - mean) / sigma)
    lower = np.where(k == 0, -np.inf, (x0 - HALF_BIN - mean) / sigma)
    return float(np.sum(_log_bin_prob(lower, upper)))
