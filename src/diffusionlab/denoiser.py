"""The noise-prediction network.

A residual MLP over flat parameter vectors. Each hidden block adds a
learned affine image of the sinusoidal time embedding and optionally
modulates activations with class-driven adaptive group normalization.
Heads: plain noise prediction, or a doubled output whose second half is a
tanh-squashed interpolation coefficient for learned variances.

The network is one plain-numpy forward for sampling and training alike.
Given a tape Tensor of parameters, it keeps its activations and becomes
a single tape node whose backward is written by hand; the losses put one
more node with their own hand-written adjoint on top of it. The parameter
layout is compiled once per architecture; each forward reads all blocks
from it in one pass.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningMismatch,
    DegenerateEmbedding,
    ShapeMismatch,
    StepOutOfRange,
)
from .numerics import ParamLayout, RngStream, Tensor, fused

HEAD_NOISE = "noise-only"
HEAD_DUAL = "noise+variance"


@functools.lru_cache(maxsize=8192)
def _embedding(t: int, d_emb: int) -> np.ndarray:
    """c = d_emb/2 sines then c cosines of t / 10000^(i/(c-1)), i = 1..c.

    Cached per (t, d_emb) and shared, so read-only.
    """
    c = d_emb // 2
    i = np.arange(1, c + 1, dtype=np.float64)
    angles = t * np.power(10000.0, -i / (c - 1))
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    emb.flags.writeable = False
    return emb


@dataclass(frozen=True)
class ClassConditioning:
    num_classes: int


@dataclass(frozen=True)
class DenoiserArch:
    """Shape of the network; parameters live separately as one flat vector."""

    d: int
    hidden: tuple[int, ...]
    d_emb: int
    head: str = HEAD_NOISE
    conditioning: ClassConditioning | None = None

    def __post_init__(self):
        if self.head not in (HEAD_NOISE, HEAD_DUAL):
            raise ShapeMismatch(f"unknown head mode {self.head!r}")
        if not self.hidden:
            raise ShapeMismatch("at least one hidden block required")
        # the sinusoidal time embedding needs c = d_emb/2 >= 2 frequencies
        if self.d_emb < 4 or self.d_emb % 2 != 0:
            raise DegenerateEmbedding(f"embedding dim must be even and >= 4, got {self.d_emb}")

    @property
    def out_dim(self) -> int:
        return 2 * self.d if self.head == HEAD_DUAL else self.d


def param_layout(arch: DenoiserArch) -> ParamLayout:
    """The compiled block plan tiling arch's flat parameter vector.

    Entries carry an implicit fan-in (their initialization scale); see
    init_params.
    """
    entries: list[tuple[str, tuple[int, ...]]] = []
    entries.append(("input.w", (arch.d, arch.hidden[0])))
    entries.append(("input.b", (arch.hidden[0],)))
    prev = arch.hidden[0]
    for k, w in enumerate(arch.hidden):
        if k > 0 and prev != w:
            entries.append((f"block{k}.proj.w", (prev, w)))
            entries.append((f"block{k}.proj.b", (w,)))
        entries.append((f"block{k}.time.w", (arch.d_emb, w)))
        entries.append((f"block{k}.time.b", (w,)))
        if arch.conditioning is not None:
            entries.append((f"block{k}.cls.w", (arch.conditioning.num_classes, 2 * w)))
            entries.append((f"block{k}.cls.b", (2 * w,)))
        entries.append((f"block{k}.core.w1", (w, w)))
        entries.append((f"block{k}.core.b1", (w,)))
        entries.append((f"block{k}.core.w2", (w, w)))
        entries.append((f"block{k}.core.b2", (w,)))
        prev = w
    entries.append(("head.w", (prev, arch.out_dim)))
    entries.append(("head.b", (arch.out_dim,)))
    return ParamLayout(entries)


def _fan_in(name: str, shape: tuple[int, ...], layout) -> int:
    if len(shape) == 2:
        return shape[0]
    # biases inherit the fan-in of their sibling weight matrix
    sibling = name[:-2] + ".w" if name.endswith(".b") else name
    if name.endswith(".b1") or name.endswith(".b2"):
        sibling = name[:-3] + ".w" + name[-1]
    return layout[sibling][1][0]


def init_params(arch: DenoiserArch, seed: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per entry, fixed seed."""
    plan = param_layout(arch)
    stream = RngStream(seed)
    params = np.empty(plan.total, dtype=np.float64)
    for name, start, stop, shape in plan.plan:
        bound = 1.0 / math.sqrt(_fan_in(name, shape, plan.offsets))
        params[start:stop] = bound * (2.0 * stream.uniforms(stop - start) - 1.0)
    return params


@dataclass(frozen=True)
class DenoiserModel:
    arch: DenoiserArch
    params: np.ndarray

    def __post_init__(self):
        plan = param_layout(self.arch)
        if self.params.shape != (plan.total,):
            raise ShapeMismatch(f"params shape {self.params.shape}, layout needs ({plan.total},)")
        object.__setattr__(self, "plan", plan)

    @staticmethod
    def initialized(arch: DenoiserArch, seed: int) -> "DenoiserModel":
        return DenoiserModel(arch, init_params(arch, seed))

    @property
    def layout(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        return self.plan.offsets

    @property
    def param_count(self) -> int:
        return self.params.size

    def with_params(self, params: np.ndarray) -> "DenoiserModel":
        return DenoiserModel(self.arch, params)


@functools.lru_cache(maxsize=64)
def _const_group_matrices(d_feat: int, D: int, groups: int):
    # averaging matrix (groups x d_feat), its indicator transpose, and the
    # (d_feat x D) tiling matrix for modulation signals; coordinate i + D*j
    # has channel i. Shared between calls, so read-only.
    ch = np.arange(d_feat) % D
    grp = ch // (D // groups)
    avg = np.zeros((groups, d_feat))
    avg[grp, np.arange(d_feat)] = 1.0
    counts = avg.sum(axis=1, keepdims=True)
    tile = np.zeros((d_feat, D))
    tile[np.arange(d_feat), ch] = 1.0
    out = (avg / counts, (avg > 0).astype(np.float64), tile)
    for m in out:
        m.flags.writeable = False
    return out


def _adagn_rows(x, y1, y2, beta, gamma, eps, groups, saved=None):
    """Adaptive group normalization of the rows of x: group-normalize, apply
    the gamma/beta affine, then scale by y1 and shift by y2, each tiled
    with period D = y1.shape[1] over the coordinates. y1 and y2 hold one
    row, or one per row of x. Appends what its backward reads to saved."""
    avg, ind, tile = _const_group_matrices(x.shape[1], y1.shape[1], groups)
    centered = np.subtract(x, np.matmul(np.matmul(x, avg.T), ind))
    ve = np.add(np.matmul(np.matmul(np.multiply(centered, centered), avg.T), ind), eps)
    sd = np.power(ve, 0.5)
    gn = np.add(np.multiply(np.divide(centered, sd), gamma), beta)
    y1t = np.matmul(y1, tile.T)
    if saved is not None:
        saved.append((centered, ve, sd, gn, y1t, float(gamma), groups))
    # large batches (sampling) run faster with fewer arrays alive at once
    del centered, ve, sd
    return np.add(np.multiply(y1t, gn), np.matmul(y2, tile.T))


def _adagn_backward(g, centered, ve, sd, gn, y1t, gamma, groups):
    """Adjoints of adagn's input rows and of y1, y2, with the expressions
    and summation order of the composed tape chain's VJPs."""
    avg, ind, tile = _const_group_matrices(centered.shape[1], y1t.shape[1], groups)
    g_y2 = g @ tile
    g_y1 = (g * gn) @ tile
    g_n = (g * y1t) * gamma
    g_sd = -g_n * centered / (sd * sd)
    g_sq = ((g_sd * 0.5 * np.power(ve, -0.5)) @ ind.T) @ avg
    g_c = ((g_n / sd) + g_sq * centered) + g_sq * centered
    return g_c + ((-g_c) @ ind.T) @ avg, g_y1, g_y2


def _check_conditioning(arch: DenoiserArch, cond, batch: int):
    c = arch.conditioning
    if c is None:
        if cond is not None:
            raise ConditioningMismatch("model takes no conditioning input")
        return None
    if cond is None:
        raise ConditioningMismatch("conditioning input required")
    cv = np.asarray(cond, dtype=np.float64)
    if cv.ndim == 1:
        if cv.shape != (c.num_classes,):
            raise ConditioningMismatch(f"class vector shape {cv.shape} vs ({c.num_classes},)")
        return np.broadcast_to(cv, (batch, c.num_classes))
    if cv.shape != (batch, c.num_classes):
        raise ConditioningMismatch(f"class batch shape {cv.shape} vs ({batch}, {c.num_classes})")
    return cv


def _network(arch: DenoiserArch, p: dict, xb, emb, cv, saved=None):
    """The network's head output for row batch xb; with saved (a list),
    also keeps the activations _network_backward reads."""
    h = np.add(np.matmul(xb, p["input.w"]), p["input.b"])
    for k, w in enumerate(arch.hidden):
        pre = f"block{k}."
        if pre + "proj.w" in p:
            if saved is not None:
                saved.append(h)
            h = np.add(np.matmul(h, p[pre + "proj.w"]), p[pre + "proj.b"])
        h = np.add(h, np.add(np.matmul(emb, p[pre + "time.w"]), p[pre + "time.b"]))
        if cv is not None:
            ypair = np.add(np.matmul(cv, p[pre + "cls.w"]), p[pre + "cls.b"])
            # contiguous halves: BLAS result bits may depend on operand layout
            h = _adagn_rows(h, ypair[:, :w].copy(), ypair[:, w:].copy(),
                            0.0, 1.0, 1e-5, 1, saved)
        inner = np.tanh(np.add(np.matmul(h, p[pre + "core.w1"]), p[pre + "core.b1"]))
        if saved is not None:
            saved.append((h, inner))
        h = np.add(h, np.add(np.matmul(inner, p[pre + "core.w2"]), p[pre + "core.b2"]))
    if saved is not None:
        saved.append(h)
    return np.add(np.matmul(h, p["head.w"]), p["head.b"])


def _network_backward(g, arch: DenoiserArch, plan: ParamLayout, p: dict, xb, emb, cv,
                      saved: list) -> np.ndarray:
    """Flat parameter adjoint of _network's head output adjoint g.

    Runs the VJPs of the composed tape (one linear, add, tanh, slice and
    AdaGN node each) in reverse tape order with the same expressions:
    linear gives g @ w.T, x.T @ g (np.outer for the 1-D time embedding)
    and g.sum(axis=0); a residual adjoint is the later use's plus the
    earlier one's. The tape added each block adjoint into zeros (`view`)
    and padded the class slices with zeros, so a -0.0 entry read +0.0;
    one final + 0.0 gives the same bits, as IEEE addition commutes and a
    zero's sign can only reach a result that is itself zero.
    """
    grads = {}
    saved = list(saved)
    h = saved.pop()
    grads["head.w"], grads["head.b"] = h.T @ g, g.sum(axis=0)
    gh = g @ p["head.w"].T
    for k in range(len(arch.hidden) - 1, -1, -1):
        pre = f"block{k}."
        hc, inner = saved.pop()
        grads[pre + "core.w2"], grads[pre + "core.b2"] = inner.T @ gh, gh.sum(axis=0)
        g_pre = (gh @ p[pre + "core.w2"].T) * (1.0 - inner * inner)
        grads[pre + "core.w1"], grads[pre + "core.b1"] = hc.T @ g_pre, g_pre.sum(axis=0)
        gh = gh + g_pre @ p[pre + "core.w1"].T
        if cv is not None:
            gh, g_y1, g_y2 = _adagn_backward(gh, *saved.pop())
            g_ypair = np.concatenate((g_y1, g_y2), axis=1)
            grads[pre + "cls.w"], grads[pre + "cls.b"] = cv.T @ g_ypair, g_ypair.sum(axis=0)
        g_time = gh.sum(axis=0)
        grads[pre + "time.w"], grads[pre + "time.b"] = np.outer(emb, g_time), g_time
        if pre + "proj.w" in p:
            grads[pre + "proj.w"], grads[pre + "proj.b"] = saved.pop().T @ gh, gh.sum(axis=0)
            gh = gh @ p[pre + "proj.w"].T
    grads["input.w"], grads["input.b"] = xb.T @ gh, gh.sum(axis=0)

    flat = np.concatenate([grads[name].reshape(-1) for name, _, _, _ in plan.plan])
    flat += 0.0
    return flat


def split_head(arch: DenoiserArch, out: np.ndarray):
    """(eps_hat, v2) from head output rows: a dual head's first d columns
    and the tanh of its last d; v2 is None for a noise-only head."""
    if arch.head == HEAD_DUAL:
        # contiguous, as a strided view may change the bits of sums and BLAS calls on it
        return out[:, :arch.d].copy(), np.tanh(out[:, arch.d:])
    return out, None


def denoise(model: DenoiserModel, xt, t: int, cond=None, params=None):
    """Evaluate the network at (xt, t, cond).

    xt is one point (d,) or a batch (J, d). Returns (eps_hat, v2) with v2
    None for noise-only heads. params defaults to the model's own vector.
    Given a tape Tensor of the same layout instead, denoise returns the
    head output rows (J, out_dim) as one fused tape node whose backward is
    _network_backward; split_head splits its value.
    """
    if t < 1:
        raise StepOutOfRange(f"step must be >= 1, got {t}")
    arch = model.arch
    xv = np.asarray(xt, dtype=np.float64)
    single = xv.ndim == 1
    if xv.shape[-1] != arch.d or xv.ndim > 2:
        raise ShapeMismatch(f"input shape {xv.shape} vs dimension {arch.d}")
    xb = xv.reshape(1, -1) if single else xv
    cv = _check_conditioning(arch, cond, xb.shape[0])

    emb = _embedding(t, arch.d_emb)
    if isinstance(params, Tensor):
        p = model.plan.blocks(params.value)
        saved = []
        value = _network(arch, p, xb, emb, cv, saved)
        return fused(params, value, lambda g: _network_backward(
            g, arch, model.plan, p, xb, emb, cv, saved))
    p = model.plan.blocks(model.params if params is None else params)
    eps_hat, v2 = split_head(arch, _network(arch, p, xb, emb, cv))
    if single:
        return eps_hat.reshape(arch.d), None if v2 is None else v2.reshape(arch.d)
    return eps_hat, v2
