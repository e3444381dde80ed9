"""The noise-prediction network.

A residual MLP over flat parameter vectors. Each hidden block adds a
learned affine image of the sinusoidal time embedding and optionally
modulates activations with class-driven adaptive group normalization.
Heads: plain noise prediction, or a doubled output whose second half is a
tanh-squashed interpolation coefficient for learned variances.

The network is one plain-numpy forward for sampling and training alike.
For training, _network_vjp keeps its activations and pairs it with its
backward, written by hand. A model takes its layer views once, when it is
made: per hidden block one tuple of its layers' weights and biases. A
forward of another vector builds its tuples straight from the plan.

During training, `train` owns the parameter and gradient buffers: its own
model holds both, with layer views of each taken once, and the backward
writes its block adjoints into the gradient's views. Any other backward
returns a fresh vector. AdaGN's constant columns are made once per model,
and its time embeddings one call per block of 16 steps, on first use.

`denoise` runs the network on the row blocks of kernels.row_blocks, so
its intermediates never grow with the batch. A sampler makes one
workspace per call, a dict of buffers keyed by role and width, and passes
it to every network evaluation. The forward then writes each (rows,
width) intermediate into the leading rows of the same few buffers block
after block and step after step, with the same ufuncs in the same order,
so the bits are those of fresh arrays; a large batch no longer frees and
re-faults its temporaries on every step, and its workspace holds at most
512 rows per buffer. Training passes none and runs its batch whole: its
saved activations must stay intact until the backward.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningMismatch, ConfigError, ShapeMismatch, StepOutOfRange
from .numerics import ParamLayout
from .numerics.kernels import row_blocks

HEAD_NOISE = "noise-only"
HEAD_DUAL = "noise+variance"
_EMB_BLOCK = 16  # steps per time-embedding call of a model's cache


def _embedding(t, d_emb: int) -> np.ndarray:
    """c = d_emb/2 sines then c cosines of t / 10000^(i/(c-1)), i = 1..c;
    for an array of steps t, one row per step, with the one-step call's bits."""
    c = d_emb // 2
    i = np.arange(1, c + 1, dtype=np.float64)
    angles = np.multiply.outer(t, np.power(10000.0, -i / (c - 1)))
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass(frozen=True)
class DenoiserArch:
    """Shape of the network; parameters live separately as one flat vector.
    num_classes > 0 makes the model class-conditional; 0 leaves it
    unconditional."""

    d: int
    hidden: tuple[int, ...]
    d_emb: int
    head: str = HEAD_NOISE
    num_classes: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"data dimension d must be >= 1, got {self.d}")
        if self.num_classes < 0:
            raise ConfigError(f"num_classes must be >= 0, got {self.num_classes}")
        if self.head not in (HEAD_NOISE, HEAD_DUAL):
            raise ShapeMismatch(f"unknown head mode {self.head!r}")
        if not self.hidden:
            raise ShapeMismatch("at least one hidden block required")
        if min(self.hidden) < 1:
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        # the sinusoidal time embedding needs c = d_emb/2 >= 2 frequencies
        if self.d_emb < 4 or self.d_emb % 2 != 0:
            raise ConfigError(f"embedding dim must be even and >= 4, got {self.d_emb}")

    @property
    def out_dim(self) -> int:
        return 2 * self.d if self.head == HEAD_DUAL else self.d


def param_layout(arch: DenoiserArch) -> ParamLayout:
    """The compiled block plan tiling arch's flat parameter vector, one
    ParamLayout.affine map after another."""
    affine = ParamLayout.affine
    entries = affine("input.w", "input.b", arch.d, arch.hidden[0])
    prev = arch.hidden[0]
    for k, w in enumerate(arch.hidden):
        pre = f"block{k}."
        if k > 0 and prev != w:
            entries += affine(pre + "proj.w", pre + "proj.b", prev, w)
        entries += affine(pre + "time.w", pre + "time.b", arch.d_emb, w)
        if arch.num_classes:
            entries += affine(pre + "cls.w", pre + "cls.b", arch.num_classes, 2 * w)
        entries += affine(pre + "core.w1", pre + "core.b1", w, w)
        entries += affine(pre + "core.w2", pre + "core.b2", w, w)
        prev = w
    return ParamLayout(entries + affine("head.w", "head.b", prev, arch.out_dim))


def init_params(arch: DenoiserArch, seed: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per entry, fixed seed."""
    return param_layout(arch).init_uniform(seed)


def _adagn_consts(w: int) -> tuple:
    """AdaGN's constants at width w: the (w, 1) mean column and (1, w)
    average row of 1/w, and the (w, 1) column of ones."""
    return np.full((w, 1), 1.0 / w), np.full((1, w), 1.0 / w), np.ones((w, 1))


def _layer_views(arch: DenoiserArch, plan: ParamLayout, flat) -> tuple:
    """((input.w, input.b), per hidden block (proj, time.w, time.b, cls,
    core.w1, core.b1, core.w2, core.b2), (head.w, head.b)): flat's views,
    proj and cls (w, b) pairs, or None where arch has no such layer."""
    v = iter(plan.blocks(flat).values())
    first, blocks, prev = (next(v), next(v)), [], arch.hidden[0]
    for w in arch.hidden:
        proj = (next(v), next(v)) if prev != w else None
        time_w, time_b = next(v), next(v)
        cls = (next(v), next(v)) if arch.num_classes else None
        blocks.append((proj, time_w, time_b, cls, next(v), next(v), next(v), next(v)))
        prev = w
    return first, tuple(blocks), (next(v), next(v))


class DenoiserModel:
    """The network's shape and its flat parameter vector. grads, given only
    by `train` to the model it keeps to itself, is where a backward of
    params writes its parameter adjoint instead of a fresh vector."""

    def __init__(self, arch: DenoiserArch, params: np.ndarray, grads: np.ndarray | None = None):
        self.arch = arch
        self.params = params
        self.grads = grads
        self.plan = param_layout(arch)
        self.blocks = _layer_views(arch, self.plan, params)  # checks the length
        self.grad_blocks = None if grads is None else _layer_views(arch, self.plan, grads)
        self.adagn_consts = {w: _adagn_consts(w) for w in set(arch.hidden) if arch.num_classes}
        self.embeddings = {}

    @staticmethod
    def initialized(arch: DenoiserArch, seed: int) -> "DenoiserModel":
        return DenoiserModel(arch, init_params(arch, seed))

    @property
    def param_count(self) -> int:
        return self.params.size

    def embedding(self, t: int) -> np.ndarray:
        """Step t's time embedding, cached 16 steps a call."""
        if t not in self.embeddings:
            steps = range(t - t % _EMB_BLOCK, t - t % _EMB_BLOCK + _EMB_BLOCK)
            table = _embedding(np.array(steps), self.arch.d_emb)
            table.flags.writeable = False
            self.embeddings.update(zip(steps, table))
        return self.embeddings[t]

    def with_params(self, params: np.ndarray) -> "DenoiserModel":
        return DenoiserModel(self.arch, params)


def _buf(ws, role: str, shape: tuple) -> np.ndarray | None:
    """The leading shape[0] rows of ws's buffer for role at width shape[1],
    made on first use and remade only to grow; None without ws, so an out=
    of it gives a fresh array."""
    if ws is None:
        return None
    key = (role, shape[1])
    b = ws.get(key)
    if b is None or b.shape[0] < shape[0]:
        b = ws[key] = np.empty(shape)
    return b[:shape[0]]


def _adagn_rows(x, y1, y2, eps, consts, saved=None, ws=None):
    """Adaptive normalization of the rows of x with one group: normalize each
    row, then scale by y1 and shift by y2, which hold one row, or one per
    row of x. consts are _adagn_consts of x's width. Appends what its
    backward reads to saved; with ws, writes the result over x.

    A row mean is one matrix-vector product against a column of 1/w. The
    `+ 0.0` terms keep the bits of the general form's averaging and tiling
    matmuls (kept in tests/tape_oracle.py): they turn -0.0 into +0.0, as a
    BLAS sum started at zero does.
    """
    n, w = x.shape
    mean_col = consts[0]
    col = _buf(ws, "col", (n, 1))
    m = np.add(np.matmul(x, mean_col, out=col), 0.0, out=col)
    centered = np.subtract(x, m, out=_buf(ws, "s1", x.shape))
    sq = np.multiply(centered, centered, out=_buf(ws, "s2", x.shape))
    ve = np.add(np.matmul(sq, mean_col, out=col), eps, out=col)
    sd = np.power(ve, 0.5, out=col)
    # gn * 1.0 + 0.0 in the general form; the sign of a zero gn reaches no
    # result, as gn only enters y1t * gn + (y2 + 0.0) and (g * gn) + 0.0
    gn = np.divide(centered, sd, out=_buf(ws, "s2", x.shape))
    y1t = np.add(y1, 0.0, out=_buf(ws, "y1", y1.shape))
    if saved is not None:
        saved.append((centered, ve, sd, gn, y1t, consts))
    out = np.multiply(y1t, gn, out=_buf(ws, "h", x.shape))
    return np.add(out, np.add(y2, 0.0, out=_buf(ws, "y2", y2.shape)), out=out)


def _adagn_backward(g, centered, ve, sd, gn, y1t, consts):
    """Adjoints of adagn's input rows and of y1, y2, with the expressions
    and summation order of the composed tape chain's VJPs; a row sum is one
    matrix-vector product against a column of ones."""
    _, avg, ones_col = consts
    g_y2 = g + 0.0
    g_y1 = (g * gn) + 0.0
    g_n = g * y1t
    g_sd = -g_n * centered / (sd * sd)
    g_sq = ((g_sd * 0.5 * np.power(ve, -0.5)) @ ones_col) * avg + 0.0
    g_c = ((g_n / sd) + g_sq * centered) + g_sq * centered
    return g_c + (((-g_c) @ ones_col) * avg + 0.0), g_y1, g_y2


def _check_conditioning(arch: DenoiserArch, cond, batch: int):
    c = arch.num_classes
    if not c:
        if cond is not None:
            raise ConditioningMismatch("model takes no conditioning input")
        return None
    if cond is None:
        raise ConditioningMismatch("conditioning input required")
    cv = np.asarray(cond, dtype=np.float64)
    if cv.ndim == 1:
        if cv.shape != (c,):
            raise ConditioningMismatch(f"class vector shape {cv.shape} vs ({c},)")
        return np.broadcast_to(cv, (batch, c))
    if cv.shape != (batch, c):
        raise ConditioningMismatch(f"class batch shape {cv.shape} vs ({batch}, {c})")
    return cv


def _network(model: DenoiserModel, p: tuple, xb, emb, cv, saved=None, ws=None, out=None):
    """The network's head output for row batch xb under layer views p
    (_layer_views), written into out when given; with saved (a list), also
    keeps the activations _network_backward reads.

    With ws (a dict, for forwards without saved), every row-batch result
    but the head output is written into ws's buffers, kept by role and
    width; the values and their bits are those of fresh arrays.
    """
    (w_in, b_in), blocks, (w_head, b_head) = p
    n = xb.shape[0]
    if cv is not None and cv.strides[0] == 0:
        # one class vector for every row: its modulation is one row. numpy
        # multiplies a stride-0 batch of two or more rows as a contiguous
        # copy through gemm, so two rows keep the whole batch's bits
        cv = cv[:2]
    hb = _buf(ws, "h", (n, w_in.shape[1]))
    h = np.add(np.matmul(xb, w_in, out=hb), b_in, out=hb)
    for proj, time_w, time_b, cls, w1, b1, w2, b2 in blocks:
        w = time_w.shape[1]
        hb = _buf(ws, "h", (n, w))
        if proj is not None:
            if saved is not None:
                saved.append(h)
            h = np.add(np.matmul(h, proj[0], out=hb), proj[1], out=hb)
        h = np.add(h, np.add(np.matmul(emb, time_w), time_b), out=hb)
        if cls is not None:
            yb = _buf(ws, "ypair", (cv.shape[0], 2 * w))
            ypair = np.add(np.matmul(cv, cls[0], out=yb), cls[1], out=yb)
            if cv.strides[0] == 0:
                ypair = ypair[:1]
            h = _adagn_rows(h, ypair[:, :w], ypair[:, w:], 1e-5, model.adagn_consts[w],
                            saved, ws)
        s1 = _buf(ws, "s1", (n, w))
        inner = np.tanh(np.add(np.matmul(h, w1, out=s1), b1, out=s1), out=s1)
        if saved is not None:
            saved.append((h, inner))
        s2 = _buf(ws, "s2", (n, w))
        h = np.add(h, np.add(np.matmul(inner, w2, out=s2), b2, out=s2), out=hb)
    if saved is not None:
        saved.append(h)
    out = np.matmul(h, w_head, out=out)
    return np.add(out, b_head, out=out)


def _network_backward(g, model: DenoiserModel, p: tuple, xb, emb, cv, saved: list,
                      into_grads: bool = False) -> np.ndarray:
    """Flat parameter adjoint of _network's head output adjoint g, for its
    layer views p and saved activations: a fresh vector, or with into_grads
    model.grads, its layer views overwritten.

    Runs the VJPs of the composed tape (one linear, add, tanh, slice and
    AdaGN node each) in reverse tape order with the same expressions:
    linear x @ w + b gives g @ w.T, x.T @ g and g's column sums (the 1-D
    time embedding's weight takes an outer product); a residual adjoint is
    the later use's plus the earlier one's. The tape added each block
    adjoint into zeros (`view`) and padded the class slices with zeros, so
    a -0.0 entry read +0.0; one final + 0.0 gives the same bits, as IEEE
    addition commutes and a zero's sign only reaches a zero result.
    """
    flat = model.grads if into_grads else np.empty(model.plan.total)
    (gw_in, gb_in), grad_blocks, (gw_head, gb_head) = (
        model.grad_blocks if into_grads else _layer_views(model.arch, model.plan, flat))
    _, blocks, (w_head, _) = p
    acts = reversed(saved)
    np.matmul(next(acts).T, g, out=gw_head)
    np.add.reduce(g, axis=0, out=gb_head)
    gh = g @ w_head.T
    for (proj, _, _, cls, w1, _, w2, _), (g_proj, g_time_w, g_time_b, g_cls, g_w1, g_b1, g_w2,
                                          g_b2) in zip(reversed(blocks), reversed(grad_blocks)):
        hc, inner = next(acts)
        np.matmul(inner.T, gh, out=g_w2)
        np.add.reduce(gh, axis=0, out=g_b2)
        g_pre = (gh @ w2.T) * (1.0 - inner * inner)
        np.matmul(hc.T, g_pre, out=g_w1)
        np.add.reduce(g_pre, axis=0, out=g_b1)
        gh = gh + g_pre @ w1.T
        if cls is not None:
            gh, g_y1, g_y2 = _adagn_backward(gh, *next(acts))
            g_y = np.concatenate((g_y1, g_y2), axis=1)
            np.matmul(cv.T, g_y, out=g_cls[0])
            np.add.reduce(g_y, axis=0, out=g_cls[1])
        np.multiply(emb[:, None], np.add.reduce(gh, axis=0, out=g_time_b), out=g_time_w)
        if proj is not None:
            np.matmul(next(acts).T, gh, out=g_proj[0])
            np.add.reduce(gh, axis=0, out=g_proj[1])
            gh = gh @ proj[0].T
    np.matmul(xb.T, gh, out=gw_in)
    np.add.reduce(gh, axis=0, out=gb_in)
    return np.add(flat, 0.0, out=flat)


def _network_vjp(model: DenoiserModel, flat: np.ndarray, xb: np.ndarray, t: int, cond):
    """(head output, backward) of one forward of row batch xb under flat:
    backward(g) is the flat parameter adjoint of head output adjoint g, in
    model.grads if flat is model.params and it has them, else fresh."""
    if xb.shape[1] != model.arch.d:
        raise ShapeMismatch(f"input shape {xb.shape} vs dimension {model.arch.d}")
    cv, emb, saved = _check_conditioning(model.arch, cond, len(xb)), model.embedding(t), []
    own = flat is model.params
    p = model.blocks if own else _layer_views(model.arch, model.plan, flat)
    return _network(model, p, xb, emb, cv, saved), lambda g: _network_backward(
        g, model, p, xb, emb, cv, saved, own and model.grads is not None)


def split_head(arch: DenoiserArch, out: np.ndarray):
    """(eps_hat, v2) from head output rows: a dual head's first d columns
    and the tanh of its last d; v2 is None for a noise-only head."""
    if arch.head == HEAD_DUAL:
        # contiguous, as a strided view may change the bits of sums and BLAS calls on it
        return out[:, :arch.d].copy(), np.tanh(out[:, arch.d:])
    return out, None


def denoise(model: DenoiserModel, xt, t: int, cond=None, params=None, ws=None):
    """Evaluate the network at (xt, t, cond).

    xt is one point (d,) or a batch (J, d). Returns (eps_hat, v2) with v2
    None for noise-only heads. params defaults to the model's own vector.

    The rows run through the network in the blocks of kernels.row_blocks,
    at most 512 rows each, a block of a row count that is not a multiple
    of 8 padded with copies of its last row.

    ws is an optional workspace, a dict that one caller keeps across calls
    (a sampler, for all its steps): the forward then reuses its buffers
    instead of allocating its intermediates afresh. The returned arrays
    never share memory with it.
    """
    if t < 1:
        raise StepOutOfRange(f"step must be >= 1, got {t}")
    arch = model.arch
    xv = np.asarray(xt, dtype=np.float64)
    single = xv.ndim == 1
    if xv.shape[-1] != arch.d or xv.ndim > 2:
        raise ShapeMismatch(f"input shape {xv.shape} vs dimension {arch.d}")
    xb = xv.reshape(1, -1) if single else xv
    n = xb.shape[0]
    cv = _check_conditioning(arch, cond, n)
    emb = model.embedding(t)
    p = model.blocks if params is None else _layer_views(arch, model.plan, params)
    # a broadcast class vector of two or more rows goes whole: _network reads
    # its first two rows
    whole = cv is None or cv.strides[0] == 0 and n > 1
    out = row_blocks(n, arch.out_dim, lambda rows, dst: _network(
        model, p, xb[rows], emb, cv if whole else cv[rows], ws=ws, out=dst))
    eps_hat, v2 = split_head(arch, out)
    if single:
        return eps_hat.reshape(arch.d), None if v2 is None else v2.reshape(arch.d)
    return eps_hat, v2
