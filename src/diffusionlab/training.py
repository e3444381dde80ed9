"""Losses, the SGD loop, conditioning dropout, and checkpoint persistence.

The hybrid loss realizes learned variances: the per-coordinate variance
interpolates log-linearly between the step variance 1 - alpha_t and the
posterior variance beta_tilde_t, driven by the tanh head v2. Its mean path
runs through a frozen parameter copy so no gradient flows into the mean.

A training step is one loss_and_grad call: a network forward, the loss,
then its hand-written adjoint and the network's backward, with no tape.
The losses' tape form, one fused node over the same code, serves the
tests and the benchmark's gradient check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import (
    HEAD_DUAL,
    DenoiserArch,
    DenoiserModel,
    _network_vjp,
    denoise,
    split_head,
)
from .errors import (
    BadMetadata,
    ConfigError,
    DiffusionLabError,
    HeadMismatch,
    NonFiniteLoss,
    ShapeMismatch,
    StepOutOfRange,
)
from .fileio import read_container, write_container
from .forward import (GRID_LEVELS, HALF_BIN, forward_sample, grid_index,
                      log_variance_interpolation, posterior_mean_var, reverse_mean_from_eps)
from .numerics import RngStream, Tensor, fused, grad  # grad: wrapped by the benchmark's tracer
from .numerics.kernels import erf
from .numerics.rng import BLOCK_DRAWS, require_seed
from .schedule import NoiseSchedule, build_schedule

VARIANTS = ("ddpm", "improved", "cfg")
HYBRID_LAMBDA = 0.001  # default weight of the hybrid loss's variational term

# log-probabilities in the optimization objective are clamped here; the
# exact decoder likelihood the tests compare with is not
_DECODER_PROB_FLOOR = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# stream tags for the independent draw sequences of one run seed: the
# loop's steps, noise and cfg masks, and the data source's (built by cli)
_TAG_STEP = 1
_TAG_NOISE = 2
_TAG_MASK = 3
TAG_DATA = 4


@dataclass(frozen=True)
class TrainConfig:
    gamma: float
    J: int
    N: int
    lam: float = HYBRID_LAMBDA
    p_uncond: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, value in (("learning rate", self.gamma), ("hybrid weight", self.lam)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.gamma <= 0.0:
            raise ConfigError(f"learning rate must be > 0, got {self.gamma}")
        if self.J < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.J}")
        if self.N < 0:
            raise ConfigError(f"step count must be >= 0, got {self.N}")
        if self.lam < 0.0:
            raise ConfigError(f"hybrid weight must be >= 0, got {self.lam}")
        if not (0.0 <= self.p_uncond <= 1.0):
            raise ConfigError(f"dropout probability must be in [0,1], got {self.p_uncond}")
        require_seed(self.seed)


def _batched(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def _noise_term(epsb: np.ndarray, eps_hat: np.ndarray):
    """(sum ||eps - eps_hat||^2 / J, the adjoint map to eps_hat's adjoint)."""
    r = epsb - eps_hat
    scale = 1.0 / epsb.shape[0]

    def backward(g):
        # the scale, sum, r*r (two uses of r) and sub VJPs of the composed tape
        c = g * scale
        return -(c * r + c * r)

    return np.sum(r * r) * scale, backward


def simple_loss(model: DenoiserModel, x0, eps, t: int, sched: NoiseSchedule,
                cond=None, params=None):
    """Mean over the batch of ||eps - V(sqrt(abar_t) x0 + sqrt(1-abar_t) eps, t)||^2.

    Single samples (1-D inputs) give the plain squared norm. Given a tape
    Tensor of parameters, the loss is one fused node on it, with a
    hand-written adjoint.
    """
    return _loss(model, None, x0, eps, t, sched, None, cond, params)


def log_variance_range(t: int, sched: NoiseSchedule) -> tuple[float, float]:
    """(ln(1-alpha_t), ln beta_tilde_t), the ends the learned log variance
    interpolates between at step t.

    beta_tilde_1 is zero, so its log is replaced by ln beta_tilde_2: the
    step-1 variance keeps the same interpolation range as step 2 instead of
    collapsing, and sampling still uses exactly zero noise at the last step.
    """
    if not (1 <= t <= sched.T):
        raise StepOutOfRange(f"step {t} outside 1..{sched.T}")
    bt = sched.btilde(t) if t >= 2 else sched.btilde(2)
    return math.log(1.0 - sched.a(t)), math.log(bt)


def _kl_term(xt: np.ndarray, x0b: np.ndarray, mean: np.ndarray, log_sigma2: np.ndarray,
             t: int, sched: NoiseSchedule):
    """(0.5/J sum of [ln sigma^2 - ln beta - 1 + (beta + gap^2)/sigma^2], the
    adjoint map to ln sigma^2's adjoint), for t >= 2."""
    mu_q, beta_t = posterior_mean_var(xt, x0b, t, sched)
    sigma2 = np.exp(log_sigma2)
    coef = (mu_q - mean) ** 2 + beta_t
    kl = (log_sigma2 + (-math.log(beta_t) - 1.0)) + (1.0 / sigma2) * coef
    scale = 0.5 / x0b.shape[0]

    def backward(g):
        # scale and sum, then 1/sigma^2 (a div node) through exp, plus the
        # direct ln sigma^2 term, as the composed tape accumulated them
        g_kl = g * scale
        g_sigma2 = -(g_kl * coef) / (sigma2 * sigma2)
        return g_kl + g_sigma2 * sigma2

    return np.sum(kl) * scale, backward


def _cdf_sigma_adjoint(g: np.ndarray, z: np.ndarray, a: np.ndarray, sigma: np.ndarray):
    """sigma's adjoint from that of Phi(a/sigma) = (erf(z) + 1)/2, z = a/sigma/sqrt 2."""
    g_z = ((g * 0.5) * _TWO_OVER_SQRT_PI) * np.exp(-z * z)
    return -(g_z * _INV_SQRT2) * a / (sigma * sigma)


def _decoder_term(x0b: np.ndarray, k: np.ndarray, mean: np.ndarray, log_sigma2: np.ndarray):
    """(-(1/J) sum of clamped per-bin log-probabilities, the adjoint map to
    ln sigma^2's adjoint), with k the grid indices of x0b; the gradient
    flows through sigma only."""
    sigma = np.exp(log_sigma2 * 0.5)
    interior_hi = (k < GRID_LEVELS - 1).astype(np.float64)
    interior_lo = (k > 0).astype(np.float64)
    a_hi = x0b + HALF_BIN - mean
    a_lo = x0b - HALF_BIN - mean
    z_hi = (a_hi / sigma) * _INV_SQRT2
    z_lo = (a_lo / sigma) * _INV_SQRT2
    # boundary bins extend to the half-line: their CDF factor is the constant 1 or 0
    erf_hi, erf_lo = erf(np.stack((z_hi, z_lo)))  # one call: its cost is mostly per call
    cdf_hi = ((erf_hi + 1.0) * 0.5) * interior_hi + (1.0 - interior_hi)
    cdf_lo = ((erf_lo + 1.0) * 0.5) * interior_lo
    diff = cdf_hi - cdf_lo
    clipped = np.maximum(diff, _DECODER_PROB_FLOOR)
    scale = -1.0 / x0b.shape[0]

    def backward(g):
        # scale, sum, ln and clip, then the lower bin edge's chain before the
        # upper one's, as the composed tape ran them
        g_diff = ((g * scale) / clipped) * (diff > _DECODER_PROB_FLOOR)
        g_sigma = _cdf_sigma_adjoint((-g_diff) * interior_lo, z_lo, a_lo, sigma)
        g_sigma = g_sigma + _cdf_sigma_adjoint(g_diff * interior_hi, z_hi, a_hi, sigma)
        return (g_sigma * sigma) * 0.5

    return np.sum(np.log(clipped)) * scale, backward


def hybrid_loss(model: DenoiserModel, frozen_params: np.ndarray | None, x0, eps, t: int,
                sched: NoiseSchedule, lam: float = HYBRID_LAMBDA, cond=None, params=None):
    """||eps - v1||^2 plus lam times the variational term with learned variance.

    For t > 1 the variational term is the Gaussian KL between the forward
    posterior and the reverse step whose mean comes from the frozen copy
    (stopping the mean gradient) and whose diagonal variance comes from the
    live v2 head. For t = 1 it is the negative decoder log-likelihood with
    the same mean/variance split; x0 must sit on the data grid there.
    frozen_params None takes the live parameters as the frozen copy, so the
    mean reuses the live v1's value instead of a second forward. Given a
    tape Tensor of parameters, the loss is one fused node on it; its
    adjoint runs the composed tape's VJPs in reverse order.
    """
    return _loss(model, frozen_params, x0, eps, t, sched, lam, cond, params)


def loss_and_grad(model: DenoiserModel, x0, eps, t: int, sched: NoiseSchedule, variant: str,
                  cond=None, lam: float = HYBRID_LAMBDA) -> float:
    """A training step's loss at model.params, its gradient written into
    model.grads (train's own model has them), with no tape: the tape form's
    bits of simple_loss, or for improved of hybrid_loss(frozen_params=None)."""
    lam = lam if variant == "improved" else None
    return _loss(model, None, x0, eps, t, sched, lam, cond, model.params, into_grads=True)


def _loss(model: DenoiserModel, frozen_params, x0, eps, t: int, sched: NoiseSchedule,
          lam: float | None, cond, params, into_grads: bool = False):
    """The hybrid loss, or for lam None the simple loss: its value at an array
    or None, one fused node on a tape Tensor, and with into_grads its value,
    the gradient written by the loss's adjoint and _network_vjp's backward."""
    arch = model.arch
    if lam is not None and arch.head != HEAD_DUAL:
        raise HeadMismatch("hybrid loss needs a noise+variance head")
    x0b, epsb = _batched(x0), _batched(eps)
    # the decoder's grid check comes before any forward, which an off-grid
    # (say, infinite) x0 would run on
    k = grid_index(x0b) if lam and t == 1 else None
    xt = forward_sample(x0b, t, epsb, sched)
    node = isinstance(params, Tensor)
    if node or into_grads:
        out, network_backward = _network_vjp(model, params.value if node else params, xt, t, cond)
        v1, v2 = split_head(arch, out)
    else:
        v1, v2 = denoise(model, xt, t, cond, params=params)
    loss, noise_backward = _noise_term(epsb, v1)
    if lam:
        frozen_v1 = v1 if frozen_params is None else denoise(model, xt, t, cond,
                                                             params=frozen_params)[0]
        mean_p = reverse_mean_from_eps(xt, frozen_v1, sched.a(t), sched.abar(t))
        log_hi, log_lo = log_variance_range(t, sched)
        log_sigma2 = log_variance_interpolation(v2, log_hi, log_lo)
        if t >= 2:
            term, term_backward = _kl_term(xt, x0b, mean_p, log_sigma2, t, sched)
        else:
            term, term_backward = _decoder_term(x0b, k, mean_p, log_sigma2)
        loss = loss + term * lam
    if not (node or into_grads):
        return float(loss)

    def backward(g):
        g_eps = noise_backward(g)
        if arch.head == HEAD_DUAL:
            g_pre = np.zeros_like(g_eps)
            if lam:
                g_log = term_backward(g * lam)
                # v2 log_hi + (1 - v2) log_lo, the (1 - v2) recorded as -(v2 - 1)
                g_pre = ((g_log * log_lo) * -1.0 + g_log * log_hi) * (1.0 - v2 * v2)
            # the composed tape padded each half's adjoint with zeros and added
            # them; the concatenation differs at most in a zero's sign, which
            # _network_backward's final + 0.0 settles
            g_eps = np.concatenate((g_eps, g_pre), axis=1)
        return network_backward(g_eps)

    if node:
        return fused(params, loss, backward)
    backward(1.0)
    return float(loss)


def sgd_step(params: np.ndarray, grads, gamma: float) -> np.ndarray:
    """theta <- theta - gamma * grads, the batch-mean gradient, in place:
    a float64 array params is overwritten and returned (anything else is
    converted to a new array first)."""
    params = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} vs {params.shape}")
    return np.subtract(params, gamma * g, out=params)


@dataclass
class TrainResult:
    model: DenoiserModel
    losses: list[float]
    rng_counters: dict[str, int] = field(default_factory=dict)


def train(model: DenoiserModel, source, cfg: TrainConfig, sched: NoiseSchedule,
          variant: str = "ddpm") -> TrainResult:
    """Run N SGD steps; each draws one shared t, J noise vectors, J data points.

    variant ddpm trains the noise head with simple_loss, improved trains a
    dual head with hybrid_loss, cfg trains a class-conditional model with
    conditioning dropped (zeroed) with probability p_uncond per sample. A
    step is one loss_and_grad call, then one sgd_step.
    Step s takes t-stream counter s-1, noise counters from 2Jd(s-1) and cfg
    mask counters from J(s-1), drawn a block of steps (BLOCK_DRAWS noise
    values) at a time with the bits of per-step draws; data are per step.
    Deterministic: identical (model, source state, cfg) give identical
    parameter trajectories. Raises NonFiniteLoss, naming the step and t,
    at the first loss that is not finite.
    The run owns one parameter and one gradient vector, both in a model of
    its own; the caller's model is never written, and the result holds a
    copy.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == "improved" and model.arch.head != HEAD_DUAL:
        raise HeadMismatch("variant improved needs a noise+variance head")
    if variant == "cfg" and not model.arch.num_classes:
        raise ConfigError("variant cfg needs a class-conditional model")

    root = RngStream(cfg.seed)
    t_stream = root.split(_TAG_STEP)
    noise_stream = root.split(_TAG_NOISE)
    mask_stream = root.split(_TAG_MASK)

    work = DenoiserModel(model.arch, np.array(model.params, dtype=np.float64),
                         np.empty(model.param_count))
    params = work.params
    d = model.arch.d
    losses: list[float] = []
    onehots = np.eye(model.arch.num_classes) if variant == "cfg" else None

    def run_steps(first: int, m: int) -> None:
        # steps first .. first + m - 1; their draws are freed on return
        ts = t_stream.integers(m, 1, sched.T + 1).tolist()
        eps_block = noise_stream.normals(m * cfg.J * d).reshape(m, cfg.J, d)
        if variant == "cfg":
            keep_block = mask_stream.bernoulli(m * cfg.J, 1.0 - cfg.p_uncond).reshape(m, cfg.J, 1)
        for i, t in enumerate(ts):
            x0, labels = source.take(cfg.J)
            x0 = np.asarray(x0, dtype=np.float64).reshape(cfg.J, d)

            cond = None
            if variant == "cfg":
                if labels is None:
                    raise ConfigError("variant cfg needs labeled data")
                # a dropped row trains the unconditional model: zero conditioning
                cond = onehots[np.asarray(labels)] * keep_block[i]

            value = loss_and_grad(work, x0, eps_block[i], t, sched, variant, cond, cfg.lam)
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"training loss became non-finite at step {first + i} (t = {t})")
            sgd_step(params, work.grads, cfg.gamma)
            losses.append(value)

    chunk = max(1, BLOCK_DRAWS // (cfg.J * d))
    for first in range(1, cfg.N + 1, chunk):
        run_steps(first, min(cfg.N + 1 - first, chunk))

    counters = {"t": t_stream.counter, "eps": noise_stream.counter,
                "mask": mask_stream.counter}
    return TrainResult(model.with_params(params.copy()), losses, counters)


# ------------------------------------------------------------ checkpoints


@dataclass(frozen=True)
class Checkpoint:
    version: int
    schedule: dict
    arch: dict
    step: int
    rng: dict
    params32: np.ndarray


def _arch_to_meta(arch: DenoiserArch) -> dict:
    cond_meta = {"kind": "class", "num_classes": arch.num_classes} if arch.num_classes else None
    return {"d": arch.d, "hidden": list(arch.hidden), "d_emb": arch.d_emb,
            "head": arch.head, "conditioning": cond_meta}


# what reading a model or schedule back from malformed metadata can raise
_META_ERRORS = (AttributeError, KeyError, TypeError, ValueError, DiffusionLabError)


def _meta_fault(e: Exception) -> str:
    """The fault e found in metadata, in words that name no exception class."""
    return f"missing key {e.args[0]!r}" if isinstance(e, KeyError) else str(e)


def _meta_int(meta: dict, key: str) -> int:
    """meta[key], which must be a JSON integer: not a float, a text or a bool."""
    if type(meta[key]) is not int:
        raise ValueError(f"key {key!r} must be a JSON integer, got {meta[key]!r}")
    return meta[key]


def arch_from_meta(meta: dict) -> DenoiserArch:
    try:
        cond_meta = meta.get("conditioning")
        num_classes = 0
        if cond_meta is not None:
            if cond_meta["kind"] != "class":
                raise ValueError(f"conditioning kind {cond_meta['kind']!r} is not 'class'")
            num_classes = _meta_int(cond_meta, "num_classes")
            if num_classes < 1:
                raise ValueError(f"class conditioning needs >= 1 class, got {num_classes}")
        hidden = meta["hidden"]
        if type(hidden) is not list or not all(type(w) is int for w in hidden):
            raise ValueError(f"key 'hidden' must list JSON integers, got {hidden!r}")
        return DenoiserArch(_meta_int(meta, "d"), tuple(hidden), _meta_int(meta, "d_emb"),
                            meta["head"], num_classes)
    except _META_ERRORS as e:
        raise BadMetadata(f"architecture metadata unusable: {_meta_fault(e)}") from None


def schedule_to_meta(sched: NoiseSchedule) -> dict:
    return {"kind": sched.kind, "T": sched.T, "s": sched.s}


def schedule_from_meta(meta: dict) -> NoiseSchedule:
    try:
        return build_schedule(meta["kind"], _meta_int(meta, "T"), meta.get("s"))
    except _META_ERRORS as e:
        raise BadMetadata(f"schedule metadata unusable: {_meta_fault(e)}") from None


_CHECKPOINT_KEYS = {"arch": dict, "rng": dict, "schedule": dict, "step": int}


def save_checkpoint(path: str, model: DenoiserModel, sched: NoiseSchedule,
                    step: int, rng_counters: dict | None = None) -> None:
    """The model's parameters and what rebuilds it, in the checkpoint container."""
    meta = {
        "arch": _arch_to_meta(model.arch),
        "rng": rng_counters or {},
        "schedule": schedule_to_meta(sched),
        "step": int(step),
    }
    write_container(path, meta, model.params)


def load_checkpoint(path: str) -> Checkpoint:
    version, meta, params32 = read_container(path, "denoiser", _CHECKPOINT_KEYS)
    return Checkpoint(version, meta["schedule"], meta["arch"], meta["step"],
                      meta["rng"], params32)


def model_from_checkpoint(ck: Checkpoint) -> DenoiserModel:
    arch = arch_from_meta(ck.arch)
    return DenoiserModel(arch, ck.params32.astype(np.float64))
