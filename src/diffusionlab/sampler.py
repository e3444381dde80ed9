"""Backward-process generators: ancestral, strided learned-variance, the
eta-family of partially deterministic samplers, and guided extrapolation.

Every chain in a batch owns a private stream derived from (seed, chain
index), so per-chain draws never depend on how many chains run together.
Chain i's noise comes from the key of RngStream(seed).split(i): its start
is the d normals at counters 0 ... 2d - 1, and its k-th noisy step uses
counters 2*d*k ... 2*d*(k+1) - 1. Each step draws its block for all chains
at once, so a batch holds O(count * d) noise whatever the number of steps.
BLAS may sum a product's terms in another order for another number of
rows, so the network runs in the row blocks of kernels.row_blocks, each
padded to a multiple of 8 rows (see denoiser.denoise): no chain's bits
depend on the count in any case measured (counts 1 to 47 against a
48-chain run, and the first 16 chains of counts up to 20 001).
All four samplers share the convention that the final step adds no noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import HEAD_DUAL, HEAD_NOISE, DenoiserModel, denoise
from .errors import ConditioningMismatch, ConfigError, HeadMismatch, NonFiniteSample
from .forward import log_variance_interpolation, reverse_mean_from_eps
from .numerics.kernels import normals_rows
from .numerics.rng import require_seed, split_keys
from .schedule import NoiseSchedule, StridePlan

SAMPLER_VARIANTS = ("ddpm", "improved", "ddim", "guided")


@dataclass(frozen=True)
class SampleRequest:
    count: int
    seed: int
    record_trajectory: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.count}")
        require_seed(self.seed)


@dataclass(frozen=True)
class SampleResult:
    samples: np.ndarray
    trajectory: np.ndarray | None = None


def _run_chain(step_fn, d: int, req: SampleRequest, times, noisy, where: str):
    """Walk the batch down `times` from a standard normal start.

    step_fn(x, time) -> (mean, sigma) returns a fresh mean array, which is
    updated in place into the next state; sigma (scalar or per-coordinate)
    is applied only where noisy(time) holds. The k-th noisy step draws
    block k of every chain, when it comes, into one reused (count, d)
    buffer; the start is block 0 (see the module docstring).

    The first step whose new state holds a NaN or an infinity raises
    NonFiniteSample; `where` names the sampler and its loop variable in the
    message, for example "ddim sampling, stride k".
    """
    keys = split_keys(req.seed, np.arange(req.count, dtype=np.uint64))
    x = np.empty((req.count, d))
    normals_rows(keys, 0, x)
    z = np.empty_like(x)
    frames = [x] if req.record_trajectory else None
    block = 0
    for time in times:
        mean, sigma = step_fn(x, time)
        if noisy(time):
            block += 1
            normals_rows(keys, 2 * d * block, z)
            np.multiply(sigma, z, out=z)
            np.add(mean, z, out=mean)
        x = mean
        if not np.isfinite(x).all():
            bad = np.count_nonzero(~np.isfinite(x).all(axis=1))
            raise NonFiniteSample(f"{where}={time}: {bad} of {req.count} chains hold "
                                  "a NaN or an infinity")
        if frames is not None:
            frames.append(x)
    traj = np.stack(frames) if frames is not None else None
    return SampleResult(x, traj)


def _validate_plan(plan: StridePlan, sched: NoiseSchedule):
    # the plan checks its own shape; only the schedule knows where it must end
    if plan.steps[-1] != sched.T:
        raise ConfigError(f"plan ends at {plan.steps[-1]}, schedule has T={sched.T}")


def ddpm_sample(model: DenoiserModel, sched: NoiseSchedule, req: SampleRequest,
                cond=None, eps_fn=None) -> SampleResult:
    """Ancestral chain from pure noise down to a sample.

    X_{t-1} = reverse_mean_from_eps(X_t, eps_hat, a_t, abar_t)
              + sqrt(beta_tilde_t) Z, noiseless at t = 1.
    eps_fn(X, t) overrides the network, for analytic predictors.
    """
    if eps_fn is None:
        if model.arch.head != HEAD_NOISE:
            raise HeadMismatch("ancestral sampling needs a noise-only head")
        ws = {}
        eps_fn = lambda x, t: denoise(model, x, t, cond, ws=ws)[0]
    return _ancestral("ddpm", model, sched, req, eps_fn)


def _ancestral(name: str, model: DenoiserModel, sched: NoiseSchedule, req: SampleRequest,
               eps_fn) -> SampleResult:
    """The ancestral chain of the `name` sampler, driven by eps_fn(X, t)."""

    def step(x, t):
        mean = reverse_mean_from_eps(x, eps_fn(x, t), sched.a(t), sched.abar(t))
        return mean, (math.sqrt(sched.btilde(t)) if t >= 2 else None)

    return _run_chain(step, model.arch.d, req, range(sched.T, 0, -1), lambda t: t >= 2,
                      f"{name} sampling, step t")


def improved_sample(model: DenoiserModel, sched: NoiseSchedule, plan: StridePlan,
                    req: SampleRequest) -> SampleResult:
    """Strided chain with the learned per-coordinate variance.

    Each stride k uses the effective step ratio a'_k = abar(t_k)/abar(t_{k-1})
    in the ancestral update, with noise scale exp interpolated between
    ln(1 - a'_k) and ln beta_tilde'_k by the v2 head. The last stride is
    noiseless, matching the ancestral convention.
    """
    if model.arch.head != HEAD_DUAL:
        raise HeadMismatch("strided learned-variance sampling needs a dual head")
    _validate_plan(plan, sched)
    steps = plan.steps
    ws = {}

    def step(x, k):
        t_k, t_prev = steps[k], steps[k - 1]
        ab_k, ab_prev = sched.abar(t_k), sched.abar(t_prev)
        a_eff = ab_k / ab_prev
        v1, v2 = denoise(model, x, t_k, ws=ws)
        mean = reverse_mean_from_eps(x, v1, a_eff, ab_k)
        sigma = None
        if k >= 2:
            beta_eff = (1.0 - ab_prev) / (1.0 - ab_k) * (1.0 - a_eff)
            logv = log_variance_interpolation(v2, math.log(1.0 - a_eff), math.log(beta_eff))
            sigma = np.exp(0.5 * logv)
        return mean, sigma

    return _run_chain(step, model.arch.d, req, range(plan.K, 0, -1), lambda k: k >= 2,
                      "improved sampling, stride k")


def ddim_sigma(sched: NoiseSchedule, t_k: int, t_prev: int, eta: float) -> float:
    """eta * sqrt((1-a_{t_k}) (1-abar_{t_prev}) / (1-abar_{t_k})), checked
    against the accumulated-noise budget sigma^2 <= 1 - abar_{t_prev}."""
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta {eta} outside [0,1] breaks the noise budget")
    ab_k, ab_prev = sched.abar(t_k), sched.abar(t_prev)
    sigma2 = eta**2 * (1.0 - sched.a(t_k)) * (1.0 - ab_prev) / (1.0 - ab_k)
    if sigma2 > (1.0 - ab_prev) + 1e-15:
        raise ConfigError(
            f"sigma^2 {sigma2} exceeds 1 - abar_(t_prev) = {1.0 - ab_prev}")
    return math.sqrt(sigma2)


def ddim_sample(model: DenoiserModel, sched: NoiseSchedule, plan: StridePlan,
                eta: float, req: SampleRequest, cond=None, eps_fn=None) -> SampleResult:
    """Noise-budgeted strided chain; eta = 0 is fully deterministic.

    X_{k-1} = sqrt(abar_prev) x0_hat + sqrt(1 - abar_prev - sigma^2) eps_hat
              + sigma Z with x0_hat = (X_k - sqrt(1-abar_k) eps_hat)/sqrt(abar_k).
    """
    _validate_plan(plan, sched)
    if eps_fn is None:
        ws = {}
        eps_fn = lambda x, t: denoise(model, x, t, cond, ws=ws)[0]
    steps = plan.steps
    sigmas = {k: ddim_sigma(sched, steps[k], steps[k - 1], eta)
              for k in range(plan.K, 0, -1)}

    def step(x, k):
        t_k, t_prev = steps[k], steps[k - 1]
        ab_k, ab_prev = sched.abar(t_k), sched.abar(t_prev)
        eps_hat = eps_fn(x, t_k)
        x0_hat = (x - math.sqrt(1.0 - ab_k) * eps_hat) / math.sqrt(ab_k)
        drift = math.sqrt(max(1.0 - ab_prev - sigmas[k] ** 2, 0.0))
        return math.sqrt(ab_prev) * x0_hat + drift * eps_hat, sigmas[k]

    return _run_chain(step, model.arch.d, req, range(plan.K, 0, -1), lambda k: sigmas[k] > 0.0,
                      "ddim sampling, stride k")


def guided_sample(model: DenoiserModel, sched: NoiseSchedule, w: float, c,
                  req: SampleRequest) -> SampleResult:
    """Ancestral chain driven by the class-extrapolated noise estimate
    (1+w) V(x, c, t) - w V(x, 0, t); c may be one-hot or all zeros."""
    if not model.arch.num_classes:
        raise ConditioningMismatch("guided sampling needs a class-conditional model")
    if model.arch.head != HEAD_NOISE:
        raise HeadMismatch("guided sampling needs a noise-only head")
    if not (math.isfinite(w) and w >= 0.0):
        raise ConfigError(f"guidance weight w must be finite and >= 0, got {w}")
    c = np.asarray(c, dtype=np.float64)
    if not (np.all((c == 0.0) | (c == 1.0)) and c.sum() in (0.0, 1.0)):
        raise ConditioningMismatch("class vector must be one-hot or all zeros")
    zero = np.zeros(model.arch.num_classes)
    ws = {}

    def guided_eps(x, t):
        vc = denoise(model, x, t, c, ws=ws)[0]
        vu = denoise(model, x, t, zero, ws=ws)[0]
        return (1.0 + w) * vc - w * vu

    return _ancestral("guided", model, sched, req, guided_eps)
