"""Noise-intensity schedules and strided sampling plans.

A schedule stores, for T steps, the per-step retention factors alpha_t in
(0,1), their running products alpha_bar_0..alpha_bar_T (alpha_bar_0 = 1),
and the posterior variances beta_tilde_1..beta_tilde_T (beta_tilde_1 = 0).
Indexing helpers take the 1-based step index used everywhere else.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# largest admissible noise increment per step
_MAX_ONE_MINUS_ALPHA = 0.999

_LINEAR_ALPHA_FIRST = 1.0 - 1e-4
_LINEAR_ALPHA_LAST = 0.98

DEFAULT_COSINE_OFFSET = 0.008


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable (alpha, alpha_bar, beta_tilde) family for T steps.

    alpha has length T (steps 1..T), alpha_bar length T+1 (steps 0..T with
    alpha_bar[0] = 1), beta_tilde length T (steps 1..T, beta_tilde[0] = 0
    holding the step-1 convention).
    """

    kind: str
    T: int
    alpha: np.ndarray
    alpha_bar: np.ndarray
    beta_tilde: np.ndarray
    s: float | None = None

    def __post_init__(self):
        self.alpha.setflags(write=False)
        self.alpha_bar.setflags(write=False)
        self.beta_tilde.setflags(write=False)

    # 1-based step accessors
    def a(self, t: int) -> float:
        return float(self.alpha[t - 1])

    def abar(self, t: int) -> float:
        return float(self.alpha_bar[t])

    def btilde(self, t: int) -> float:
        return float(self.beta_tilde[t - 1])


def _finish(kind: str, alpha: np.ndarray, s: float | None = None) -> NoiseSchedule:
    alpha_bar = np.concatenate([[1.0], np.cumprod(alpha)])
    # beta_tilde_t = (1 - abar_{t-1}) / (1 - abar_t) * (1 - alpha_t); zero at t=1
    beta_tilde = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * (1.0 - alpha)
    beta_tilde[0] = 0.0
    return NoiseSchedule(kind, len(alpha), alpha, alpha_bar, beta_tilde, s)


def linear_schedule(T: int) -> NoiseSchedule:
    """Retention factors interpolated linearly from 1-1e-4 down to 0.98."""
    if T < 2:
        raise ConfigError(f"linear schedule needs T >= 2, got {T}")
    t = np.arange(1, T + 1, dtype=np.float64)
    alpha = _LINEAR_ALPHA_FIRST - (t - 1.0) * (_LINEAR_ALPHA_FIRST - _LINEAR_ALPHA_LAST) / (T - 1.0)
    return _finish("linear", alpha)


def cosine_schedule(T: int, s: float = DEFAULT_COSINE_OFFSET) -> NoiseSchedule:
    """Squared-cosine retention profile with offset s, renormalized at t=0.

    Each 1 - alpha_t is clipped to at most 0.999 and alpha_bar is recomputed
    as the running product of the clipped factors, so the product invariant
    holds exactly.
    """
    if T < 2:
        raise ConfigError(f"cosine schedule needs T >= 2, got {T}")
    if not (0.0 < s < 1.0):
        raise ConfigError(f"cosine offset must lie in (0, 1), got {s}")
    t = np.arange(0, T + 1, dtype=np.float64)
    profile = np.cos(((t / T + s) * math.pi) / ((1.0 + s) * 2.0)) ** 2
    raw_bar = profile / profile[0]
    alpha = raw_bar[1:] / raw_bar[:-1]
    alpha = np.maximum(alpha, 1.0 - _MAX_ONE_MINUS_ALPHA)
    return _finish("cosine", alpha, s)


# the one list of schedule kinds: kind -> constructor of (T, s)
SCHEDULE_KINDS = {"linear": lambda T, s: linear_schedule(T), "cosine": cosine_schedule}


def build_schedule(kind: str, T: int, s: float) -> NoiseSchedule:
    """The schedule of the named kind for T steps; s is the cosine offset."""
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    return SCHEDULE_KINDS[kind](T, s)


@dataclass(frozen=True)
class StridePlan:
    """Strictly increasing sampling steps t_0 = 0 < t_1 < ... < t_K."""

    steps: tuple[int, ...]

    def __post_init__(self):
        s = self.steps
        if not s or s[0] != 0 or any(b <= a for a, b in zip(s, s[1:])):
            raise ConfigError(f"plan {s} is not strictly increasing steps from 0")

    @property
    def K(self) -> int:  # the number of strides
        return len(self.steps) - 1


def stride_steps(T: int, K: int) -> StridePlan:
    """Evenly spaced sampling subsequence t_k = 1 + floor((k-1)(T-1)/(K-1)).

    For 2 <= K <= T the step (T-1)/(K-1) is at least 1, so t_k rises by at
    least one per k and ends at t_K = T.
    """
    if not (2 <= K <= T):
        raise ConfigError(f"need 2 <= k <= T, got k={K}, T={T}")
    return StridePlan((0,) + tuple(1 + ((k - 1) * (T - 1)) // (K - 1) for k in range(1, K + 1)))
