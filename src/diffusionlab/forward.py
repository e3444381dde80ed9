"""Forward diffusion: closed-form noising, its reverse-time posterior and mean,
and the 256-level byte grid's two maps.
"""

import math

import numpy as np

from .errors import OutOfRange, ShapeMismatch, StepOutOfRange
from .schedule import NoiseSchedule

# data grid: 256 levels -1 + 2k/255, k = 0..255, half-bin width 1/255
GRID_LEVELS = 256
GRID_STEP = 2.0 / 255.0
HALF_BIN = 1.0 / 255.0


def forward_sample(x0, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps: step t of the forward
    process in one jump, from the normal draw eps."""
    if not (1 <= t <= sched.T):
        raise StepOutOfRange(f"step {t} outside 1..{sched.T}")
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeMismatch(f"shapes {x0.shape} vs {eps.shape}")
    ab = sched.abar(t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


def posterior_coefficients(t: int, sched: NoiseSchedule) -> tuple[float, float]:
    """Weights (on x_t, on x_0) of the reverse-time posterior mean at step t >= 2."""
    if not (2 <= t <= sched.T):
        raise StepOutOfRange(f"posterior needs 2 <= t <= T, got {t}")
    a, ab_prev, ab = sched.a(t), sched.abar(t - 1), sched.abar(t)
    c_xt = math.sqrt(a) * (1.0 - ab_prev) / (1.0 - ab)
    c_x0 = math.sqrt(ab_prev) * (1.0 - a) / (1.0 - ab)
    return c_xt, c_x0


def posterior_mean_var(xt, x0, t: int, sched: NoiseSchedule) -> tuple[np.ndarray, float]:
    """Mean and (scalar) variance of x_{t-1} given x_t and x_0, for t >= 2.

    Step 1 has no Gaussian posterior here; it is handled by the decoder
    likelihood instead.
    """
    c_xt, c_x0 = posterior_coefficients(t, sched)
    xt = np.asarray(xt, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if xt.shape != x0.shape:
        raise ShapeMismatch(f"shapes {xt.shape} vs {x0.shape}")
    return c_xt * xt + c_x0 * x0, sched.btilde(t)


def reverse_mean_from_eps(x, eps_hat, a: float, abar: float):
    """The reverse step's mean from x and its noise estimate, for a = alpha_t
    and abar = alpha_bar_t; a stride takes abar_t / abar_prev as a."""
    return (x - (1.0 - a) / math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(a)


def log_variance_interpolation(v2, log_hi: float, log_lo: float):
    """ln Sigma = v2 log_hi + (1 - v2) log_lo elementwise: the learned
    variance's log-linear mix of its two ends, which the hybrid loss and
    the strided sampler each take at their own step."""
    return v2 * log_hi + (1.0 - v2) * log_lo


def grid_level(x) -> np.ndarray:
    """Each value's nearest level as a float, unchecked: x outside [-1, 1] is off 0..255."""
    return np.rint((np.asarray(x, dtype=np.float64) + 1.0) * 127.5)


def grid_value(k) -> np.ndarray:
    """Each level's value -1 + GRID_STEP k on the grid, as one new float64
    array and no other allocation, so uint8 levels are cast as they are
    scaled. The map is elementwise: mapping rows apart gives the bits of
    mapping them whole."""
    v = np.multiply(k, GRID_STEP, dtype=np.float64)
    v -= 1.0
    return v


def grid_index(x0) -> np.ndarray:
    """Indices k with x0 = -1 + 2k/255; raises when any coordinate is off-grid."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x0)):
        raise OutOfRange("coordinate is not finite")
    k = grid_level(x0)
    if np.any(k < 0) or np.any(k > GRID_LEVELS - 1):
        raise OutOfRange("coordinate outside [-1, 1]")
    if np.max(np.abs(x0 - grid_value(k))) > 1e-12:
        raise OutOfRange("coordinate not on the 256-level grid")
    return k.astype(np.int64)
