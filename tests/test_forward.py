import math

import numpy as np
import pytest
from scipy import stats
from tape_oracle import decoder_loglik

from diffusionlab.errors import OutOfRange, ShapeMismatch, SingularCovariance, StepOutOfRange
from diffusionlab.forward import (
    GRID_LEVELS,
    GRID_STEP,
    forward_sample,
    grid_index,
    grid_level,
    grid_value,
    posterior_coefficients,
    posterior_mean_var,
)
from diffusionlab.fileio import to_bytes_image
from diffusionlab.numerics import RngStream
from diffusionlab.gaussian import GaussianSpec, gaussian_posterior
from diffusionlab.schedule import NoiseSchedule, linear_schedule


def _probe_schedule(alpha):
    # hand-built schedule for degenerate-limit probes; skips constructor checks
    alpha = np.asarray(alpha, dtype=np.float64)
    alpha_bar = np.concatenate([[1.0], np.cumprod(alpha)])
    with np.errstate(invalid="ignore", divide="ignore"):
        beta_tilde = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * (1.0 - alpha)
    beta_tilde[0] = 0.0
    return NoiseSchedule("probe", len(alpha), alpha, alpha_bar, beta_tilde)


def test_forward_sample_formula():
    sch = linear_schedule(100)
    x0 = np.array([0.5, -0.25])
    eps = np.array([1.0, 2.0])
    xt = forward_sample(x0, 40, eps, sch)
    ab = sch.abar(40)
    np.testing.assert_array_equal(xt, math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps)


def test_forward_sample_zero_noise_limit():
    # alpha_bar = 1 collapses the draw onto the datum
    sch = _probe_schedule([1.0, 1.0])
    xt = forward_sample([0.3, -0.8], 2, [5.0, -5.0], sch)
    np.testing.assert_array_equal(xt, [0.3, -0.8])


def test_forward_sample_pure_noise_limit():
    sch = _probe_schedule([1e-300, 1e-300])
    eps = np.array([1.5, -0.5])
    xt = forward_sample([0.3, -0.8], 2, eps, sch)
    np.testing.assert_allclose(xt, eps, atol=1e-140)


def test_forward_sample_step_bounds():
    sch = linear_schedule(10)
    for t in (0, 11, -1):
        with pytest.raises(StepOutOfRange):
            forward_sample([0.0], t, [0.0], sch)
    with pytest.raises(ShapeMismatch):
        forward_sample([0.0, 0.0], 1, [0.0], sch)


def test_forward_sample_matches_stepwise_chain():
    # iterate x_s = sqrt(a_s) x_{s-1} + sqrt(1-a_s) z_s and compare moments
    sch = linear_schedule(10)
    rng = np.random.default_rng(41)
    x0 = 0.6
    n = 100_000
    x = np.full(n, x0)
    for s in range(1, 11):
        z = rng.standard_normal(n)
        x = math.sqrt(sch.a(s)) * x + math.sqrt(1.0 - sch.a(s)) * z
    ab = sch.abar(10)
    mean_se = x.std(ddof=1) / math.sqrt(n)
    var_se = x.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert abs(x.mean() - math.sqrt(ab) * x0) <= 3.0 * mean_se
    assert abs(x.var(ddof=1) - (1.0 - ab)) <= 3.0 * var_se


def test_limiting_distribution_linear_1000():
    sch = linear_schedule(1000)
    x0 = np.array([0.9, -0.4, 0.7])
    scale = math.sqrt(sch.abar(1000))
    assert scale * np.linalg.norm(x0) <= 1e-2 * np.linalg.norm(x0)
    assert abs((1.0 - sch.abar(1000)) - 1.0) <= 1e-4


def test_posterior_degenerate_step_probe():
    # alpha_t = 1 keeps the chain where it is
    sch = _probe_schedule([0.9, 1.0])
    xt = np.array([0.2, -0.1])
    mean, var = posterior_mean_var(xt, [9.9, 9.9], 2, sch)
    np.testing.assert_allclose(mean, xt, atol=1e-15)
    assert var == 0.0


def test_posterior_frozen_coefficients():
    # alpha_t = 0.9, abar_{t-1} = 0.9: both weights sqrt(0.9)/1.9 exactly
    sch = _probe_schedule([0.9, 0.9])
    c_xt, c_x0 = posterior_coefficients(2, sch)
    assert c_xt == pytest.approx(0.49930699897395464, abs=1e-15)
    assert c_x0 == pytest.approx(0.49930699897395464, abs=1e-15)


def test_posterior_agrees_with_gaussian_bayes():
    sch = linear_schedule(60)
    rng = np.random.default_rng(19)
    x0 = rng.normal(size=4)
    xt = rng.normal(size=4)
    for t in range(2, 61):
        mean, var = posterior_mean_var(xt, x0, t, sch)
        prior = GaussianSpec.isotropic(math.sqrt(sch.abar(t - 1)) * x0, 1.0 - sch.abar(t - 1))
        post = gaussian_posterior(xt, prior, math.sqrt(sch.a(t)), np.zeros(4), 1.0 - sch.a(t))
        np.testing.assert_allclose(mean, post.mean, atol=1e-12)
        assert var == pytest.approx(post.scalar, abs=1e-12)


def test_posterior_mean_in_noise_form():
    # substituting x0 = (xt - sqrt(1-abar) eps)/sqrt(abar) collapses the mean
    # to (xt - (1-a)/sqrt(1-abar) eps)/sqrt(a)
    sch = linear_schedule(30)
    rng = np.random.default_rng(29)
    x0 = rng.normal(size=3)
    for t in range(2, 31):
        eps = rng.normal(size=3)
        xt = forward_sample(x0, t, eps, sch)
        mean, _ = posterior_mean_var(xt, x0, t, sch)
        a, ab = sch.a(t), sch.abar(t)
        direct = (xt - (1.0 - a) / math.sqrt(1.0 - ab) * eps) / math.sqrt(a)
        np.testing.assert_allclose(mean, direct, atol=1e-13)


def test_posterior_step_bounds():
    sch = linear_schedule(10)
    for t in (1, 0, 11):
        with pytest.raises(StepOutOfRange):
            posterior_mean_var([0.0], [0.0], t, sch)


def test_grid_index_roundtrip():
    levels = -1.0 + GRID_STEP * np.arange(GRID_LEVELS)
    np.testing.assert_array_equal(grid_index(levels), np.arange(GRID_LEVELS))
    for bad in (0.5, -1.2, 1.0001, 1.0 / 256.0):
        with pytest.raises(OutOfRange):
            grid_index([bad])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _old_grid_index(x0):
    """grid_index as written before the grid maps: level by division by
    the step, value as -1 + k * step."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x0)):
        raise OutOfRange("coordinate is not finite")
    k = np.rint((x0 + 1.0) / GRID_STEP)
    if np.any(k < 0) or np.any(k > GRID_LEVELS - 1):
        raise OutOfRange("coordinate outside [-1, 1]")
    if np.max(np.abs(x0 - (-1.0 + k * GRID_STEP))) > 1e-12:
        raise OutOfRange("coordinate not on the 256-level grid")
    return k.astype(np.int64)


def _grid_probes():
    """Every level, each moved by +-1e-13, and the half-way points between
    levels (and beyond both ends) with their neighbours 1 and 2 ulps away."""
    k = np.arange(GRID_LEVELS, dtype=np.float64)
    levels = -1.0 + GRID_STEP * k
    mids = -1.0 + GRID_STEP * (np.arange(-1, GRID_LEVELS, dtype=np.float64) + 0.5)
    near, up, down = [mids], mids, mids
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    return np.concatenate([levels, levels + 1e-13, levels - 1e-13, *near])


def test_grid_maps_give_the_bits_of_the_expressions_they_replaced():
    k = np.arange(GRID_LEVELS, dtype=np.float64)
    # value from level: data.quantize_to_grid, data.idx_read and cli._pgm_rows
    assert _same_bits(grid_value(k), -1.0 + GRID_STEP * k)
    pixels = np.arange(GRID_LEVELS, dtype=np.uint8)
    assert _same_bits(grid_value(pixels), -1.0 + GRID_STEP * pixels.astype(np.float64))
    # every level maps back to itself, so the bytes idx_read maps round-trip
    assert _same_bits(grid_level(grid_value(k)), k)
    # level from value: data.quantize_to_grid
    probes = _grid_probes()
    inside = probes[(probes >= -1.0) & (probes <= 1.0)]
    assert _same_bits(grid_level(inside), np.rint((inside + 1.0) * ((GRID_LEVELS - 1) / 2.0)))
    # fileio.to_bytes_image clips first, then rounds
    x = np.concatenate([probes, 3.0 * RngStream(41).uniforms(4096) - 1.5])
    want = np.rint((np.clip(x, -1.0, 1.0) + 1.0) * 127.5).astype(np.uint8)
    assert np.array_equal(to_bytes_image(x, 1, x.size), want.reshape(1, -1))


def test_grid_index_accepts_what_it_accepted_before_with_the_same_levels():
    rng = RngStream(42)
    for v in np.concatenate([_grid_probes(), 3.0 * rng.uniforms(2048) - 1.5]):
        try:
            want = _old_grid_index([v])
        except OutOfRange:
            with pytest.raises(OutOfRange):
                grid_index([v])
        else:
            assert np.array_equal(grid_index([v]), want), v


def test_non_finite_coordinates_are_off_grid():
    # nan fails both range tests, so it must be caught before them
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfRange):
            grid_index([-1.0, bad])
        with pytest.raises(OutOfRange):
            decoder_loglik(np.array([bad, -1.0]), np.zeros(2), 0.5)


def test_decoder_saturated_boundary_bin():
    # mean far above 1 with tiny sigma: the top bin catches everything
    val = decoder_loglik([1.0], [2.0], 1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)
    val = decoder_loglik([-1.0], [-2.0], 1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_decoder_wide_sigma_bin_probability():
    # sigma = 10 makes the bin integral ~ width * pdf(0)
    x = -1.0 + 128 * GRID_STEP  # grid level nearest zero
    prob = math.exp(decoder_loglik([x], [x], 100.0))
    want = GRID_STEP * stats.norm.pdf(0.0, scale=10.0)
    assert abs(prob - want) / want < 0.01


def test_decoder_matches_quadrature_product():
    # interior bins: compare against per-coordinate trapezoid integrals
    x0 = np.array([-1.0 + 10 * GRID_STEP, -1.0 + 128 * GRID_STEP, -1.0 + 200 * GRID_STEP])
    mean = np.array([-0.5, 0.2, 0.9])
    sigma2 = 0.09
    total = 0.0
    for xi, mi in zip(x0, mean):
        grid = np.linspace(xi - 1.0 / 255.0, xi + 1.0 / 255.0, 20001)
        dens = stats.norm.pdf(grid, loc=mi, scale=math.sqrt(sigma2))
        total += math.log(np.trapezoid(dens, grid))
    assert decoder_loglik(x0, mean, sigma2) == pytest.approx(total, abs=1e-8)


def test_decoder_bins_sum_to_one():
    levels = -1.0 + GRID_STEP * np.arange(GRID_LEVELS)
    for mean, var in ((0.0, 1.0), (0.3, 0.01), (-0.97, 0.25), (0.0, 100.0)):
        probs = [math.exp(decoder_loglik([x], [mean], var)) for x in levels]
        assert abs(sum(probs) - 1.0) <= 1e-10


def test_decoder_deep_tail_is_finite_until_underflow():
    # far-off mean with small sigma: log-probability is a large negative
    # number computed in log space, not -inf
    val = decoder_loglik([-1.0 + 128 * GRID_STEP], [1.0], 1e-2)
    assert np.isfinite(val)
    assert val < -40.0


def test_decoder_input_validation():
    with pytest.raises(SingularCovariance):
        decoder_loglik([-1.0 + 128 * GRID_STEP], [0.0], 0.0)
    with pytest.raises(OutOfRange):
        decoder_loglik([0.5], [0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        decoder_loglik([-1.0, 1.0], [0.0], 1.0)
