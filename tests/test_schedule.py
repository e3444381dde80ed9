import math

import numpy as np
import pytest

from diffusionlab.errors import ConfigError
from diffusionlab.schedule import (
    NoiseSchedule,
    StridePlan,
    cosine_schedule,
    linear_schedule,
    stride_steps,
)


def test_linear_t2_endpoints_exact():
    sch = linear_schedule(2)
    assert sch.a(1) == 0.9999
    assert sch.a(2) == 0.98


def test_linear_t1000_endpoints_exact():
    sch = linear_schedule(1000)
    assert sch.a(1) == 0.9999
    assert sch.a(1000) == 0.98


def test_linear_rejects_small_T():
    with pytest.raises(ConfigError):
        linear_schedule(1)


# frozen from an exact-rational evaluation of the cumulative product
_LINEAR_1000_ABAR = {
    2: 0.999780092072072072,
    10: 0.998105204785834619,
    500: 0.078587242881778237,
    1000: 4.0358297653756833e-05,
}


def test_linear_t1000_alpha_bar_values():
    sch = linear_schedule(1000)
    for t, want in _LINEAR_1000_ABAR.items():
        assert sch.abar(t) == pytest.approx(want, rel=1e-12)
    assert sch.abar(1000) < 5e-5


def test_linear_t1000_beta_tilde_2():
    # beta_tilde_2 = (1 - abar_1)/(1 - abar_2) * (1 - alpha_2), exact-rational oracle
    sch = linear_schedule(1000)
    assert sch.btilde(2) == pytest.approx(5.4531876613026054e-05, rel=1e-12)


def test_alpha_bar_conventions():
    for sch in (linear_schedule(50), cosine_schedule(50)):
        assert sch.abar(0) == 1.0
        assert sch.btilde(1) == 0.0
        assert len(sch.alpha) == 50
        assert len(sch.alpha_bar) == 51
        assert len(sch.beta_tilde) == 50


def test_alpha_bar_strictly_decreasing():
    for sch in (linear_schedule(1000), cosine_schedule(1000), cosine_schedule(2)):
        assert np.all(np.diff(sch.alpha_bar) < 0)


def test_alpha_in_open_unit_interval():
    for sch in (linear_schedule(1000), cosine_schedule(1000)):
        assert np.all(sch.alpha > 0.0)
        assert np.all(sch.alpha < 1.0)


def test_beta_tilde_below_step_beta():
    # posterior variance never exceeds the forward-step variance
    for sch in (linear_schedule(1000), cosine_schedule(1000)):
        assert np.all(sch.beta_tilde <= (1.0 - sch.alpha) + 1e-15)


def test_beta_tilde_matches_definition():
    sch = cosine_schedule(200)
    for t in range(2, 201):
        want = (1.0 - sch.abar(t - 1)) / (1.0 - sch.abar(t)) * (1.0 - sch.a(t))
        assert sch.btilde(t) == pytest.approx(want, rel=1e-14)


# frozen from a 60-digit evaluation of the clipped cosine profile
def test_cosine_t1000_frozen_values():
    sch = cosine_schedule(1000)
    assert sch.a(1) == pytest.approx(0.9999587157751782, rel=1e-12)
    assert sch.abar(500) == pytest.approx(0.49384359044063771, rel=1e-12)
    assert sch.abar(1000) == pytest.approx(2.4287669070344684e-09, rel=1e-10)


def test_cosine_clip_engages_at_final_step():
    sch = cosine_schedule(1000)
    one_minus = 1.0 - sch.alpha
    assert np.max(one_minus) == pytest.approx(0.999, abs=1e-15)
    # exactly one step hits the cap at T=1000
    assert int(np.sum(one_minus >= 0.999 - 1e-12)) == 1


def test_cosine_alpha_bar_is_product_of_clipped_alphas():
    # clipping must propagate into the cumulative product
    sch = cosine_schedule(1000)
    np.testing.assert_allclose(
        sch.alpha_bar, np.concatenate([[1.0], np.cumprod(sch.alpha)]), rtol=1e-15
    )


def test_cosine_offset_validation():
    for s in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            cosine_schedule(100, s=s)
    cosine_schedule(100, s=0.5)


def test_cosine_rejects_small_T():
    with pytest.raises(ConfigError):
        cosine_schedule(1)


def test_cosine_retains_more_signal_early():
    # at matched t <= T/2 the cosine profile keeps alpha_bar above linear
    lin = linear_schedule(1000)
    cos = cosine_schedule(1000)
    for t in range(1, 501):
        assert cos.abar(t) > lin.abar(t)


def test_cosine_profile_matches_direct_formula_before_clip():
    # the final step always clips (the profile vanishes at t=T); before it,
    # products equal the renormalized profile directly
    T, s = 64, 0.008
    sch = cosine_schedule(T, s=s)
    f0 = math.cos((s * math.pi) / ((1 + s) * 2.0)) ** 2
    for t in range(0, T):
        want = math.cos(((t / T + s) * math.pi) / ((1 + s) * 2.0)) ** 2 / f0
        assert sch.abar(t) == pytest.approx(want, rel=1e-12)
    assert sch.a(T) == pytest.approx(0.001, abs=1e-15)


def test_stride_examples():
    plan = stride_steps(1000, 100)
    assert plan.steps[0] == 0
    assert plan.steps[1] == 1
    assert plan.steps[2] == 11
    assert plan.steps[100] == 1000
    assert len(plan.steps) == 101

    assert stride_steps(10, 2).steps == (0, 1, 10)
    assert stride_steps(10, 10).steps == tuple(range(11))


def test_stride_full_plan_is_identity():
    for T in (2, 7, 100):
        assert stride_steps(T, T).steps == tuple(range(T + 1))


def test_stride_strictly_increasing():
    for T, K in ((1000, 100), (1000, 37), (50, 50), (17, 3), (2, 2)):
        steps = stride_steps(T, K).steps
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] == T
        assert len(steps) == K + 1


def test_stride_rejects_bad_K():
    for T, K in ((10, 1), (10, 11), (10, 0), (10, -3)):
        with pytest.raises(ConfigError, match="need 2 <= k <= T"):
            stride_steps(T, K)


def test_stride_formula_is_a_plan_for_every_admissible_K():
    # why stride_steps needs no collision loop: (T-1)/(K-1) >= 1 for
    # 2 <= K <= T, so the floor formula rises by at least one per step
    for T in range(2, 301):
        for K in range(2, T + 1):
            steps = stride_steps(T, K).steps
            assert len(steps) == K + 1 and steps[:2] == (0, 1) and steps[-1] == T, (T, K)
            assert all(b > a for a, b in zip(steps, steps[1:])), (T, K)


@pytest.mark.parametrize("steps", [
    (1, 3, 7),       # must start at 0
    (0, 7, 7),       # strictly increasing
    (0, 5, 4, 9),
    (),
])
def test_stride_plan_rejects_a_bad_shape(steps):
    with pytest.raises(ConfigError):
        StridePlan(steps)


def test_stride_plan_accepts_any_end():
    # where a plan ends is checked against the schedule by the samplers
    assert StridePlan((0, 3, 7)).steps == (0, 3, 7)


@pytest.mark.parametrize("steps", [(0,), (0, 5), (0, 3, 7, 9)])
def test_stride_plan_counts_its_strides(steps):
    assert StridePlan(steps).K == len(steps) - 1


def test_schedule_arrays_read_only():
    sch = linear_schedule(10)
    with pytest.raises(ValueError):
        sch.alpha[0] = 0.5


def test_accessors_match_arrays():
    sch = cosine_schedule(30)
    assert sch.a(7) == sch.alpha[6]
    assert sch.abar(7) == sch.alpha_bar[7]
    assert sch.btilde(7) == sch.beta_tilde[6]
    assert isinstance(sch, NoiseSchedule)
