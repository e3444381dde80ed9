import math
import tracemalloc
import warnings

import numpy as np
import pytest

from diffusionlab import sampler

from diffusionlab.denoiser import (
    HEAD_DUAL,
    HEAD_NOISE,
    DenoiserArch,
    DenoiserModel,
    denoise,
)
from diffusionlab.errors import ConditioningMismatch, ConfigError, HeadMismatch, NonFiniteSample
from diffusionlab.numerics import RngStream, kernels
from diffusionlab.numerics.rng import _key, split_keys
from diffusionlab.sampler import (
    SampleRequest,
    SampleResult,
    ddim_sample,
    ddim_sigma,
    ddpm_sample,
    guided_sample,
    improved_sample,
)
from diffusionlab.schedule import StridePlan, linear_schedule, stride_steps


def _model(head=HEAD_NOISE, hidden=(8,), d=2, d_emb=4, classes=0, seed=7):
    return DenoiserModel.initialized(DenoiserArch(d, hidden, d_emb, head, classes), seed)


def _zero_model(head=HEAD_NOISE, d=2):
    m = _model(head, d=d)
    return m.with_params(np.zeros(m.param_count))


def _chain_draws(seed, i, n):
    return RngStream(seed).split(i).normals(n)


# ---------------------------------------------------------------- request


def test_sample_request_validation():
    SampleRequest(count=1, seed=0)
    with pytest.raises(ConfigError):
        SampleRequest(count=0, seed=0)
    SampleRequest(count=1, seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must lie in 0"):
            SampleRequest(count=1, seed=seed)


# ---------------------------------------------------------------- ancestral


def test_ddpm_rejects_dual_head():
    with pytest.raises(HeadMismatch):
        ddpm_sample(_model(HEAD_DUAL), linear_schedule(5), SampleRequest(2, 0))


def test_ddpm_deterministic_and_shaped():
    model = _model(seed=3)
    sched = linear_schedule(8)
    req = SampleRequest(count=4, seed=11)
    a = ddpm_sample(model, sched, req).samples
    b = ddpm_sample(model, sched, req).samples
    assert a.shape == (4, 2)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
    c = ddpm_sample(model, sched, SampleRequest(count=4, seed=12)).samples
    assert not np.array_equal(a, c)


def test_ddpm_chains_are_batch_size_independent():
    model = _model(seed=3)
    sched = linear_schedule(8)
    big = ddpm_sample(model, sched, SampleRequest(count=7, seed=5)).samples
    small = ddpm_sample(model, sched, SampleRequest(count=3, seed=5)).samples
    assert np.array_equal(big[:3], small)


def test_ddpm_two_step_hand_recursion():
    # zero network: eps_hat = 0, so each update is division by sqrt(alpha_t)
    # plus the scheduled noise; reproduce it from the raw stream draws
    model = _zero_model()
    sched = linear_schedule(2)
    req = SampleRequest(count=3, seed=9)
    out = ddpm_sample(model, sched, req).samples
    for i in range(3):
        z = _chain_draws(9, i, 4)
        x2 = z[:2]
        x1 = x2 / math.sqrt(sched.a(2)) + math.sqrt(sched.btilde(2)) * z[2:]
        x0 = x1 / math.sqrt(sched.a(1))
        assert np.array_equal(out[i], x0)


def test_ddpm_trajectory_recording():
    model = _zero_model()
    sched = linear_schedule(6)
    res = ddpm_sample(model, sched, SampleRequest(count=2, seed=1, record_trajectory=True))
    assert res.trajectory.shape == (7, 2, 2)
    assert np.array_equal(res.trajectory[-1], res.samples)
    for i in range(2):
        assert np.array_equal(res.trajectory[0][i], _chain_draws(1, i, 2))


def test_ddpm_analytic_predictor_recovers_standard_normal():
    # for a standard normal target the posterior-mean noise estimate is
    # sqrt(1-abar_t) x, so the chain should land back on N(0, I)
    model = _zero_model()
    sched = linear_schedule(50)
    f = lambda x, t: math.sqrt(1.0 - sched.abar(t)) * x
    out = ddpm_sample(model, sched, SampleRequest(count=10_000, seed=4), eps_fn=f).samples
    mean = out.mean(axis=0)
    cov = np.cov(out.T)
    assert np.all(np.abs(mean) <= 0.05)
    assert np.all(np.abs(cov - np.eye(2)) <= 0.05)


# ---------------------------------------------------------------- strided


def _paired_dual_and_noise_models(seed=19, d=2, hidden=(8,), d_emb=4):
    """A dual-head model with v2 forced to zero plus a noise-only twin
    sharing trunk weights and the v1 half of the head."""
    dual = _model(HEAD_DUAL, hidden=hidden, d=d, d_emb=d_emb, seed=seed)
    p = dual.params.copy()
    off_w, (w_last, twod) = dual.plan.offsets["head.w"]
    off_b, _ = dual.plan.offsets["head.b"]
    p[off_w : off_w + w_last * twod].reshape(w_last, twod)[:, d:] = 0.0
    p[off_b + d : off_b + twod] = 0.0
    dual = dual.with_params(p)

    noise = _model(HEAD_NOISE, hidden=hidden, d=d, d_emb=d_emb, seed=0)
    q = noise.params.copy()
    for name, (noff, nshape) in noise.plan.offsets.items():
        size = int(np.prod(nshape))
        doff, _ = dual.plan.offsets[name]
        if name == "head.w":
            full = p[doff : doff + w_last * twod].reshape(w_last, twod)
            q[noff : noff + size] = full[:, :d].ravel()
        elif name == "head.b":
            q[noff : noff + size] = p[doff : doff + d]
        else:
            q[noff : noff + size] = p[doff : doff + size]
    return dual, noise.with_params(q)


def test_paired_models_agree_on_the_noise_head():
    dual, noise = _paired_dual_and_noise_models()
    x = RngStream(2).normals(6).reshape(3, 2)
    v1, v2 = denoise(dual, x, 4)
    assert np.allclose(v2, 0.0)
    assert np.allclose(denoise(noise, x, 4)[0], v1, atol=1e-14)


def test_improved_rejects_noise_head_and_bad_plans():
    sched = linear_schedule(10)
    req = SampleRequest(2, 0)
    with pytest.raises(HeadMismatch):
        improved_sample(_model(HEAD_NOISE), sched, stride_steps(10, 5), req)
    dual = _model(HEAD_DUAL)
    with pytest.raises(ConfigError, match="plan ends at"):
        improved_sample(dual, sched, StridePlan((0, 3, 7)), req)
    with pytest.raises(ConfigError):
        improved_sample(dual, sched, StridePlan((0, 10, 10)), req)


def test_improved_full_stride_zero_v2_matches_ancestral():
    dual, noise = _paired_dual_and_noise_models()
    T = 20
    sched = linear_schedule(T)
    req = SampleRequest(count=3, seed=13, record_trajectory=True)
    imp = improved_sample(dual, sched, stride_steps(T, T), req)
    anc = ddpm_sample(noise, sched, req)
    assert np.max(np.abs(imp.trajectory - anc.trajectory)) <= 1e-12


def test_improved_v2_one_noise_scale_is_step_variance():
    # zero trunk with a large variance-head bias: v1 = 0 and v2 = tanh(20),
    # so the injected noise scale must be sqrt(1 - a'_k) within 1e-12
    model = _zero_model(HEAD_DUAL)
    p = model.params.copy()
    off_b, (twod,) = model.plan.offsets["head.b"]
    d = 2
    p[off_b + d : off_b + twod] = 20.0
    model = model.with_params(p)

    T = 5
    sched = linear_schedule(T)
    res = improved_sample(model, sched, stride_steps(T, T),
                          SampleRequest(count=1, seed=6, record_trajectory=True))
    z = _chain_draws(6, 0, 2 * (1 + T - 1))
    for k in range(T, 1, -1):
        x_k = res.trajectory[T - k]
        x_prev = res.trajectory[T - k + 1]
        a_eff = sched.abar(k) / sched.abar(k - 1)
        mean = x_k / math.sqrt(a_eff)
        zk = z[2 * (1 + T - k) : 2 * (2 + T - k)]
        sigma = (x_prev - mean) / zk
        assert np.max(np.abs(sigma - math.sqrt(1.0 - a_eff))) <= 1e-12


def test_improved_subsampled_plan_runs():
    dual = _model(HEAD_DUAL, seed=23)
    sched = linear_schedule(30)
    out = improved_sample(dual, sched, stride_steps(30, 6), SampleRequest(4, 2))
    assert out.samples.shape == (4, 2)
    assert np.all(np.isfinite(out.samples))


# ---------------------------------------------------------------- eta family


def test_ddim_sigma_rule_and_guards():
    sched = linear_schedule(40)
    s_full = ddim_sigma(sched, 17, 16, 1.0)
    want = math.sqrt((1 - sched.a(17)) * (1 - sched.abar(16)) / (1 - sched.abar(17)))
    assert s_full == pytest.approx(want, rel=1e-15)
    assert s_full == pytest.approx(math.sqrt(sched.btilde(17)), rel=1e-12)
    # eta scales sigma linearly, so half eta gives a quarter of the variance
    assert ddim_sigma(sched, 17, 16, 0.5) == pytest.approx(0.5 * s_full, rel=1e-15)
    assert ddim_sigma(sched, 5, 0, 1.0) == 0.0
    with pytest.raises(ConfigError):
        ddim_sigma(sched, 17, 16, 1.5)
    with pytest.raises(ConfigError):
        ddim_sigma(sched, 17, 16, -0.1)


def test_ddim_sigma_budget_holds_across_plan():
    sched = linear_schedule(100)
    steps = stride_steps(100, 10).steps
    for k in range(10, 0, -1):
        s = ddim_sigma(sched, steps[k], steps[k - 1], 1.0)
        assert s * s <= 1.0 - sched.abar(steps[k - 1]) + 1e-15


def test_ddim_eta_zero_is_deterministic_and_drawless():
    model = _model(seed=31)
    sched = linear_schedule(12)
    plan = stride_steps(12, 4)
    req = SampleRequest(count=3, seed=8, record_trajectory=True)
    a = ddim_sample(model, sched, plan, 0.0, req)
    b = ddim_sample(model, sched, plan, 0.0, req)
    assert np.array_equal(a.samples, b.samples)
    # only the starting latent is drawn: d values per chain
    for i in range(3):
        assert np.array_equal(a.trajectory[0][i], _chain_draws(8, i, 2))


def test_ddim_eta_one_full_plan_matches_ancestral_stepwise():
    model = _zero_model()
    T = 100
    sched = linear_schedule(T)
    f = lambda x, t: math.sqrt(1.0 - sched.abar(t)) * x
    req = SampleRequest(count=2, seed=14, record_trajectory=True)
    dd = ddim_sample(model, sched, stride_steps(T, T), 1.0, req, eps_fn=f)
    anc = ddpm_sample(model, sched, req, eps_fn=f)
    assert np.max(np.abs(dd.trajectory - anc.trajectory)) <= 1e-10


def test_ddim_invalid_plan():
    model = _model()
    sched = linear_schedule(10)
    with pytest.raises(ConfigError, match="plan ends at"):
        ddim_sample(model, sched, StridePlan((0, 4, 9)), 0.0, SampleRequest(1, 0))


# ---------------------------------------------------------------- guided


def _class_model(seed=37):
    return _model(classes=3, seed=seed)


def test_guided_validation():
    sched = linear_schedule(6)
    req = SampleRequest(2, 0)
    c = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ConditioningMismatch):
        guided_sample(_model(), sched, 0.5, np.array([1.0, 0.0]), req)
    with pytest.raises(HeadMismatch):
        guided_sample(_model(HEAD_DUAL, classes=3), sched, 0.5, c, req)
    for w in (-0.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            guided_sample(_class_model(), sched, w, c, req)
    with pytest.raises(ConditioningMismatch):
        guided_sample(_class_model(), sched, 0.5, np.array([1.0, 0.0]), req)
    with pytest.raises(ConditioningMismatch):
        guided_sample(_class_model(), sched, 0.5, np.array([0.5, 0.5, 0.0]), req)
    with pytest.raises(ConditioningMismatch):
        guided_sample(_class_model(), sched, 0.5, np.array([1.0, 1.0, 0.0]), req)


def test_guided_weight_zero_is_bitwise_conditional_ancestral():
    model = _class_model()
    sched = linear_schedule(10)
    req = SampleRequest(count=4, seed=3)
    c = np.array([0.0, 1.0, 0.0])
    g = guided_sample(model, sched, 0.0, c, req).samples
    plain = ddpm_sample(model, sched, req, cond=c).samples
    assert np.array_equal(g, plain)


def test_guided_zero_class_collapses_to_unconditional():
    model = _class_model()
    sched = linear_schedule(10)
    req = SampleRequest(count=3, seed=5)
    zero = np.zeros(3)
    base = ddpm_sample(model, sched, req, cond=zero).samples
    for w in (0.7, 3.0):
        g = guided_sample(model, sched, w, zero, req).samples
        assert np.allclose(g, base, atol=1e-10)


def test_guided_single_step_hand_extrapolation():
    model = _class_model()
    sched = linear_schedule(2)
    req = SampleRequest(count=2, seed=21, record_trajectory=True)
    c = np.array([1.0, 0.0, 0.0])
    w = 2.0
    res = guided_sample(model, sched, w, c, req)
    x2 = res.trajectory[0]
    vc = denoise(model, x2, 2, c)[0]
    vu = denoise(model, x2, 2, np.zeros(3))[0]
    eps_hat = (1.0 + w) * vc - w * vu
    a2, ab2 = sched.a(2), sched.abar(2)
    mean = (x2 - (1.0 - a2) / math.sqrt(1.0 - ab2) * eps_hat) / math.sqrt(a2)
    z = np.stack([_chain_draws(21, i, 4)[2:] for i in range(2)])
    want = mean + math.sqrt(sched.btilde(2)) * z
    assert np.max(np.abs(res.trajectory[1] - want)) <= 1e-12


def test_guided_single_step_is_affine_in_weight():
    model = _class_model()
    sched = linear_schedule(5)
    c = np.array([0.0, 0.0, 1.0])
    req = SampleRequest(count=3, seed=9, record_trajectory=True)
    x1 = {w: guided_sample(model, sched, w, c, req).trajectory[1] for w in (0.0, 1.0, 2.0)}
    lhs = x1[2.0] - x1[0.0]
    rhs = 2.0 * (x1[1.0] - x1[0.0])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------- noise streams


def _oracle_chain_noise(seed, count, per_chain):
    """The per-chain loop: chain i's draws are split(i).normals(per_chain)."""
    root = RngStream(seed)
    out = np.empty((count, per_chain), dtype=np.float64)
    for i in range(count):
        out[i] = root.split(i).normals(per_chain)
    return out


def _oracle_run_chain(step_fn, d, req, times, noisy, where):
    """The composed chain: every draw made before the first step, then the
    walk, with mean + sigma * z evaluated as one expression."""
    noisy_flags = [noisy(time) for time in times]
    draws = _oracle_chain_noise(req.seed, req.count, d * (1 + sum(noisy_flags)))
    x = draws[:, :d].copy()
    frames = [x.copy()] if req.record_trajectory else None
    col = d
    for time, noisy in zip(times, noisy_flags):
        mean, sigma = step_fn(x, time)
        if noisy:
            z = draws[:, col : col + d]
            col += d
            x = mean + sigma * z
        else:
            x = mean
        if frames is not None:
            frames.append(x.copy())
    traj = np.stack(frames) if frames is not None else None
    return SampleResult(x, traj)


def _run_variant(variant, count, d, seed, T=6):
    sched = linear_schedule(T)
    plan = stride_steps(T, 4)
    req = SampleRequest(count=count, seed=seed, record_trajectory=True)
    if variant == "ddpm":
        return ddpm_sample(_model(d=d, seed=3), sched, req)
    if variant == "improved":
        return improved_sample(_model(HEAD_DUAL, d=d, seed=23), sched, plan, req)
    if variant.startswith("ddim"):
        return ddim_sample(_model(d=d, seed=31), sched, plan, float(variant[4:]), req)
    c = np.array([0.0, 1.0, 0.0])
    return guided_sample(_model(d=d, classes=3, seed=37), sched, 1.5, c, req)


_VARIANTS = ["ddpm", "improved", "ddim0", "ddim0.5", "ddim1", "guided"]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_split_keys_match_split():
    tags = [0, 1, 2**32, 2**63, 2**64 - 1]
    for seed in (0, 9, -1, 2**64 - 1):
        keys = split_keys(seed, np.array(tags, dtype=np.uint64))
        assert keys.dtype == np.uint64
        assert keys.tolist() == [_key(RngStream(seed).split(tag).seed) for tag in tags]


@pytest.mark.parametrize("count, d", [(1, 1), (3, 64), (4000, 2)])
@pytest.mark.parametrize("variant", _VARIANTS)
def test_streamed_noise_matches_the_composed_chain(monkeypatch, variant, count, d):
    streamed = _run_variant(variant, count, d, seed=17)
    monkeypatch.setattr(sampler, "_run_chain", _oracle_run_chain)
    composed = _run_variant(variant, count, d, seed=17)
    assert _same_bits(streamed.samples, composed.samples)
    assert _same_bits(streamed.trajectory, composed.trajectory)


@pytest.mark.parametrize("variant", _VARIANTS)
def test_returned_arrays_share_no_memory_with_the_noise_buffer(monkeypatch, variant):
    buffers = []

    def recording(keys, counter, out):
        buffers.append(out)
        kernels.normals_rows(keys, counter, out)

    monkeypatch.setattr(sampler, "normals_rows", recording)
    res = _run_variant(variant, 5, 3, seed=4)
    assert buffers
    for buf in buffers:
        assert not np.shares_memory(res.samples, buf)
        assert not np.shares_memory(res.trajectory, buf)


@pytest.mark.parametrize("variant", _VARIANTS)
def test_samplers_raise_no_warnings(variant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_variant(variant, 5, 3, seed=2**64 - 1)


# ---------------------------------------------------------------- non-finite states


@pytest.mark.parametrize("variant, where", [
    ("ddpm", "ddpm sampling, step t=6"),
    ("improved", "improved sampling, stride k=4"),
    ("ddim", "ddim sampling, stride k=4"),
    ("guided", "guided sampling, step t=6"),
])
def test_a_blown_up_model_stops_sampling_at_its_first_step(variant, where):
    sched, plan, req = linear_schedule(6), stride_steps(6, 4), SampleRequest(count=5, seed=1)
    model = _model(HEAD_DUAL if variant == "improved" else HEAD_NOISE,
                   classes=3 if variant == "guided" else 0)
    model = model.with_params(np.full(model.param_count, 1e200))
    run = {"ddpm": lambda: ddpm_sample(model, sched, req),
           "improved": lambda: improved_sample(model, sched, plan, req),
           "ddim": lambda: ddim_sample(model, sched, plan, 0.5, req),
           "guided": lambda: guided_sample(model, sched, 1.5, np.eye(3)[1], req)}[variant]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteSample, match=f"^{where}: 5 of 5 chains hold a NaN or an infinity$"):
        run()


def test_the_state_check_is_per_entry():
    # states at float64's limit are finite though their sums overflow; one
    # infinite entry stops the walk at its step and counts its chain alone
    req, big = SampleRequest(count=3, seed=2), np.finfo(np.float64).max

    def step(x, time):
        mean = np.full_like(x, big)
        if time == 2:
            mean[1, 0] = -np.inf
        return mean, None

    def walk(times):
        return sampler._run_chain(step, 2, req, times, lambda t: False, "walk, step t")

    assert np.all(walk(range(5, 2, -1)).samples == big)
    with pytest.raises(NonFiniteSample, match=r"^walk, step t=2: 1 of 3 chains hold"):
        walk(range(5, 0, -1))


def test_noise_block_across_the_counter_wrap():
    # d = 3: 2^64 is not a multiple of 2d, so the block at index 2^64 // 6
    # starts at counter 2^64 - 4 and its third draw wraps to counters (0, 1)
    d, k = 3, 2**64 // 6
    keys = split_keys(5, np.arange(4, dtype=np.uint64))
    out = np.empty((4, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels.normals_rows(keys, 2 * d * k, out)
    for i in range(4):
        child = RngStream(5).split(i)
        assert _same_bits(out[i, :2], RngStream(child.seed, 2**64 - 4).normals(2))
        assert _same_bits(out[i, 2:], child.normals(1))


@pytest.mark.parametrize("variant, count", [("ddpm", 15626), ("improved", 7813)])
def test_first_chains_do_not_depend_on_the_count(variant, count):
    # at these counts one gemm over every row would pass OpenBLAS's kernel
    # switch for the narrow head; 512-row blocks stay below it
    head = HEAD_DUAL if variant == "improved" else HEAD_NOISE
    model = DenoiserModel.initialized(DenoiserArch(2, (32, 32), 8, head), 3)
    sched = linear_schedule(5)

    def run(n):
        req = SampleRequest(count=n, seed=5)
        if variant == "improved":
            return improved_sample(model, sched, stride_steps(5, 5), req).samples
        return ddpm_sample(model, sched, req).samples

    assert _same_bits(run(count)[:16], run(16))


@pytest.mark.parametrize("variant", ["ddpm", "improved", "ddim", "guided"])
@pytest.mark.parametrize("model_seed", [1, 3, 7, 12, 20])
def test_one_chain_has_the_bits_of_the_first_of_sixteen(variant, model_seed):
    # a lone row runs through the network as 8 copies of itself, a full
    # BLAS row tile, so a one-chain run has the bits of the first chain of
    # a larger run, not those of gemv or a partial tile
    head = HEAD_DUAL if variant == "improved" else HEAD_NOISE
    arch = DenoiserArch(2, (32, 32), 8, head, 4 if variant == "guided" else 0)
    model = DenoiserModel.initialized(arch, model_seed)
    sched = linear_schedule(8)

    def run(n):
        req = SampleRequest(count=n, seed=5)
        if variant == "improved":
            return improved_sample(model, sched, stride_steps(8, 4), req).samples
        if variant == "ddim":
            return ddim_sample(model, sched, stride_steps(8, 4), 0.5, req).samples
        if variant == "guided":
            return guided_sample(model, sched, 2.0, np.eye(4)[1], req).samples
        return ddpm_sample(model, sched, req).samples

    assert _same_bits(run(1), run(16)[:1])


@pytest.mark.parametrize("variant", ["ddpm", "guided"])
@pytest.mark.parametrize("d", [2, 64])
def test_no_chain_depends_on_the_count(variant, d):
    # a block of a row count that is not a multiple of 8 runs padded with
    # copies of its last row, so every count's chains have the bits of the
    # first chains of a 48-chain run
    arch = DenoiserArch(d, (32, 32), 8, HEAD_NOISE, 4 if variant == "guided" else 0)
    sched = linear_schedule(8)
    for model_seed in (1, 3, 12, 40):
        model = DenoiserModel.initialized(arch, model_seed)

        def run(n):
            req = SampleRequest(count=n, seed=5)
            if variant == "guided":
                return guided_sample(model, sched, 2.0, np.eye(4)[1], req).samples
            return ddpm_sample(model, sched, req).samples

        full = run(48)
        for n in range(1, 48):
            assert _same_bits(run(n), full[:n]), (model_seed, n)


def _wide_runs():
    plain = DenoiserModel.initialized(DenoiserArch(2, (32, 32), 8), 3)
    cls = DenoiserModel.initialized(DenoiserArch(2, (32, 32), 8, num_classes=4), 3)
    sched = linear_schedule(5)
    return {
        "ddpm": lambda n: ddpm_sample(plain, sched, SampleRequest(count=n, seed=1)),
        "guided": lambda n: guided_sample(cls, sched, 2.0, np.eye(4)[1],
                                          SampleRequest(count=n, seed=1)),
    }


@pytest.mark.parametrize("name", ["ddpm", "guided"])
def test_sampler_memory_per_chain_is_its_state_not_the_network_width(name):
    # each chain holds O(d) state and noise (about 100 B at d = 2); the
    # network's (rows, 32) intermediates are bounded by the 512-row blocks
    run = _wide_runs()[name]
    peaks = {}
    for n in (4000, 16000):
        run(n)
        tracemalloc.start()
        try:
            run(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[16000] - peaks[4000]) / 12000 < 256, peaks


@pytest.mark.parametrize("name", ["ddpm", "guided"])
def test_sampler_workspace_holds_at_most_512_rows(monkeypatch, name):
    workspaces = []

    def recording(*args, ws=None, **kwargs):
        workspaces.append(ws)
        return denoise(*args, ws=ws, **kwargs)

    monkeypatch.setattr(sampler, "denoise", recording)
    _wide_runs()[name](4000)
    assert workspaces and all(ws is workspaces[0] for ws in workspaces)
    assert max(buf.shape[0] for buf in workspaces[0].values()) <= 512


def test_sampler_memory_is_flat_in_the_number_of_steps():
    plain = _model(d=64, seed=3)
    cls = _model(d=64, classes=4, seed=3)
    runs = {
        "ddpm": lambda sched, req: ddpm_sample(plain, sched, req),
        "guided": lambda sched, req: guided_sample(cls, sched, 2.0, np.eye(4)[1], req),
    }
    req = SampleRequest(count=128, seed=1)
    for name, run in runs.items():
        peaks = {}
        for T in (50, 1000):
            sched = linear_schedule(T)
            # a first call fills the denoiser's per-t time-embedding cache, which
            # outlives the call (one small array per t); the peak of the second
            # call is the sampler's own working memory
            run(sched, req)
            tracemalloc.start()
            try:
                run(sched, req)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] <= 1.1 * peaks[50], (name, peaks)
