"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Each
criterion prints its measured numbers so a failure is diagnosable from the
log alone. Tolerances and budgets are part of the package contract.
"""

import hashlib
import math
import time

import numpy as np
from scipy.integrate import trapezoid

from diffusionlab.data import MixtureSampler, quantize_to_grid
from diffusionlab.denoiser import (
    HEAD_DUAL,
    DenoiserArch,
    DenoiserModel,
)
from diffusionlab.fileio import write_samples_csv
from diffusionlab.forward import posterior_mean_var
from diffusionlab.gaussian import GaussianSpec, gaussian_kl, gaussian_posterior
from diffusionlab.metrics import FeatureModel, fid, inception_score
from diffusionlab.numerics import ADTape, RngStream, grad
from diffusionlab.sampler import SampleRequest, ddim_sample, ddpm_sample, guided_sample
from diffusionlab.schedule import cosine_schedule, linear_schedule, stride_steps
from diffusionlab.training import TrainConfig, load_checkpoint, save_checkpoint, train
from diffusionlab.training import hybrid_loss, simple_loss


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_forward_marginal_monte_carlo():
    """Sequential noising chains land on the closed-form marginal."""
    t0 = time.perf_counter()
    sched = linear_schedule(50)
    n, d = 100000, 2
    x0 = np.array([0.7, -0.3])
    rng = RngStream(2024)
    x = np.tile(x0, (n, 1))
    worst = 0.0
    for t in range(1, 51):
        a = sched.a(t)
        z = rng.normals(n * d).reshape(n, d)
        x = math.sqrt(a) * x + math.sqrt(1.0 - a) * z
        if t in (10, 25, 50):
            ab = sched.abar(t)
            target_mean = math.sqrt(ab) * x0
            target_var = 1.0 - ab
            se_mean = math.sqrt(target_var / n)
            se_var = target_var * math.sqrt(2.0 / (n - 1))
            dev_mean = np.abs(x.mean(axis=0) - target_mean) / se_mean
            dev_var = np.abs(x.var(axis=0, ddof=1) - target_var) / se_var
            worst = max(worst, float(dev_mean.max()), float(dev_var.max()))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 3.0 and elapsed < 30.0,
            f"forward marginal MC worst deviation {worst:.2f} SE "
            f"(limit 3), {elapsed:.1f}s (limit 30)")


def test_criterion_2_gaussian_kl_vs_quadrature():
    """Closed-form Gaussian KL against 1-D trapezoid integration."""
    t0 = time.perf_counter()
    rng = RngStream(77)
    worst = 0.0
    for _ in range(10):
        u = rng.uniforms(4)
        m1, m2 = -2.0 + 4.0 * u[0], -2.0 + 4.0 * u[1]
        v1, v2 = 0.3 + 2.2 * u[2], 0.3 + 2.2 * u[3]
        closed = gaussian_kl(GaussianSpec.isotropic([m1], v1),
                             GaussianSpec.isotropic([m2], v2))
        s1 = math.sqrt(v1)
        grid = np.linspace(m1 - 12.0 * s1, m1 + 12.0 * s1, 20001)
        logp = -0.5 * (grid - m1) ** 2 / v1 - 0.5 * math.log(2 * math.pi * v1)
        logq = -0.5 * (grid - m2) ** 2 / v2 - 0.5 * math.log(2 * math.pi * v2)
        quad = float(trapezoid(np.exp(logp) * (logp - logq), grid))
        worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-4 and elapsed < 5.0,
            f"KL closed form vs quadrature worst abs err {worst:.2e} "
            f"(limit 1e-4), {elapsed:.2f}s (limit 5)")


def test_criterion_3_posterior_identity():
    """Reverse-posterior coefficients equal the conjugate-Gaussian update."""
    sched = linear_schedule(50)
    rng = RngStream(303)
    worst = 0.0
    for _ in range(3):
        x0 = rng.normals(2)
        xt = rng.normals(2)
        for t in range(2, 51):
            mean, var = posterior_mean_var(xt, x0, t, sched)
            prior = GaussianSpec.isotropic(
                math.sqrt(sched.abar(t - 1)) * x0, 1.0 - sched.abar(t - 1))
            post = gaussian_posterior(xt, prior, math.sqrt(sched.a(t)),
                                      np.zeros(2), 1.0 - sched.a(t))
            worst = max(worst, float(np.max(np.abs(mean - post.mean))),
                        abs(var - post.scalar))
    _report(3, worst <= 1e-12,
            f"posterior two-path identity max deviation {worst:.2e} (limit 1e-12)")


def _fd_gradient(f, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty_like(p)
    for i in range(p.size):
        q = p.copy()
        q[i] = p[i] + h
        up = f(q)
        q[i] = p[i] - h
        dn = f(q)
        g[i] = (up - dn) / (2.0 * h)
    return g


def test_criterion_4_gradients_match_finite_differences():
    """Autodiff loss gradients agree with central differences.

    20 random parameter points split evenly between the two losses; each
    comparison is the relative L2 gap over the full gradient vector.
    """
    t0 = time.perf_counter()
    sched = cosine_schedule(50)
    arch = DenoiserArch(2, (32, 32), 4)
    dual = DenoiserArch(2, (32, 32), 4, HEAD_DUAL)
    data_rng = RngStream(404)
    worst = 0.0

    for point in range(10):
        model = DenoiserModel.initialized(arch, 1000 + point)
        x0 = 0.4 * data_rng.normals(2).reshape(1, 2)
        eps = data_rng.normals(2).reshape(1, 2)
        t = (7, 25, 50, 2, 38)[point % 5]
        f = lambda p: simple_loss(model, x0, eps, t, sched, params=p)
        g_fd = _fd_gradient(f, model.params)
        tape = ADTape()
        leaf = tape.tensor(model.params)
        g_ad = grad(f(leaf), [leaf])[0]
        worst = max(worst, float(np.linalg.norm(g_fd - g_ad) / np.linalg.norm(g_fd)))

    for point in range(10):
        model = DenoiserModel.initialized(dual, 2000 + point)
        frozen = DenoiserModel.initialized(dual, 3000 + point).params
        x0 = quantize_to_grid(np.clip(0.4 * data_rng.normals(2).reshape(1, 2), -1, 1))
        eps = data_rng.normals(2).reshape(1, 2)
        t = (1, 25, 2, 50, 13)[point % 5]
        f = lambda p: hybrid_loss(model, frozen, x0, eps, t, sched, lam=0.5, params=p)
        g_fd = _fd_gradient(f, model.params)
        tape = ADTape()
        leaf = tape.tensor(model.params)
        g_ad = grad(f(leaf), [leaf])[0]
        worst = max(worst, float(np.linalg.norm(g_fd - g_ad) / np.linalg.norm(g_fd)))

    elapsed = time.perf_counter() - t0
    _report(4, worst <= 1e-4 and elapsed < 60.0,
            f"gradient vs central FD worst relative error {worst:.2e} "
            f"(limit 1e-4), {elapsed:.0f}s (limit 60)")


def test_criterion_5_ddim_eta1_equals_ddpm():
    """Full-length stochastic DDIM reproduces the ancestral sampler."""
    sched = linear_schedule(100)
    model = DenoiserModel.initialized(DenoiserArch(2, (16,), 4), 9)
    req = SampleRequest(count=4, seed=31, record_trajectory=True)
    a = ddpm_sample(model, sched, req)
    b = ddim_sample(model, sched, stride_steps(100, 100), 1.0, req)
    worst = max(float(np.max(np.abs(x - y)))
                for x, y in zip(a.trajectory, b.trajectory))
    _report(5, worst <= 1e-10,
            f"ddim eta=1 K=T vs ddpm max state gap {worst:.2e} "
            f"over T=100 (limit 1e-10)")


def test_criterion_6_end_to_end_gaussian_recovery():
    """Train on an isotropic Gaussian and recover its first two moments."""
    t0 = time.perf_counter()
    sched = cosine_schedule(50)
    model = DenoiserModel.initialized(DenoiserArch(2, (32, 32), 8), 0)
    source = MixtureSampler([(1.0, -1.0)], 0.5, RngStream(0).split(4))
    cfg = TrainConfig(gamma=1e-3, J=64, N=20000, seed=0)
    result = train(model, source, cfg, sched)
    samples = ddpm_sample(result.model, sched,
                          SampleRequest(count=10000, seed=123)).samples
    elapsed = time.perf_counter() - t0

    mean = samples.mean(axis=0)
    cov = np.cov(samples.T, ddof=1)
    mean_err = float(np.max(np.abs(mean - np.array([1.0, -1.0]))))
    diag_err = max(abs(cov[0, 0] - 0.25), abs(cov[1, 1] - 0.25))
    off_err = abs(cov[0, 1])
    ok = mean_err <= 0.1 and diag_err <= 0.15 and off_err <= 0.1 and elapsed < 300.0
    _report(6, ok,
            f"recovered mean err {mean_err:.3f} (limit 0.1), diag cov err "
            f"{diag_err:.3f} (limit 0.15), off-diag {off_err:.3f} (limit 0.1), "
            f"{elapsed:.0f}s (limit 300)")


def test_criterion_7_guidance_weight_zero_reduction():
    """w=0 guided sampling is the conditional sampler, bit for bit."""
    sched = cosine_schedule(10)
    arch = DenoiserArch(2, (8,), 4, num_classes=3)
    model = DenoiserModel.initialized(arch, 21)
    c = np.array([0.0, 1.0, 0.0])
    req = SampleRequest(count=8, seed=5)
    guided = guided_sample(model, sched, 0.0, c, req).samples
    plain = ddpm_sample(model, sched, req, cond=c).samples
    _report(7, bool(np.array_equal(guided, plain)),
            "guided w=0 samples bitwise equal to conditional ancestral samples")


def test_criterion_8_fid_and_score_properties():
    rng = RngStream(88)
    x = rng.normals(200 * 2).reshape(200, 2)

    fm = FeatureModel.initialized(2, 4, 3, (8,), seed=1)
    same = fid(fm.features(x), fm.features(x.copy()))

    delta = np.array([0.6, -0.2])
    shifted = fid(x, x + delta)  # in feature space: identity features
    shift_err = abs(shifted - float(delta @ delta))

    zero = FeatureModel.initialized(2, 5, 3, (4,), seed=0)
    uniform = FeatureModel(2, 5, 3, (4,), np.zeros_like(zero.params))
    score, _ = inception_score(uniform.probs(x), batches=2)
    is_err = abs(score - 1.0)

    ok = same <= 1e-6 and shift_err <= 1e-6 and is_err <= 1e-12
    _report(8, ok,
            f"FID identical {same:.2e} (limit 1e-6), mean-shift err "
            f"{shift_err:.2e} (limit 1e-6), uniform-classifier score err "
            f"{is_err:.2e} (limit 1e-12)")


def test_criterion_9_schedule_endpoints():
    lin = linear_schedule(1000)
    cos = cosine_schedule(1000, 0.008)
    endpoint_ok = lin.a(1) == 1.0 - 1e-4 and lin.a(1000) == 0.98
    clip_ok = bool(np.max(1.0 - cos.alpha) <= 0.999)
    mono_ok = bool(np.all(np.diff(lin.alpha_bar) < 0)) and \
        bool(np.all(np.diff(cos.alpha_bar) < 0))
    _report(9, endpoint_ok and clip_ok and mono_ok,
            f"linear endpoints exact {endpoint_ok}, cosine clip {clip_ok}, "
            f"cumulative products strictly decreasing {mono_ok}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    sched = cosine_schedule(8)
    arch = DenoiserArch(2, (8,), 4)
    cfg = TrainConfig(gamma=1e-3, J=8, N=30, seed=7)

    outputs = []
    for tag in ("a", "b"):
        model = DenoiserModel.initialized(arch, 7)
        source = MixtureSampler([(0.5, -0.5)], 0.4, RngStream(7).split(4))
        result = train(model, source, cfg, sched)
        ckpt = tmp_path / f"{tag}.ckpt"
        save_checkpoint(str(ckpt), result.model, sched, cfg.N, result.rng_counters)
        csv = tmp_path / f"{tag}.csv"
        samples = ddpm_sample(result.model, sched,
                              SampleRequest(count=16, seed=99)).samples
        write_samples_csv(str(csv), samples)
        outputs.append((hashlib.sha256(ckpt.read_bytes()).hexdigest(),
                        hashlib.sha256(csv.read_bytes()).hexdigest(),
                        result.model.params))

    repro_ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    loaded = load_checkpoint(str(tmp_path / "a.ckpt"))
    round_ok = np.array_equal(loaded.params32,
                              outputs[0][2].astype("<f4"))
    _report(10, repro_ok and round_ok,
            f"identical config+seed SHA-256 match {repro_ok}, 32-bit parameter "
            f"round trip bitwise {round_ok}")
