import errno
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import tape_oracle
from scipy.stats import norm

from diffusionlab import BACKEND, data, fileio, training
from diffusionlab.denoiser import (
    HEAD_DUAL,
    HEAD_NOISE,
    DenoiserArch,
    DenoiserModel,
    denoise,
)
from diffusionlab.errors import (
    BadMagic,
    ConfigError,
    DataExhausted,
    HeadMismatch,
    NonFiniteLoss,
    OutOfRange,
    ShapeMismatch,
    StepOutOfRange,
    TruncatedFile,
)
from diffusionlab.forward import (
    GRID_STEP,
    forward_sample,
    log_variance_interpolation,
    posterior_coefficients,
    reverse_mean_from_eps,
)
from diffusionlab.numerics import ADTape, RngStream, autodiff, grad
from diffusionlab.numerics.rng import BLOCK_DRAWS
from diffusionlab.schedule import cosine_schedule, linear_schedule
from diffusionlab.training import (
    Checkpoint,
    TrainConfig,
    hybrid_loss,
    load_checkpoint,
    loss_and_grad,
    log_variance_range,
    model_from_checkpoint,
    save_checkpoint,
    schedule_from_meta,
    sgd_step,
    simple_loss,
    train,
)


def _quantize(x):
    k = np.round((np.asarray(x, dtype=np.float64) + 1.0) * 127.5)
    k = np.clip(k, 0, 255)
    return -1.0 + GRID_STEP * k


class ArraySource:
    """Finite in-memory data source; raises once the array runs dry."""

    def __init__(self, x, labels=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.labels = None if labels is None else np.asarray(labels)
        self.pos = 0

    def take(self, k):
        if self.pos + k > self.x.shape[0]:
            raise DataExhausted(f"need {k} points, {self.x.shape[0] - self.pos} left")
        sl = slice(self.pos, self.pos + k)
        self.pos += k
        lab = None if self.labels is None else self.labels[sl]
        return self.x[sl].copy(), lab


class GaussianSource:
    """Endless stream of N(center, sd^2 I) draws."""

    def __init__(self, seed, center=(1.0, -1.0), sd=0.5):
        self.rng = RngStream(seed).split(99)
        self.center = np.asarray(center, dtype=np.float64)
        self.sd = sd

    def take(self, k):
        d = self.center.size
        z = self.rng.normals(k * d).reshape(k, d)
        return self.center + self.sd * z, None


def _model(head=HEAD_NOISE, hidden=(6,), d=2, d_emb=4, classes=0, seed=7):
    return DenoiserModel.initialized(DenoiserArch(d, hidden, d_emb, head, classes), seed)


# ---------------------------------------------------------------- config


def test_train_config_validation():
    TrainConfig(gamma=0.1, J=4, N=10)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.0, J=4, N=10)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.1, J=0, N=10)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.1, J=4, N=-1)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.1, J=4, N=10, lam=-0.5)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=0.1, J=4, N=10, p_uncond=1.5)
    assert TrainConfig(gamma=0.1, J=4, N=10).lam == 0.001
    TrainConfig(gamma=0.1, J=4, N=10, seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must lie in 0"):
            TrainConfig(gamma=0.1, J=4, N=10, seed=seed)


# ---------------------------------------------------------------- simple loss


def test_simple_loss_zero_network_is_noise_norm():
    model = _model().with_params(np.zeros(_model().param_count))
    sched = linear_schedule(20)
    rng = RngStream(3)
    x0 = rng.normals(2)
    eps = rng.normals(2)
    got = simple_loss(model, x0, eps, 5, sched)
    assert got == pytest.approx(float(np.sum(eps**2)), rel=1e-14)


def test_simple_loss_matches_hand_formula():
    model = _model(seed=11)
    sched = linear_schedule(20)
    rng = RngStream(4)
    x0 = rng.normals(6).reshape(3, 2)
    eps = rng.normals(6).reshape(3, 2)
    t = 7
    xt = forward_sample(x0, t, eps, sched)
    eps_hat, _ = denoise(model, xt, t)
    want = float(np.sum((eps - eps_hat) ** 2)) / 3
    assert simple_loss(model, x0, eps, t, sched) == pytest.approx(want, rel=1e-14)


def test_simple_loss_step_out_of_range():
    model = _model()
    sched = linear_schedule(10)
    x = np.zeros(2)
    with pytest.raises(StepOutOfRange):
        simple_loss(model, x, x, 0, sched)
    with pytest.raises(StepOutOfRange):
        simple_loss(model, x, x, 11, sched)


def _fd_grad(f, params, h=1e-6):
    out = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


def test_simple_loss_gradient_matches_finite_differences():
    model = _model(seed=21)
    sched = linear_schedule(30)
    rng = RngStream(8)
    x0 = rng.normals(8).reshape(4, 2)
    eps = rng.normals(8).reshape(4, 2)
    t = 12

    tape = ADTape()
    leaf = tape.tensor(model.params)
    loss = simple_loss(model, x0, eps, t, sched, params=leaf)
    g = grad(loss, [leaf])[0]

    fd = _fd_grad(lambda p: simple_loss(model.with_params(p), x0, eps, t, sched),
                  model.params)
    assert np.linalg.norm(fd - g) / np.linalg.norm(fd) < 1e-4


# ---------------------------------------------------------------- variance head


def test_log_variance_interpolation_endpoints():
    sched = linear_schedule(40)
    t = 9
    one = np.ones((3, 2))
    hi = log_variance_interpolation(one, *log_variance_range(t, sched))
    assert np.allclose(np.exp(hi), 1.0 - sched.a(t), rtol=1e-15)
    lo = log_variance_interpolation(np.zeros((3, 2)), *log_variance_range(t, sched))
    assert np.allclose(np.exp(lo), sched.btilde(t), rtol=1e-15)


def test_log_variance_first_step_borrows_second_posterior_variance():
    sched = linear_schedule(40)
    lo = log_variance_interpolation(np.zeros(2), *log_variance_range(1, sched))
    assert np.allclose(lo, math.log(sched.btilde(2)))
    with pytest.raises(StepOutOfRange):
        log_variance_range(0, sched)


def test_reverse_mean_from_eps_formula():
    sched = linear_schedule(25)
    t = 6
    xt = np.array([0.4, -1.2])
    ehat = np.array([0.3, 0.9])
    a, ab = sched.a(t), sched.abar(t)
    want = (xt - (1 - a) / math.sqrt(1 - ab) * ehat) / math.sqrt(a)
    assert np.array_equal(reverse_mean_from_eps(xt, ehat, a, ab), want)


# ---------------------------------------------------------------- hybrid loss


def test_hybrid_loss_requires_dual_head():
    model = _model(HEAD_NOISE)
    sched = linear_schedule(10)
    x = np.zeros(2)
    with pytest.raises(HeadMismatch):
        hybrid_loss(model, model.params, x, x, 3, sched)


def test_hybrid_loss_zero_weight_equals_simple_loss():
    model = _model(HEAD_DUAL, seed=13)
    sched = linear_schedule(20)
    rng = RngStream(5)
    x0 = rng.normals(4).reshape(2, 2)
    eps = rng.normals(4).reshape(2, 2)
    got = hybrid_loss(model, model.params, x0, eps, 8, sched, lam=0.0)
    want = simple_loss(model, x0, eps, 8, sched)
    assert got == want


@pytest.mark.parametrize("t", [1, 2, 7])
def test_hybrid_loss_without_a_frozen_copy_takes_the_live_parameters(t):
    # train passes None: the mean path then reuses the live forward's v1
    model = _model(HEAD_DUAL, hidden=(8, 6), seed=14)
    sched = linear_schedule(10)
    rng = RngStream(6)
    x0 = _quantize(0.5 * rng.normals(8).reshape(4, 2))
    eps = rng.normals(8).reshape(4, 2)
    results = []
    for frozen in (model.params, None):
        plain = hybrid_loss(model, frozen, x0, eps, t, sched, lam=0.4)
        tape = ADTape()
        leaf = tape.tensor(model.params)
        loss = hybrid_loss(model, frozen, x0, eps, t, sched, lam=0.4, params=leaf)
        results.append((plain, float(loss.value), grad(loss, [leaf])[0].tobytes()))
    assert results[0] == results[1]


def test_hybrid_loss_off_grid_x0_rejected_at_first_step():
    model = _model(HEAD_DUAL)
    sched = linear_schedule(10)
    x0 = np.array([0.5, 0.5])
    with pytest.raises(OutOfRange, match="256-level grid"):
        hybrid_loss(model, model.params, x0, np.zeros(2), 1, sched, lam=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hybrid_loss_non_finite_x0_rejected_at_first_step(bad):
    model = _model(HEAD_DUAL)
    sched = linear_schedule(10)
    x0 = np.array([bad, -1.0])
    for params in (None, ADTape().tensor(model.params)):
        # rejected before the network runs on it: no numpy warning on the way
        with pytest.raises(OutOfRange, match="not finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            hybrid_loss(model, None, x0, np.zeros(2), 1, sched, lam=0.1, params=params)


def test_losses_reject_a_parameter_vector_of_the_wrong_length():
    model = _model(HEAD_DUAL)
    sched = linear_schedule(10)
    x = np.zeros((2, 2))
    for bad in (np.zeros(3), np.zeros(model.param_count + 1)):
        with pytest.raises(ShapeMismatch):
            hybrid_loss(model, bad, x, x, 3, sched)
        with pytest.raises(ShapeMismatch):
            simple_loss(model, x, x, 3, sched, params=bad)
        with pytest.raises(ShapeMismatch):
            hybrid_loss(model, None, x, x, 3, sched, params=ADTape().tensor(bad))


def test_hybrid_loss_zero_network_kl_oracle():
    # zero parameters: v1 = 0, v2 = 0, so the reverse mean is xt/sqrt(alpha)
    # and the learned variance lands exactly on beta_tilde
    model = _model(HEAD_DUAL)
    model = model.with_params(np.zeros(model.param_count))
    sched = linear_schedule(30)
    t, lam = 9, 0.25
    rng = RngStream(6)
    x0 = rng.normals(6).reshape(3, 2)
    eps = rng.normals(6).reshape(3, 2)

    xt = forward_sample(x0, t, eps, sched)
    c_xt, c_x0 = posterior_coefficients(t, sched)
    beta = sched.btilde(t)
    gap = c_xt * xt + c_x0 * x0 - xt / math.sqrt(sched.a(t))
    want = float(np.sum(eps**2)) / 3 + lam * 0.5 * float(np.sum(gap**2)) / beta / 3
    got = hybrid_loss(model, model.params, x0, eps, t, sched, lam=lam)
    assert got == pytest.approx(want, rel=1e-12)


def test_hybrid_loss_exact_posterior_mean_gives_zero_penalty():
    # pick eps so the frozen-copy reverse mean equals the forward posterior
    # mean; the variational term must then vanish
    model = _model(HEAD_DUAL)
    model = model.with_params(np.zeros(model.param_count))
    sched = linear_schedule(30)
    t = 9
    a, ab = sched.a(t), sched.abar(t)
    c_xt, c_x0 = posterior_coefficients(t, sched)
    slope = c_xt - 1.0 / math.sqrt(a)
    c1 = c_x0 + math.sqrt(ab) * slope
    c2 = math.sqrt(1.0 - ab) * slope
    x0 = np.array([[0.7, -0.3]])
    eps = -c1 / c2 * x0
    got = hybrid_loss(model, model.params, x0, eps, t, sched, lam=5.0)
    want = simple_loss(model, x0, eps, t, sched)
    assert abs(got - want) < 1e-12


def test_hybrid_loss_first_step_matches_exact_decoder_likelihood():
    model = _model(HEAD_DUAL)
    model = model.with_params(np.zeros(model.param_count))
    sched = linear_schedule(50)
    rng = RngStream(9)
    x0 = _quantize(0.8 * rng.normals(8).reshape(4, 2))
    eps = rng.normals(8).reshape(4, 2)
    lam = 0.5

    x1 = forward_sample(x0, 1, eps, sched)
    mean = x1 / math.sqrt(sched.a(1))
    var = sched.btilde(2)
    ll = sum(tape_oracle.decoder_loglik(x0[j], mean[j], var) for j in range(4))
    want = float(np.sum(eps**2)) / 4 + lam * (-ll / 4)
    got = hybrid_loss(model, model.params, x0, eps, 1, sched, lam=lam)
    assert got == pytest.approx(want, rel=1e-9)


def test_hybrid_loss_boundary_bins_use_half_line_mass():
    # x0 pinned at the extreme levels: the outer integration limit is the
    # whole tail, so a huge variance still leaves probability near 1/2
    model = _model(HEAD_DUAL)
    model = model.with_params(np.zeros(model.param_count))
    sched = linear_schedule(50)
    x0 = np.array([[1.0, -1.0]])
    eps = np.zeros((1, 2))
    x1 = forward_sample(x0, 1, eps, sched)
    mean = x1 / math.sqrt(sched.a(1))
    sd = math.sqrt(sched.btilde(2))
    p_hi = 1.0 - norm.cdf((1.0 - GRID_STEP / 2 - mean[0, 0]) / sd)
    p_lo = norm.cdf((-1.0 + GRID_STEP / 2 - mean[0, 1]) / sd)
    want = 0.0 + 1.0 * (-(math.log(p_hi) + math.log(p_lo)))
    got = hybrid_loss(model, model.params, x0, eps, 1, sched, lam=1.0)
    assert got == pytest.approx(want, rel=1e-9)


def _loss_term_grad(model, x0, eps, t, sched):
    """Gradient of the variational term alone, by differencing lam=1 vs lam=0."""
    tape0 = ADTape()
    leaf0 = tape0.tensor(model.params)
    g0 = grad(hybrid_loss(model, model.params, x0, eps, t, sched, lam=0.0,
                          params=leaf0), [leaf0])[0]
    tape1 = ADTape()
    leaf1 = tape1.tensor(model.params)
    g1 = grad(hybrid_loss(model, model.params, x0, eps, t, sched, lam=1.0,
                          params=leaf1), [leaf1])[0]
    return g1 - g0


@pytest.mark.parametrize("t", [1, 9])
def test_hybrid_variational_gradient_skips_the_mean_path(t):
    # the reverse mean comes from the frozen copy, so the variational term
    # must have exactly zero gradient along the noise-head output columns
    model = _model(HEAD_DUAL, seed=31)
    sched = linear_schedule(30)
    rng = RngStream(10)
    x0 = _quantize(0.7 * rng.normals(6).reshape(3, 2))
    eps = rng.normals(6).reshape(3, 2)

    gl = _loss_term_grad(model, x0, eps, t, sched)
    layout = model.plan.offsets
    d = model.arch.d
    off, shape = layout["head.w"]
    head_w = gl[off : off + shape[0] * shape[1]].reshape(shape)
    assert np.all(head_w[:, :d] == 0.0)
    assert np.any(head_w[:, d:] != 0.0)
    off_b, shape_b = layout["head.b"]
    head_b = gl[off_b : off_b + shape_b[0]]
    assert np.all(head_b[:d] == 0.0)
    assert np.any(head_b[d:] != 0.0)


@pytest.mark.parametrize("t", [1, 4])
def test_hybrid_loss_gradient_matches_finite_differences(t):
    model = _model(HEAD_DUAL, seed=17)
    sched = linear_schedule(30)
    rng = RngStream(12)
    x0 = _quantize(0.7 * rng.normals(6).reshape(3, 2))
    eps = rng.normals(6).reshape(3, 2)
    frozen = model.params.copy()

    tape = ADTape()
    leaf = tape.tensor(model.params)
    loss = hybrid_loss(model, frozen, x0, eps, t, sched, lam=0.8, params=leaf)
    g = grad(loss, [leaf])[0]

    fd = _fd_grad(lambda p: hybrid_loss(model.with_params(p), frozen, x0, eps, t,
                                        sched, lam=0.8), model.params)
    assert np.linalg.norm(fd - g) / np.linalg.norm(fd) < 1e-4


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


_ADJOINT_CASES = [
    (loss, head, classes, frozen)
    for loss, head in (("simple", HEAD_NOISE), ("simple", HEAD_DUAL), ("hybrid", HEAD_DUAL))
    for classes in (0, 3)
    for frozen in ((None, "explicit") if loss == "hybrid" else (None,))
]


# ids as pytest named these cases when a class-conditional one held an object
@pytest.mark.parametrize("loss, head, classes, frozen", _ADJOINT_CASES, ids=[
    f"{loss}-{head}-{f'cond{i}' if classes else None}-{frozen}"
    for i, (loss, head, classes, frozen) in enumerate(_ADJOINT_CASES)])
def test_loss_adjoints_match_the_composed_tape_bit_for_bit(loss, head, classes, frozen):
    # the program's loss node against the losses composed from tape ops
    # (tests/tape_oracle.py), over the program's fused network node and
    # over the network composed from ops as well
    model = _model(head, hidden=(8, 8), d_emb=6, classes=classes, seed=41)
    frozen_params = None if frozen is None else _model(head, (8, 8), 2, 6, classes, 42).params
    sched = cosine_schedule(40)
    rng = np.random.default_rng(43)
    for batch in (1, 16):
        x0 = _quantize(0.6 * rng.normal(size=(batch, 2)))
        x0[0, 0], x0[-1, -1] = -1.0, 1.0  # both boundary bins at t = 1
        eps = rng.normal(size=(batch, 2))
        c = np.eye(3)[rng.integers(0, 3, size=batch)] if classes else None
        for t in (1, 2, sched.T):
            for lam in ((0.3, 0.0) if loss == "hybrid" else (None,)):
                def fn(p, m, network=None):
                    kw = {} if network is None else {"network": network}
                    if loss == "simple":
                        return m.simple_loss(model, x0, eps, t, sched, c, params=p, **kw)
                    return m.hybrid_loss(model, frozen_params, x0, eps, t, sched, lam=lam,
                                         cond=c, params=p, **kw)

                tape = ADTape()
                leaf = tape.tensor(model.params)
                got = fn(leaf, training)
                g = grad(got, [leaf])[0]
                assert len(tape) == 2
                # off the tape a single row runs as 8 copies (denoiser.denoise)
                assert _bits(fn(model.params, training)) == _bits(
                    got.value if batch > 1 else
                    fn(model.params, tape_oracle, tape_oracle.denoise_off_tape))
                for network in (tape_oracle.denoise_on_fused, tape_oracle.denoise):
                    want, want_g, _ = tape_oracle.loss_and_grad(
                        lambda p: fn(p, tape_oracle, network), model.params)
                    where = (batch, t, lam, network.__name__)
                    assert _bits(got.value) == _bits(want), where
                    assert _bits(g) == _bits(want_g), where


# ---------------------------------------------------------------- cfg mask


def test_cfg_mask_dropout_rates():
    rng = RngStream(40)
    # drop probability 0: the keep indicator is always 1
    assert np.all(rng.bernoulli(1000, 1.0) == 1)
    # drop probability 1: always 0
    assert np.all(rng.bernoulli(1000, 0.0) == 0)


def test_cfg_mask_dropout_rate_binomial():
    p = 0.1
    n = 100_000
    keep = RngStream(41).bernoulli(n, 1.0 - p)
    dropped = 1.0 - keep.mean()
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(dropped - p) <= 3 * sigma


# ---------------------------------------------------------------- sgd


def test_sgd_step_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(sgd_step(p.copy(), np.zeros(3), 0.5), p)


def test_sgd_step_quadratic_oracle():
    # on f(x) = x^2/2 the gradient is x itself
    p = np.array([1.0])
    p = sgd_step(p, p, 0.1)
    assert p[0] == pytest.approx(0.9, rel=1e-15)
    p = np.array([1.0])
    for _ in range(100):
        p = sgd_step(p, p, 0.1)
    assert p[0] == pytest.approx(0.9**100, rel=1e-12)


def test_sgd_step_updates_in_place_with_the_bits_of_the_expression():
    p, g = RngStream(12).normals(50), RngStream(13).normals(50)
    want = p - 0.3 * g
    assert sgd_step(p, g, 0.3) is p
    assert p.tobytes() == want.tobytes()


def test_sgd_step_length_mismatch():
    p = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        sgd_step(p, np.zeros(4), 0.1)
    with pytest.raises(ShapeMismatch):
        sgd_step(p, np.zeros((1, 3)), 0.1)


# ---------------------------------------------------------------- train loop


def test_train_zero_steps_leaves_params_unchanged():
    model = _model(seed=2)
    sched = linear_schedule(10)
    cfg = TrainConfig(gamma=0.1, J=4, N=0, seed=1)
    res = train(model, GaussianSource(1), cfg, sched)
    assert np.array_equal(res.model.params, model.params)
    assert res.losses == []


def test_train_is_deterministic():
    sched = cosine_schedule(20)
    cfg = TrainConfig(gamma=0.01, J=8, N=25, seed=77)
    runs = []
    for _ in range(2):
        model = _model(seed=5)
        res = train(model, GaussianSource(3), cfg, sched)
        runs.append((res.model.params, res.losses))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    other = train(_model(seed=5), GaussianSource(3),
                  TrainConfig(gamma=0.01, J=8, N=25, seed=78), sched)
    assert not np.array_equal(runs[0][0], other.model.params)


def test_train_draws_one_step_index_per_batch():
    # counters: one uniform per step for t, two per noise coordinate
    model = _model(seed=2)
    sched = linear_schedule(10)
    cfg = TrainConfig(gamma=0.01, J=5, N=13, seed=3)
    res = train(model, GaussianSource(4), cfg, sched)
    assert res.rng_counters["t"] == 13
    assert res.rng_counters["eps"] == 2 * 13 * 5 * 2
    assert res.rng_counters["mask"] == 0


def test_train_raises_when_source_runs_dry():
    model = _model(seed=2)
    sched = linear_schedule(10)
    src = ArraySource(np.zeros((7, 2)))
    with pytest.raises(DataExhausted):
        train(model, src, TrainConfig(gamma=0.01, J=4, N=2, seed=1), sched)


def test_train_stops_at_the_first_non_finite_loss():
    # the third batch holds a nan, so the loss of step 3 is nan
    x = np.full((40, 2), 0.25)
    x[9, 1] = np.nan
    model = _model(seed=2)
    cfg = TrainConfig(gamma=0.01, J=4, N=10, seed=5)
    t3 = int(RngStream(5).split(1).integers(3, 1, 11)[2])
    src = ArraySource(x)
    with pytest.raises(NonFiniteLoss, match=rf"at step 3 \(t = {t3}\)"):
        train(model, src, cfg, linear_schedule(10))
    assert src.pos == 12  # no batch drawn after the failing step


def test_train_leaves_the_callers_parameters_alone():
    model = _model(seed=2)
    before = model.params.copy()
    sched = linear_schedule(10)
    res = train(model, GaussianSource(1), TrainConfig(gamma=0.1, J=4, N=5, seed=1), sched)
    assert model.params.tobytes() == before.tobytes()
    assert not np.shares_memory(res.model.params, model.params)
    assert not np.array_equal(res.model.params, before)
    # also when a later step fails: steps 1 and 2 have updated train's own copy
    x = np.full((40, 2), 0.25)
    x[9, 1] = np.nan
    with pytest.raises(NonFiniteLoss):
        train(model, ArraySource(x), TrainConfig(gamma=0.01, J=4, N=10, seed=5), sched)
    assert model.params.tobytes() == before.tobytes()


def test_grad_outside_train_returns_a_fresh_array_each_call():
    model = _model(hidden=(8, 5), classes=3, seed=4)
    x0, eps = RngStream(5).normals(8).reshape(4, 2), RngStream(6).normals(8).reshape(4, 2)
    cond = np.eye(3)[[0, 1, 2, 0]]
    grads = []
    for _ in range(2):
        leaf = ADTape().tensor(model.params)
        loss = simple_loss(model, x0, eps, 3, linear_schedule(10), cond=cond, params=leaf)
        grads.append(grad(loss, [leaf])[0])
    assert not np.shares_memory(grads[0], grads[1])
    assert not any(np.shares_memory(g, model.params) for g in grads)
    assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("head, classes, hidden", [
    (HEAD_NOISE, 0, (6,)),
    (HEAD_DUAL, 0, (8, 5)),
    (HEAD_NOISE, 3, (8, 5)),
    (HEAD_DUAL, 3, (5, 8)),
], ids=["noise", "dual-proj", "adagn-proj", "dual-adagn-proj"])
def test_backward_into_the_run_buffers_has_the_bits_of_a_fresh_backward(head, classes, hidden):
    model = _model(head, hidden=hidden, d=3, classes=classes, seed=6)
    # train's own kind of model; its gradient buffer starts as nan, so a
    # block the backward left unwritten would show
    own = DenoiserModel(model.arch, model.params.copy(), np.full(model.param_count, np.nan))
    sched = cosine_schedule(20)
    rng = RngStream(31)
    for t in (1, 2, 13):  # the hybrid loss takes its decoder term at t = 1
        x0 = _quantize(0.5 * rng.normals(18).reshape(6, 3))
        eps = rng.normals(18).reshape(6, 3)
        keep = (rng.uniforms(6) < 0.7)[:, None]  # some rows dropped, as cfg does
        c = np.eye(3)[[0, 1, 2, 0, 1, 2]] * keep if classes else None
        got = []
        for m in (own, model):
            leaf = ADTape().tensor(m.params)
            if head == HEAD_DUAL:
                loss = hybrid_loss(m, None, x0, eps, t, sched, cond=c, params=leaf)
            else:
                loss = simple_loss(m, x0, eps, t, sched, cond=c, params=leaf)
            got.append(grad(loss, [leaf])[0])
        assert got[0] is own.grads
        assert got[0].tobytes() == got[1].tobytes(), t


def test_train_steps_give_the_benchmark_tracer_its_counts(monkeypatch):
    # the benchmark tracer's grad wrapper reads the tape a loss builds: f.tape, its
    # ops and parents, len(tape), and the leaf's index and value
    for head in (HEAD_NOISE, HEAD_DUAL):
        model = _model(head, seed=3)
        tape = ADTape()
        leaf = tape.tensor(model.params)
        x0 = np.zeros((4, 2))
        if head == HEAD_DUAL:
            f = hybrid_loss(model, None, x0, x0, 3, linear_schedule(10), params=leaf)
        else:
            f = simple_loss(model, x0, x0, 3, linear_schedule(10), params=leaf)
        leaves = [leaf]
        assert f.tape is tape and leaves[0].value.nbytes == 8 * model.param_count
        assert sum(1 for op, par in zip(f.tape.ops, f.tape.parents)
                   if op == "slice" and par[0] == leaves[0].index) == 0
        assert len(f.tape) == 2
    # and its run records name the numeric implementation
    assert BACKEND == "numpy"
    # the tracer counts steps by sgd_step calls and divides its per-step
    # figures by that count: each step makes one sgd_step call, after one
    # loss_and_grad call, and calls no other wrapped name
    calls = {}
    for name in ("denoise", "simple_loss", "hybrid_loss", "grad", "sgd_step", "loss_and_grad"):
        def counted(*args, _fn=getattr(training, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(training, name, counted)
    for variant in ("ddpm", "cfg", "improved"):
        model, source = _oracle_case(variant, 2)
        calls.clear()
        train(model, source(), TrainConfig(gamma=0.01, J=4, N=7, p_uncond=0.3, seed=3),
              linear_schedule(10), variant)
        assert calls == {"loss_and_grad": 7, "sgd_step": 7}, variant


def _oracle_train(model, source, cfg, sched, variant):
    """train one step at a time: every step draws its own t, noise and mask."""
    root = RngStream(cfg.seed)
    t_stream, noise_stream, mask_stream = root.split(1), root.split(2), root.split(3)
    params, d, losses = model.params.copy(), model.arch.d, []
    for _ in range(cfg.N):
        t = int(t_stream.integers(1, 1, sched.T + 1)[0])
        x0, labels = source.take(cfg.J)
        x0 = np.asarray(x0, dtype=np.float64).reshape(cfg.J, d)
        eps = noise_stream.normals(cfg.J * d).reshape(cfg.J, d)
        cond = None
        if variant == "cfg":
            onehot = np.eye(model.arch.num_classes)[np.asarray(labels)]
            keep = mask_stream.bernoulli(cfg.J, 1.0 - cfg.p_uncond)
            cond = np.stack([onehot[j] if keep[j] == 1 else np.zeros_like(onehot[j])
                             for j in range(cfg.J)])
        leaf = ADTape().tensor(params)
        if variant == "improved":
            loss = hybrid_loss(model, None, x0, eps, t, sched, lam=cfg.lam, cond=cond,
                               params=leaf)
        else:
            loss = simple_loss(model, x0, eps, t, sched, cond=cond, params=leaf)
        losses.append(float(loss.value))
        params = sgd_step(params, grad(loss, [leaf])[0], cfg.gamma)
    counters = {"t": t_stream.counter, "eps": noise_stream.counter,
                "mask": mask_stream.counter}
    return params, losses, counters


def _oracle_case(variant, d):
    """A model and a factory of identical fresh data sources for a variant."""
    centers = np.linspace(-0.9, 0.9, 3 * d).reshape(3, d)
    if variant == "improved":
        x = _quantize(0.4 * RngStream(8).normals(300 * d).reshape(300, d))
        return _model(HEAD_DUAL, hidden=(5,), d=d, seed=3), lambda: ArraySource(x)
    return (_model(hidden=(5,), d=d, classes=3 if variant == "cfg" else 0, seed=3),
            lambda: data.MixtureSampler(centers, 0.2, RngStream(4)))


@pytest.mark.parametrize("variant", ["ddpm", "cfg", "improved"])
@pytest.mark.parametrize("J, d, N, chunk", [
    (8, 64, 1, 16), (8, 64, 15, 16), (8, 64, 16, 16), (8, 64, 17, 16), (8, 64, 35, 16),
    (16, 576, 3, 1),  # J*d > BLOCK_DRAWS: a block is one step
], ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+3", "beyond-the-block"])
def test_train_draws_blocks_of_steps_with_the_bits_of_one_step_at_a_time(variant, J, d, N,
                                                                          chunk):
    assert max(1, BLOCK_DRAWS // (J * d)) == chunk
    model, source = _oracle_case(variant, d)
    cfg = TrainConfig(gamma=0.01, J=J, N=N, p_uncond=0.3, seed=17)
    sched = cosine_schedule(20)
    res = train(model, source(), cfg, sched, variant)
    params, losses, counters = _oracle_train(model, source(), cfg, sched, variant)
    assert res.model.params.tobytes() == params.tobytes()
    assert np.array(res.losses).tobytes() == np.array(losses).tobytes()
    assert res.rng_counters == counters


@pytest.mark.parametrize("variant", ["ddpm", "cfg", "improved"])
def test_train_has_the_bits_of_steps_through_the_tape_form(variant):
    # unequal hidden widths run the proj layers, and T = 3 takes the hybrid
    # loss's decoder term at t = 1
    _, source = _oracle_case(variant, 2)
    head = HEAD_DUAL if variant == "improved" else HEAD_NOISE
    model = _model(head, hidden=(16, 32), classes=3 if variant == "cfg" else 0, seed=5)
    cfg = TrainConfig(gamma=0.01, J=8, N=30, p_uncond=0.3, seed=9)
    sched = cosine_schedule(3)
    assert 1 in RngStream(cfg.seed).split(1).integers(cfg.N, 1, sched.T + 1).tolist()
    res = train(model, source(), cfg, sched, variant)
    params, losses, counters = _oracle_train(model, source(), cfg, sched, variant)
    assert res.model.params.tobytes() == params.tobytes()
    assert np.array(res.losses).tobytes() == np.array(losses).tobytes()
    assert res.rng_counters == counters


@pytest.mark.parametrize("variant", ["ddpm", "cfg", "improved"])
def test_loss_and_grad_has_the_bits_of_the_tape_form(variant):
    head = HEAD_DUAL if variant == "improved" else HEAD_NOISE
    model = _model(head, hidden=(16, 32), d=3, classes=4 if variant == "cfg" else 0, seed=8)
    # train's own kind of model; a gradient entry left unwritten would stay nan
    own = DenoiserModel(model.arch, model.params.copy(), np.full(model.param_count, np.nan))
    sched = cosine_schedule(20)
    rng = RngStream(33)
    for J in (1, 5, 16):
        for t in (1, 2, sched.T):
            x0 = _quantize(0.5 * rng.normals(3 * J).reshape(J, 3))
            eps = rng.normals(3 * J).reshape(J, 3)
            cond = None
            if variant == "cfg":  # some rows dropped
                cond = np.eye(4)[np.arange(J) % 4] * (rng.uniforms(J) < 0.7)[:, None]
            value = loss_and_grad(own, x0, eps, t, sched, variant, cond, lam=0.3)
            leaf = ADTape().tensor(model.params)
            if variant == "improved":
                loss = hybrid_loss(model, None, x0, eps, t, sched, 0.3, cond, params=leaf)
            else:
                loss = simple_loss(model, x0, eps, t, sched, cond, params=leaf)
            assert _bits(value) == _bits(loss.value), (J, t)
            assert own.grads.tobytes() == grad(loss, [leaf])[0].tobytes(), (J, t)


def test_train_builds_no_tape(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("train built a tape")

    monkeypatch.setattr(autodiff.ADTape, "__init__", refuse)
    for variant in training.VARIANTS:
        model, source = _oracle_case(variant, 2)
        train(model, source(), TrainConfig(gamma=0.01, J=4, N=5, p_uncond=0.3, seed=3),
              linear_schedule(10), variant)


def test_train_memory_is_flat_in_the_step_count():
    # the draws of a block are bounded by BLOCK_DRAWS, not by N; both runs
    # are many blocks (8 steps each here) long, so each peak is taken past
    # the first block, with the forwards' arrays live
    model = _model(hidden=(8,), d=64, seed=3)
    sched = cosine_schedule(20)
    peaks = []
    for N in (200, 400):
        cfg = TrainConfig(gamma=0.001, J=16, N=N, seed=2)
        src = GaussianSource(3, center=np.zeros(64))
        train(model, src, TrainConfig(gamma=0.001, J=16, N=2, seed=2), sched)  # warm caches
        tracemalloc.start()
        try:
            train(model, src, cfg, sched)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_train_variant_validation():
    sched = linear_schedule(10)
    cfg = TrainConfig(gamma=0.01, J=2, N=1, seed=1)
    with pytest.raises(ConfigError):
        train(_model(), GaussianSource(1), cfg, sched, variant="nope")
    with pytest.raises(HeadMismatch):
        train(_model(HEAD_NOISE), GaussianSource(1), cfg, sched, variant="improved")
    with pytest.raises(ConfigError):
        train(_model(HEAD_NOISE), GaussianSource(1), cfg, sched, variant="cfg")


def test_train_improved_variant_runs_and_learns_nothing_nan():
    model = _model(HEAD_DUAL, hidden=(8,), seed=9)
    sched = cosine_schedule(10)
    src_rng = RngStream(50)
    x = _quantize(0.5 * src_rng.normals(400).reshape(200, 2))
    res = train(model, ArraySource(x), TrainConfig(gamma=0.005, J=8, N=20, seed=6),
                sched, variant="improved")
    assert len(res.losses) == 20
    assert all(np.isfinite(v) for v in res.losses)
    assert not np.array_equal(res.model.params, model.params)


def test_train_cfg_variant_consumes_mask_draws():
    model = _model(classes=3, seed=4)
    sched = linear_schedule(10)
    labels = np.arange(60) % 3
    x = 0.1 * RngStream(51).normals(120).reshape(60, 2)
    res = train(model, ArraySource(x, labels),
                TrainConfig(gamma=0.01, J=6, N=8, p_uncond=0.2, seed=2),
                sched, variant="cfg")
    assert res.rng_counters["mask"] == 8 * 6
    assert len(res.losses) == 8


def test_train_cfg_variant_needs_labels():
    model = _model(classes=3, seed=4)
    sched = linear_schedule(10)
    with pytest.raises(ConfigError):
        train(model, GaussianSource(1),
              TrainConfig(gamma=0.01, J=2, N=1, seed=1), sched, variant="cfg")


def test_train_smoothed_loss_non_increasing():
    model = _model(hidden=(32, 32), d_emb=8, seed=12)
    sched = cosine_schedule(50)
    cfg = TrainConfig(gamma=2e-3, J=16, N=1500, seed=21)
    res = train(model, GaussianSource(7), cfg, sched)
    first = float(np.mean(res.losses[:500]))
    last = float(np.mean(res.losses[-500:]))
    assert last <= first


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = _model(HEAD_DUAL, hidden=(8, 6), classes=4, seed=15)
    sched = cosine_schedule(25, s=0.01)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, sched, step=42, rng_counters={"t": 9, "eps": 18})
    ck = load_checkpoint(str(path))
    assert isinstance(ck, Checkpoint)
    assert ck.version == 1
    assert ck.step == 42
    assert ck.rng == {"t": 9, "eps": 18}
    assert ck.schedule == {"kind": "cosine", "T": 25, "s": 0.01}
    assert np.array_equal(ck.params32, model.params.astype(np.float32))

    back = model_from_checkpoint(ck)
    assert back.arch == model.arch
    sched_back = schedule_from_meta(ck.schedule)
    assert np.array_equal(sched_back.alpha, sched.alpha)


def test_checkpoint_32bit_fixed_point(tmp_path):
    # params already representable in 32 bits survive the round trip exactly,
    # and re-saving the loaded model reproduces the file byte for byte
    model = _model(seed=3)
    model = model.with_params(model.params.astype(np.float32).astype(np.float64))
    sched = linear_schedule(12)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), model, sched, step=0)
    back = model_from_checkpoint(load_checkpoint(str(p1)))
    assert np.array_equal(back.params, model.params)
    save_checkpoint(str(p2), back, sched, step=0)
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2


def test_checkpoint_saves_are_reproducible(tmp_path):
    model = _model(seed=8)
    sched = linear_schedule(15)
    p1, p2 = tmp_path / "x.ckpt", tmp_path / "y.ckpt"
    save_checkpoint(str(p1), model, sched, step=7, rng_counters={"t": 7})
    save_checkpoint(str(p2), model, sched, step=7, rng_counters={"t": 7})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTADDPM" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        load_checkpoint(str(path))


def test_failed_checkpoint_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), _model(seed=3), linear_schedule(12), step=1)
    old = path.read_bytes()

    class DiskFullAfterFirstWrite:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.f.write(data)

    files = []

    def failing_open(name, mode="r"):
        files.append(DiskFullAfterFirstWrite(open(name, mode)))
        return files[-1]

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(str(path), _model(seed=4), linear_schedule(12), step=2)
    assert [f.writes for f in files] == [2]
    assert files[0].f.name.startswith(str(tmp_path / "model.ckpt"))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_truncations(tmp_path):
    model = _model(seed=3)
    sched = linear_schedule(12)
    path = tmp_path / "full.ckpt"
    save_checkpoint(str(path), model, sched, step=1)
    raw = path.read_bytes()
    for cut in (4, 14, len(raw) // 2, len(raw) - 2):
        short = tmp_path / f"cut{cut}.ckpt"
        short.write_bytes(raw[:cut])
        with pytest.raises((BadMagic, TruncatedFile)):
            load_checkpoint(str(short))
