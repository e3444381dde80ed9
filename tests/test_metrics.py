import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import tape_oracle
from conftest import child_env

from diffusionlab.errors import ConfigError, OutOfRange, ShapeMismatch
from diffusionlab.metrics import (
    PIXEL_BLOCK,
    PROB_SMOOTHING,
    SSIM_C1,
    SSIM_C2,
    FeatureModel,
    _feature_layout,
    _softmax,
    discrete_kl,
    fid,
    inception_score,
    psnr,
    ssim,
    train_feature_model,
)
from diffusionlab.numerics import ADTape, RngStream


class IdentityFeatures:
    """Pass-through feature map with a uniform classifier."""

    def __init__(self, num_classes=4):
        self.num_classes = num_classes

    def features(self, x):
        return np.asarray(x, dtype=np.float64)

    def probs(self, x):
        x = np.asarray(x)
        return np.full((x.shape[0], self.num_classes), 1.0 / self.num_classes)


class SignClassifier:
    """Near-one-hot outputs keyed to the sign of the first coordinate."""

    def __init__(self, eps=1e-6):
        self.eps = eps

    def probs(self, x):
        x = np.asarray(x)
        out = np.empty((x.shape[0], 2))
        for j in range(x.shape[0]):
            if x[j, 0] < 0:
                out[j] = (1.0 - self.eps, self.eps)
            else:
                out[j] = (self.eps, 1.0 - self.eps)
        return out

    def features(self, x):
        return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------- KL


def test_discrete_kl_zero_for_equal_vectors():
    v = np.array([0.2, 0.3, 0.5])
    assert discrete_kl(v, v) == 0.0


def test_discrete_kl_frozen_example():
    got = discrete_kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(0.143841, abs=1e-6)


def test_discrete_kl_nonnegative_on_probability_pairs():
    rng = RngStream(5)
    for _ in range(50):
        v = rng.uniforms(6) + 1e-3
        w = rng.uniforms(6) + 1e-3
        v, w = v / v.sum(), w / w.sum()
        assert discrete_kl(v, w) >= -1e-15


def test_discrete_kl_validation():
    good = np.array([0.5, 0.5])
    with pytest.raises(ShapeMismatch):
        discrete_kl(good, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(OutOfRange):
        discrete_kl(np.array([0.0, 1.0]), good)
    with pytest.raises(OutOfRange):
        discrete_kl(good, np.array([-0.1, 1.1]))


# ---------------------------------------------------------------- IS


def test_inception_score_uniform_classifier_is_exactly_one():
    samples = RngStream(1).normals(40).reshape(20, 2)
    assert inception_score(IdentityFeatures().probs(samples), batches=4) == (1.0, 0.0)


def test_inception_score_single_sample_is_one():
    assert inception_score(SignClassifier().probs(np.array([[0.3, -0.2]])), batches=1) == (1.0, 0.0)


def test_inception_score_two_sample_hand_oracle():
    # one sample per class: batch average (1/2, 1/2); each KL is
    # (1-e) ln 2(1-e) + e ln 2e, and the score exponentiates their mean
    eps = 1e-6
    samples = np.array([[-1.0, 0.0], [1.0, 0.0]])
    value, _ = inception_score(SignClassifier(eps).probs(samples), batches=1)
    kl = (1 - eps) * math.log(2 * (1 - eps)) + eps * math.log(2 * eps)
    assert value == pytest.approx(math.exp(kl), abs=1e-9)


def test_inception_score_at_least_one_for_any_classifier():
    fm = train_feature_model(np.array([[1.0, 0.0], [-1.0, 0.0]] * 10),
                             np.array([0, 1] * 10), num_classes=2, steps=20, seed=3)
    samples = RngStream(9).normals(60).reshape(30, 2)
    value, _ = inception_score(fm.probs(samples), batches=3)
    assert value >= 1.0 - 1e-12


def test_inception_score_empty_batch():
    samples = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        inception_score(IdentityFeatures().probs(samples), batches=4)
    with pytest.raises(ConfigError):
        inception_score(IdentityFeatures().probs(samples), batches=0)


class TableClassifier:
    """Row j of a fixed probability table for the sample whose first
    coordinate is j."""

    def __init__(self, table):
        self.table = table

    def probs(self, x):
        return self.table[np.asarray(x)[:, 0].astype(np.int64)]


def _oracle_inception_score(samples, fm, batches):
    """The per-row loop inception_score replaced: one discrete_kl per row."""
    scores = []
    for part in np.array_split(samples, batches):
        p = np.asarray(fm.probs(part))
        avg = p.mean(axis=0)
        kls = [discrete_kl(row, avg) for row in p]
        scores.append(math.exp(float(np.mean(kls))))
    std = float(np.std(scores, ddof=1)) if batches >= 2 else 0.0
    return float(np.mean(scores)), std


def test_inception_score_matches_the_per_row_loop():
    rng = RngStream(31)
    for case in range(60):
        rows = int(rng.integers(1, low=1, high=400)[0])
        classes = int(rng.integers(1, low=2, high=17)[0])
        batches = int(rng.integers(1, low=1, high=min(rows, 9) + 1)[0])
        # sharp rows (down to ~1e-13 per entry) and flat ones
        logits = (1.0 + 30.0 * (case % 3)) * rng.normals(rows * classes)
        table = np.exp(logits - logits.max()).reshape(rows, classes)
        table = (table + 1e-12) / (table + 1e-12).sum(axis=1, keepdims=True)
        samples = np.arange(rows, dtype=np.float64)[:, None]
        got = inception_score(TableClassifier(table).probs(samples), batches=batches)
        want = _oracle_inception_score(samples, TableClassifier(table), batches)
        assert got == want, (rows, classes, batches)


def test_inception_score_rejects_a_zero_probability():
    table = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(OutOfRange):
        inception_score(TableClassifier(table).probs(np.array([[0.0], [1.0]])))


# ---------------------------------------------------------------- FID


def _fid_eigen_oracle(x, y):
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    sx = np.cov(x.T, ddof=1)
    sy = np.cov(y.T, ddof=1)
    lx, vx = np.linalg.eigh(sx)
    rx = vx @ np.diag(np.sqrt(np.clip(lx, 0, None))) @ vx.T
    lm = np.linalg.eigvalsh(rx @ sy @ rx)
    cross = np.sum(np.sqrt(np.clip(lm, 0, None)))
    gap = mu_x - mu_y
    return float(gap @ gap + np.trace(sx) + np.trace(sy) - 2.0 * cross)


def test_fid_identical_sets_is_zero():
    x = RngStream(2).normals(100).reshape(50, 2)
    assert abs(fid(x, x.copy())) <= 1e-6


def test_fid_pure_mean_shift():
    x = RngStream(3).normals(200).reshape(100, 2)
    delta = np.array([0.7, -0.4])
    got = fid(x + delta, x)
    assert got == pytest.approx(float(delta @ delta), abs=1e-6)


def test_fid_matches_eigendecomposition_oracle():
    rng = RngStream(4)
    x = rng.normals(160).reshape(80, 2) @ np.array([[1.0, 0.3], [0.0, 0.7]])
    y = rng.normals(160).reshape(80, 2) @ np.array([[0.6, -0.2], [0.1, 1.1]]) + 0.5
    got = fid(x, y)
    assert got == pytest.approx(_fid_eigen_oracle(x, y), abs=1e-8)


def test_fid_symmetric_and_nonnegative():
    rng = RngStream(6)
    x = rng.normals(120).reshape(60, 2) * 1.4
    y = rng.normals(120).reshape(60, 2) + 0.3
    assert fid(x, y) == pytest.approx(
        fid(y, x), abs=1e-8)
    assert fid(x, y) >= -1e-8


def test_fid_on_a_near_singular_16_feature_covariance():
    # a 16-feature model whose feature covariance has a smallest eigenvalue
    # of about 1e-5: the matrix roots must converge well past the point
    # where the diagonal dominates. The reference is the same formula on
    # the float64 features, in 50-digit mpmath (eigsy for both roots).
    rng = np.random.default_rng(9)
    plan = _feature_layout(2, (32,), 16, 8)
    params = np.empty(plan.total)
    for name, start, stop, shape in plan.plan:
        fan_in = shape[0] if len(shape) == 2 else plan.offsets[name[:-2] + ".w"][1][0]
        params[start:stop] = rng.uniform(-2.0, 2.0, stop - start) / math.sqrt(fan_in)
    fm = FeatureModel(2, 8, 16, (32,), params)
    gen = rng.normal(size=(1000, 2)) * 0.3 + 0.05
    ref = rng.normal(size=(1000, 2)) * 0.3
    assert abs(fid(fm.features(gen), fm.features(ref)) - 0.0421616342232647769036616006685) <= 1e-9


def _pinned_features():
    """The feature rows of the near-singular 16-feature case above, built
    the same way."""
    rng = np.random.default_rng(9)
    plan = _feature_layout(2, (32,), 16, 8)
    params = np.empty(plan.total)
    for name, start, stop, shape in plan.plan:
        fan_in = shape[0] if len(shape) == 2 else plan.offsets[name[:-2] + ".w"][1][0]
        params[start:stop] = rng.uniform(-2.0, 2.0, stop - start) / math.sqrt(fan_in)
    fm = FeatureModel(2, 8, 16, (32,), params)
    gen = rng.normal(size=(1000, 2)) * 0.3 + 0.05
    ref = rng.normal(size=(1000, 2)) * 0.3
    return fm.features(gen), fm.features(ref)


_BITS_CHILD = """
import numpy as np
from diffusionlab.metrics import fid, spd_sqrt
from test_metrics import _pinned_features
gx, gy = _pinned_features()
print(fid(gx, gy).hex(), spd_sqrt(np.cov(gx.T, ddof=1)).tobytes().hex())
"""


def test_fid_and_spd_sqrt_have_the_same_bits_at_1_and_2_blas_threads():
    out = []
    for threads in ("1", "2"):
        env = child_env()
        env["PYTHONPATH"] = str(Path(__file__).parent) + os.pathsep + env["PYTHONPATH"]
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _BITS_CHILD], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert out[0] == out[1]
    gx, gy = _pinned_features()
    assert out[0][0] == fid(gx, gy).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_fid_refuses_features_whose_covariance_is_not_finite(bad):
    x = RngStream(8).normals(40).reshape(20, 2)
    y = x.copy()
    y[3, 1] = bad
    for gx, gy in ((x, y), (y, x)):
        with pytest.raises(OutOfRange, match="covariance is not finite"):
            fid(gx, gy)


def test_fid_refuses_a_feature_column_of_inf_and_minus_inf():
    # the column's mean is inf - inf; it is refused with the covariance, and
    # no RuntimeWarning comes first (tier-1 turns one into an error)
    x = RngStream(8).normals(40).reshape(20, 2)
    y = x.copy()
    y[3, 1], y[4, 1] = math.inf, -math.inf
    with pytest.raises(OutOfRange, match="covariance is not finite"):
        fid(x, y)


def test_fid_refuses_covariances_whose_product_overflows():
    # each covariance is finite (about 1e160), Sx^1/2 Sy Sx^1/2 is not
    rng = RngStream(8)
    x, y = (1e80 * rng.normals(40).reshape(20, 2) for _ in range(2))
    with pytest.raises(OutOfRange, match="overflows"):
        fid(x, y)


def test_fid_too_few_samples():
    with pytest.raises(OutOfRange):
        fid(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(OutOfRange):
        fid(np.zeros((5, 2)), np.zeros((1, 2)))


# ---------------------------------------------------------------- features


def test_feature_model_training_separates_clusters():
    rng = RngStream(11)
    n = 200
    half = rng.normals(2 * n).reshape(n, 2) * 0.3
    x = np.vstack([half[: n // 2] + (2.0, 0.0), half[n // 2 :] + (-2.0, 0.0)])
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    fm = train_feature_model(x, labels, num_classes=2, feature_dim=4,
                             hidden=(8,), steps=400, gamma=0.1, seed=1)
    p = fm.probs(x)
    assert np.all(p > 0.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10
    acc = float(np.mean(p.argmax(axis=1) == labels))
    assert acc >= 0.95
    assert fm.features(x).shape == (n, 4)


def test_feature_model_training_steps_one_vector_with_the_bits_of_fresh_models():
    # the fit keeps one model and steps its vector in place; the reference
    # builds a new model from a new vector every step
    rng = np.random.default_rng(3)
    x, labels = rng.normal(size=(200, 2)), rng.integers(0, 4, size=200)
    got = train_feature_model(x, labels, 4, feature_dim=3, hidden=(8, 5), steps=60, seed=5)
    fm = FeatureModel.initialized(2, 4, 3, (8, 5), 5)
    stream = RngStream(5).split(1)
    for _ in range(60):
        idx = stream.integers(32, low=0, high=200)
        step = 0.05 * fm.cross_entropy_grad(x[idx], np.eye(4)[labels[idx]])
        fm = FeatureModel(2, 4, 3, (8, 5), fm.params - step)
    assert got.params.tobytes() == fm.params.tobytes()


def test_feature_model_zero_params_is_uniform():
    fm = FeatureModel.initialized(2, 5, 4, (6,), 0)
    fm = FeatureModel(2, 5, 4, (6,), np.zeros_like(fm.params))
    p = fm.probs(np.array([[0.4, -1.0]]))
    assert np.allclose(p, 0.2, atol=1e-12)
    value, _ = inception_score(fm.probs(RngStream(1).normals(20).reshape(10, 2)), batches=2)
    assert value == 1.0


@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025, 4000])
def test_blocked_features_and_probs_have_the_bits_of_one_whole_pass(n):
    # the rows run in 512-row blocks; one _trunk pass over all rows gives
    # the same bits, and a lone row those of row 0 of a pass over 8 copies
    fm = FeatureModel.initialized(2, 8, 4, (32,), 5)
    x = np.random.default_rng(n).normal(size=(n, 2))
    rows = x if n > 1 else np.repeat(x, 8, axis=0)
    whole = fm._trunk(rows)
    logits = np.add(np.matmul(whole, fm._blocks["cls.w"]), fm._blocks["cls.b"])
    p = (_softmax(logits) + PROB_SMOOTHING) / (1.0 + 8 * PROB_SMOOTHING)
    assert fm.features(x).tobytes() == whole[:n].tobytes()
    assert fm.probs(x).tobytes() == p[:n].tobytes()
    assert fm.class_probs(fm.features(x)).tobytes() == p[:n].tobytes()


def test_feature_memory_is_its_result_not_the_hidden_width():
    # 4 features are 32 B a row; a whole pass would hold (rows, 32)
    # intermediates, about 600 B a row
    fm = FeatureModel.initialized(2, 8, 4, (32,), 5)
    peaks = {}
    for n in (4000, 16000):
        x = np.random.default_rng(n).normal(size=(n, 2))
        fm.features(x)
        tracemalloc.start()
        try:
            fm.features(x)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[16000] - peaks[4000]) / 12000 < 64, peaks


@pytest.mark.parametrize("hidden", [(), (6,), (8, 5)])
def test_feature_model_gradient_matches_the_composed_tape(hidden):
    # the closed-form cross-entropy adjoint (p - onehot)/J against the
    # composed softmax, ln, mul and sum nodes of the oracle tape
    rng = np.random.default_rng(3)
    fm = FeatureModel.initialized(3, 4, 5, hidden, seed=2)
    for batch in (1, 16):
        x = rng.normal(size=(batch, 3))
        onehot = np.eye(4)[rng.integers(0, 4, size=batch)]
        tape = ADTape()
        leaf = tape.tensor(fm.params)
        want = tape_oracle.grad(tape_oracle.feature_cross_entropy(fm, x, onehot, leaf), [leaf])[0]
        got = fm.cross_entropy_grad(x, onehot)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_feature_model_shape_validation():
    fm = FeatureModel.initialized(2, 3, 4, (6,), 0)
    with pytest.raises(ShapeMismatch):
        fm.probs(np.zeros((4, 3)))
    with pytest.raises(ShapeMismatch):
        FeatureModel(2, 3, 4, (6,), np.zeros(7))
    with pytest.raises(ShapeMismatch):
        train_feature_model(np.zeros((4, 2)), np.zeros(3), num_classes=2)
    # d, num_classes, feature_dim, hidden: each size below 1 is refused
    for sizes in ((0, 3, 4, (6,)), (2, 0, 4, (6,)), (2, 3, 0, (6,)), (2, 3, 4, (6, 0))):
        with pytest.raises(ConfigError, match="feature model sizes must be >= 1"):
            FeatureModel.initialized(*sizes, 0)


# ---------------------------------------------------------------- PSNR


def test_psnr_identical_images_infinite():
    a = RngStream(7).uniforms(64).reshape(8, 8)
    assert psnr(a, a.copy()) == math.inf


def test_psnr_constant_offset_twenty_db():
    a = np.full((8, 8), 0.3)
    b = np.full((8, 8), 0.4)
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)


def test_psnr_refuses_an_overflowing_squared_error():
    a = np.array([[1e200, 0.5]])
    with np.errstate(over="ignore"), pytest.raises(OutOfRange, match="squared error"):
        psnr(a, -a)


def test_psnr_symmetry_and_shape_check():
    rng = RngStream(8)
    a = rng.uniforms(64).reshape(8, 8)
    b = rng.uniforms(64).reshape(8, 8)
    assert psnr(a, b) == psnr(b, a)
    with pytest.raises(ShapeMismatch):
        psnr(a, np.zeros((4, 4)))


def _oracle_psnr(a, b):
    """The per-image PSNR the stacked one replaced."""
    mse = float(np.mean((a - b) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def _random_stacks(seed, count, shape, same_every=0):
    rng = RngStream(seed)
    size = count * int(np.prod(shape))
    a = rng.uniforms(size).reshape(count, *shape)
    b = rng.uniforms(size).reshape(count, *shape)
    if same_every:
        b[::same_every] = a[::same_every]
    return a, b


@pytest.mark.parametrize("count, shape", [(1, (8, 8)), (7, (1, 5)), (40, (16, 16)),
                                          (300, (1, 64)), (13, (6, 9))])
def test_psnr_stack_matches_per_image_loop(count, shape):
    a, b = _random_stacks(60 + count, count, shape, same_every=3)
    got = psnr(a, b)
    want = np.array([_oracle_psnr(x, y) for x, y in zip(a, b)])
    assert got.shape == (count,) and got.tobytes() == want.tobytes()
    assert np.all(got[::3] == math.inf)
    assert psnr(a[0], b[0]) == _oracle_psnr(a[0], b[0])


@pytest.mark.parametrize("score", [psnr, lambda a, b: ssim(a, b, window=4)],
                         ids=["psnr", "ssim"])
def test_image_scores_hold_one_pixel_block(score):
    # the first count of 16x16 images fills one block; ten times the pairs
    # cost only their results
    peaks = []
    for count in (PIXEL_BLOCK // 256, 10 * PIXEL_BLOCK // 256):
        a, b = _random_stacks(90, count, (16, 16))
        score(a, b)
        tracemalloc.start()
        try:
            vals = score(a, b)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + vals.nbytes, peaks


# ---------------------------------------------------------------- SSIM


def test_ssim_self_similarity_is_exactly_one():
    a = RngStream(9).uniforms(64).reshape(8, 8)
    assert ssim(a, a.copy(), window=4) == 1.0


def test_ssim_inversion_lowers_similarity():
    a = RngStream(10).uniforms(64).reshape(8, 8)
    assert ssim(a, 1.0 - a, window=4) < 1.0


def _ssim_patch_loop_oracle(a, b, window, c1, c2):
    vals = []
    for r in range(0, a.shape[0], window):
        for c in range(0, a.shape[1], window):
            pa = a[r : r + window, c : c + window].ravel()
            pb = b[r : r + window, c : c + window].ravel()
            n = pa.size
            ma = sum(pa) / n
            mb = sum(pb) / n
            va = sum((x - ma) ** 2 for x in pa) / (n - 1)
            vb = sum((x - mb) ** 2 for x in pb) / (n - 1)
            cov = sum((x - ma) * (y - mb) for x, y in zip(pa, pb)) / (n - 1)
            vals.append(((2 * ma * mb + c1) * (2 * cov + c2))
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return sum(vals) / len(vals)


def test_ssim_checkerboard_shift_matches_patch_oracle():
    board = np.indices((8, 8)).sum(axis=0) % 2
    shifted = np.roll(board, 1, axis=1)
    got = ssim(board.astype(float), shifted.astype(float), window=4)
    want = _ssim_patch_loop_oracle(board.astype(float), shifted.astype(float),
                                   4, SSIM_C1, SSIM_C2)
    assert got == pytest.approx(want, abs=1e-10)
    assert -1.0 <= got <= 1.0


def test_ssim_random_images_in_range_and_validated():
    rng = RngStream(12)
    a = rng.uniforms(144).reshape(12, 12)
    b = rng.uniforms(144).reshape(12, 12)
    v = ssim(a, b, window=3)
    assert -1.0 <= v <= 1.0
    with pytest.raises(ConfigError):
        ssim(a, b, window=5)
    with pytest.raises(ShapeMismatch, match="expects 2-D images"):
        ssim(a.ravel(), b.ravel(), window=4)
    with pytest.raises(ShapeMismatch):
        ssim(a, np.zeros((6, 6)), window=3)


def _oracle_ssim(a, b, window, c1=SSIM_C1, c2=SSIM_C2):
    """The per-image SSIM the stacked one replaced."""
    h, w = a.shape
    pa, pb = (x.reshape(h // window, window, w // window, window)
              .transpose(0, 2, 1, 3).reshape(-1, window * window) for x in (a, b))
    n = pa.shape[1]
    mu_a, mu_b = pa.mean(axis=1), pb.mean(axis=1)
    da, db = pa - mu_a[:, None], pb - mu_b[:, None]
    var_a = np.sum(da * da, axis=1) / (n - 1)
    var_b = np.sum(db * db, axis=1) / (n - 1)
    cov = np.sum(da * db, axis=1) / (n - 1)
    per_patch = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(np.mean(per_patch))


@pytest.mark.parametrize("count, shape, window", [(1, (8, 8), 4), (5, (12, 12), 3),
                                                  (300, (16, 16), 4), (9, (6, 10), 2),
                                                  (20, (12, 18), 3), (30, (10, 15), 5),
                                                  (4, (8, 8), 8)])
def test_ssim_stack_matches_per_image_loop(count, shape, window):
    a, b = _random_stacks(70 + count, count, shape, same_every=2)
    got = ssim(a, b, window=window)
    want = np.array([_oracle_ssim(x, y, window) for x, y in zip(a, b)])
    assert got.shape == (count,) and got.tobytes() == want.tobytes()
    assert np.all(got[::2] == 1.0)
    assert ssim(a[-1], b[-1], window=window) == want[-1]


def test_ssim_stack_validation():
    a, b = _random_stacks(80, 3, (8, 8))
    with pytest.raises(ShapeMismatch):
        ssim(a, b[:2], window=4)
    with pytest.raises(ConfigError):
        ssim(a, b, window=3)
    with pytest.raises(ShapeMismatch, match="expects 2-D images"):
        ssim(a[None], b[None], window=4)
