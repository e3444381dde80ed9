"""Evaluation suite: discrete KL, batched classifier-based score, Frechet
feature distance, PSNR, and patchwise SSIM.

The feature extractor is a small trainable classifier: its last hidden
layer provides the feature vectors and its softmax head the class
probabilities; FID and the score take those, so one feature pass serves
both. Sizes are configuration, not constants.
"""

import math

import numpy as np

from .errors import (BadMetadata, ConfigError, IndefiniteMatrix, NotSymmetric, OutOfRange,
                     ShapeMismatch)
from .fileio import read_container, write_container
from .numerics import ParamLayout, RngStream
from .numerics.kernels import row_blocks

# classifier probabilities are floored by smoothing so KL terms stay finite
PROB_SMOOTHING = 1e-12

SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


# ------------------------------------------------------------ feature model


def _feature_layout(d: int, hidden: tuple[int, ...], feature_dim: int,
                    num_classes: int) -> ParamLayout:
    if min(d, *hidden, feature_dim, num_classes) < 1:
        raise ConfigError(f"feature model sizes must be >= 1, got d {d}, hidden {list(hidden)}, "
                          f"feature_dim {feature_dim}, num_classes {num_classes}")
    affine, entries, prev = ParamLayout.affine, [], d
    for i, w in enumerate(hidden):
        entries += affine(f"h{i}.w", f"h{i}.b", prev, w)
        prev = w
    return ParamLayout(entries + affine("feat.w", "feat.b", prev, feature_dim)
                       + affine("cls.w", "cls.b", feature_dim, num_classes))


class FeatureModel:
    """Classifier whose last hidden layer doubles as the feature map."""

    def __init__(self, d: int, num_classes: int, feature_dim: int, hidden: tuple[int, ...],
                 params: np.ndarray):
        self.d = d
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.hidden = hidden
        self.params = params
        self._plan = _feature_layout(d, hidden, feature_dim, num_classes)
        self._blocks = self._plan.blocks(params)  # checks the length

    @staticmethod
    def initialized(d: int, num_classes: int, feature_dim: int,
                    hidden: tuple[int, ...], seed: int) -> "FeatureModel":
        params = _feature_layout(d, hidden, feature_dim, num_classes).init_uniform(seed)
        return FeatureModel(d, num_classes, feature_dim, hidden, params)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim == 1:
            h = h.reshape(1, -1)
        if h.shape[1] != self.d:
            raise ShapeMismatch(f"input width {h.shape[1]}, expected {self.d}")
        return h

    def _trunk(self, h: np.ndarray, inputs: list | None = None) -> np.ndarray:
        """The feature rows of input rows h, whole; with inputs (a list), also
        keeps each tanh layer's input rows for the backward."""
        for name in self._tanh_layers():
            if inputs is not None:
                inputs.append(h)
            h = np.tanh(np.add(np.matmul(h, self._blocks[name + ".w"]), self._blocks[name + ".b"]))
        return h

    def _tanh_layers(self) -> list[str]:
        return [f"h{i}" for i in range(len(self.hidden))] + ["feat"]

    def features(self, x: np.ndarray) -> np.ndarray:
        """(J, feature_dim) activations of the last hidden layer."""
        h = self._rows(x)
        return row_blocks(h.shape[0], self.feature_dim,
                          lambda rows, out: np.copyto(out, self._trunk(h[rows])))

    def probs(self, x: np.ndarray) -> np.ndarray:
        """(J, num_classes) smoothed class probabilities, strictly positive."""
        return self.class_probs(self.features(x))

    def class_probs(self, f: np.ndarray) -> np.ndarray:
        """probs of the inputs whose feature rows are f."""
        blk = self._blocks
        p = row_blocks(f.shape[0], self.num_classes, lambda rows, out: np.copyto(
            out, _softmax(np.add(np.matmul(f[rows], blk["cls.w"]), blk["cls.b"]))))
        return (p + PROB_SMOOTHING) / (1.0 + self.num_classes * PROB_SMOOTHING)

    def cross_entropy_grad(self, x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        """Flat gradient of the batch-mean softmax cross-entropy at onehot labels.

        The logits' adjoint is (softmax - onehot) / J; the rest backpropagates
        it through the classifier and tanh layers, writing each affine map's
        adjoints into its views of one fresh vector (ParamLayout.affine_adjoint).
        """
        p = self._blocks
        flat = np.empty(self._plan.total)
        gb = self._plan.blocks(flat)
        inputs: list[np.ndarray] = []
        h = self._trunk(self._rows(x), inputs)
        logits = np.add(np.matmul(h, p["cls.w"]), p["cls.b"])
        g = (_softmax(logits) - onehot) / h.shape[0]
        ParamLayout.affine_adjoint(gb, "cls.w", "cls.b", h, g)
        g = g @ p["cls.w"].T
        for name in reversed(self._tanh_layers()):
            g = g * (1.0 - h * h)
            h = inputs.pop()
            ParamLayout.affine_adjoint(gb, name + ".w", name + ".b", h, g)
            g = g @ p[name + ".w"].T
        return flat


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def train_feature_model(x: np.ndarray, labels: np.ndarray, num_classes: int,
                        feature_dim: int = 8, hidden: tuple[int, ...] = (16,),
                        steps: int = 300, gamma: float = 0.05, batch: int = 32,
                        seed: int = 0) -> FeatureModel:
    """Fit the classifier by SGD on softmax cross-entropy."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != labels.shape[0]:
        raise ShapeMismatch(f"{x.shape[0]} points vs {labels.shape[0]} labels")
    if x.shape[0] < 1:
        raise OutOfRange("need at least one training point")
    fm = FeatureModel.initialized(x.shape[1], num_classes, feature_dim, hidden, seed)
    rng = RngStream(seed).split(1)
    n = x.shape[0]
    for _ in range(steps):
        idx = rng.integers(min(batch, n), low=0, high=n)
        xb, yb = x[idx], labels[idx]
        onehot = np.eye(num_classes)[yb]
        # one model and layout for the whole fit: its own vector steps in place
        np.subtract(fm.params, gamma * fm.cross_entropy_grad(xb, onehot), out=fm.params)
    return fm


def save_feature_model(path: str, fm: FeatureModel) -> None:
    """The checkpoint container of denoisers, tagged kind=feature."""
    meta = {"d": fm.d, "feature_dim": fm.feature_dim, "hidden": list(fm.hidden),
            "kind": "feature", "num_classes": fm.num_classes}
    write_container(path, meta, fm.params)


def load_feature_model(path: str) -> FeatureModel:
    _, meta, params32 = read_container(path, "feature", {
        "d": int, "feature_dim": int, "hidden": list, "num_classes": int})
    if not all(type(w) is int for w in meta["hidden"]):
        raise BadMetadata(f"{path}: metadata key 'hidden' must list integers")
    try:
        return FeatureModel(meta["d"], meta["num_classes"], meta["feature_dim"],
                            tuple(meta["hidden"]), params32.astype(np.float64))
    except ConfigError as e:
        raise BadMetadata(f"{path}: feature model metadata unusable: {e}") from None


# ------------------------------------------------------------ divergences


def discrete_kl(v: np.ndarray, w: np.ndarray) -> float:
    """sum_i ln(v_i / w_i) v_i over strictly positive vectors."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ShapeMismatch(f"shapes {v.shape} vs {w.shape}")
    if np.any(v <= 0.0) or np.any(w <= 0.0):
        raise OutOfRange("divergence needs strictly positive entries")
    return float(np.sum(np.log(v / w) * v))


def inception_score(probs: np.ndarray, batches: int = 1) -> tuple[float, float]:
    """Per batch of classifier output rows probs (FeatureModel.probs), exp of
    the mean KL from each row to the batch average; returns (mean, std)
    across batches, std 0 for one batch."""
    probs = np.asarray(probs, dtype=np.float64)
    count = probs.shape[0]
    if batches < 1 or count < batches:
        raise ConfigError(f"cannot split {count} samples into {batches} batches")
    scores = []
    for p in np.array_split(probs, batches):
        avg = p.mean(axis=0)
        if np.any(p <= 0.0) or np.any(avg <= 0.0):
            raise OutOfRange("divergence needs strictly positive entries")
        # each row's discrete_kl(row, avg), as one row sum
        kls = np.sum(np.log(p / avg) * p, axis=1)
        scores.append(math.exp(float(np.mean(kls))))
    return float(np.mean(scores)), (float(np.std(scores, ddof=1)) if batches >= 2 else 0.0)


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric root S of a symmetric positive semidefinite m, by np.linalg.eigh:
    S @ S = m up to a Frobenius residual of 1e-8 (1 + ||m||_F). Eigenvalues in
    [-1e-6, 0) clamp to zero, lower ones are an error; a non-finite m fails the symmetry check."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a NaN, which fails it
        if m.size and not float(np.max(np.abs(m - m.T))) <= 1e-10:
            raise NotSymmetric("matrix is not symmetric within 1e-10")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if w.size and float(w[0]) < -1e-6:
        raise IndefiniteMatrix(f"eigenvalue {w[0]:.3e} below -1e-6")
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return 0.5 * (s + s.T)


def fid(gx: np.ndarray, gy: np.ndarray) -> float:
    """||mu_x - mu_y||^2 + tr(Sx) + tr(Sy) - 2 tr((Sx^1/2 Sy Sx^1/2)^1/2) on
    the feature rows gx and gy (FeatureModel.features of the two sample sets).

    Covariances use the K-1 normalization; they and Sx^1/2 Sy Sx^1/2 must be
    finite. The last trace is the sum of the square roots of the eigenvalues
    (eigvalsh) of the symmetrized Sx^1/2 Sy Sx^1/2, each clamped at zero."""
    gx, gy = np.asarray(gx, dtype=np.float64), np.asarray(gy, dtype=np.float64)
    if gx.shape[0] < 2 or gy.shape[0] < 2:
        raise OutOfRange("feature covariance needs at least 2 samples per set")
    with np.errstate(over="ignore", invalid="ignore"):  # a value not finite is refused below
        mu_x, mu_y = gx.mean(axis=0), gy.mean(axis=0)
        sx = np.cov(gx.T, ddof=1).reshape(gx.shape[1], gx.shape[1])
        sy = np.cov(gy.T, ddof=1).reshape(gy.shape[1], gy.shape[1])
    if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(sy))):
        raise OutOfRange("fid: a feature covariance is not finite")
    rx = spd_sqrt(sx)
    with np.errstate(over="ignore", invalid="ignore"):
        m = rx @ sy @ rx
    if not np.all(np.isfinite(m)):
        raise OutOfRange("fid: the product of the feature covariances overflows")
    cross = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(0.5 * (m + m.T)), 0.0)))
    gap = mu_x - mu_y
    return float(gap @ gap + np.trace(sx) + np.trace(sy) - 2.0 * cross)


# ------------------------------------------------------------ image quality

PSNR_CAP = 1e9
PIXEL_BLOCK = 1 << 14  # pixels of each input in one block of psnr and ssim


def _image_stacks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both inputs as (N, ...) stacks, and whether they were single images:
    an array of up to two dimensions is one image, a stack of one."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} vs {b.shape}")
    single = a.ndim < 3
    return (a[None], b[None], True) if single else (a, b, False)


def _blockwise(a: np.ndarray, b: np.ndarray, score) -> np.ndarray:
    """The (N,) values score gives the image pairs of the stacks a and b,
    scored in blocks of consecutive pairs of at most PIXEL_BLOCK pixels per
    input (one pair if it alone is larger). A pair's value depends on its
    own pixels only, so blocks keep every value's bits, and score's
    temporaries, freed as it returns, stay one block in size."""
    vals = np.empty(a.shape[0])
    step = max(1, PIXEL_BLOCK // max(1, math.prod(a.shape[1:])))
    for lo in range(0, a.shape[0], step):
        vals[lo:lo + step] = score(a[lo:lo + step], b[lo:lo + step])
    return vals


def psnr(a: np.ndarray, b: np.ndarray):
    """10 log10(1 / MSE) for unit-range images, infinite when identical: a
    float for one image, an (N,) array for an (N, h, w) stack, computed in
    float64 over blocks of PIXEL_BLOCK pixels."""
    a, b, single = _image_stacks(a, b)
    vals = _blockwise(a, b, _psnr_rows)
    return float(vals[0]) if single else vals


def _psnr_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.subtract(a, b, dtype=np.float64)
    mse = np.mean(np.square(d, out=d).reshape(d.shape[0], -1), axis=1)
    if not np.all(np.isfinite(mse)):
        raise OutOfRange("psnr: the squared error of an image pair is not finite")
    # math.log10, not np.log10, which can differ in the last bit
    return np.fromiter((10.0 * math.log10(1.0 / m) if m != 0.0 else math.inf
                        for m in mse.tolist()), dtype=np.float64, count=len(mse))


def ssim(a: np.ndarray, b: np.ndarray, window: int = 4):
    """Mean over non-overlapping patches of the three-term similarity
    ((2 mu_a mu_b + c1)(2 cov + c2)) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)).

    A float for one 2-D image, an (N,) array for an (N, h, w) stack,
    computed in float64 over blocks of PIXEL_BLOCK pixels. Patch moments use
    the K-1 normalization; each value lies in [-1, 1] and equals 1 exactly
    when the images coincide.
    """
    a, b, single = _image_stacks(a, b)
    if a.ndim != 3:
        raise ShapeMismatch("patch similarity expects 2-D images")
    _, h, w = a.shape
    if window < 2 or h % window or w % window:
        raise ConfigError(f"window {window} must tile image dims {(h, w)}")
    vals = _blockwise(a, b, lambda x, y: _ssim_rows(x, y, window))
    return float(vals[0]) if single else vals


def _ssim_rows(a: np.ndarray, b: np.ndarray, window: int) -> np.ndarray:
    count, h, w = a.shape
    # (N, patches, window * window)
    pa, pb = (np.asarray(x, dtype=np.float64)
              .reshape(count, h // window, window, w // window, window)
              .transpose(0, 1, 3, 2, 4).reshape(count, -1, window * window) for x in (a, b))
    n = pa.shape[2]
    mu_a, mu_b = pa.mean(axis=2), pb.mean(axis=2)
    # rebinding frees each uncentred copy, so fewer block-sized arrays coexist
    pa = pa - mu_a[..., None]
    pb = pb - mu_b[..., None]
    var_a = np.sum(pa * pa, axis=2) / (n - 1)
    var_b = np.sum(pb * pb, axis=2) / (n - 1)
    cov = np.sum(pa * pb, axis=2) / (n - 1)
    per_patch = ((2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)) / (
        (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2))
    return np.mean(per_patch, axis=1)
