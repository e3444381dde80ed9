"""Independent numpy computations the benchmark checks the program against.

Nothing here imports diffusionlab: the denoiser and feature networks are
evaluated from their documented layouts, file formats are parsed from raw
bytes or with np.loadtxt, and matrix roots come from np.linalg.eigh.
"""

import json
import struct
from pathlib import Path

import numpy as np

CKPT_MAGIC = b"DDPMCKPT"
PROB_SMOOTHING = 1e-12
PSNR_CAP = 1e9
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
GN_EPS = 1e-5


# ------------------------------------------------------------ containers


def read_container(path) -> tuple[dict, np.ndarray]:
    """(metadata, float64 parameters) of a checkpoint file."""
    raw = Path(path).read_bytes()
    if raw[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: wrong magic")
    meta_len = struct.unpack_from("<I", raw, 12)[0]
    meta = json.loads(raw[16:16 + meta_len].decode("utf-8"))
    block = raw[16 + meta_len:]
    if len(block) != 4 * int(meta["param_count"]):
        raise ValueError(f"{path}: parameter block has {len(block)} bytes, "
                         f"expected {4 * int(meta['param_count'])}")
    return meta, np.frombuffer(block, dtype="<f4").astype(np.float64)


def write_feature_container(path, d, hidden, feature_dim, num_classes, params) -> None:
    meta = {"d": d, "feature_dim": feature_dim, "hidden": list(hidden), "kind": "feature",
            "num_classes": num_classes, "param_count": int(params.size)}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(path).write_bytes(CKPT_MAGIC + struct.pack("<II", 1, len(blob)) + blob
                           + params.astype("<f4").tobytes())


def _unpack(params: np.ndarray, shapes) -> dict[str, np.ndarray]:
    out, offset = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        out[name] = params[offset:offset + size].reshape(shape)
        offset += size
    if offset != params.size:
        raise ValueError(f"layout covers {offset} of {params.size} parameters")
    return out


# ------------------------------------------------------------ denoiser


def denoiser_shapes(arch: dict):
    d, hidden, d_emb = arch["d"], arch["hidden"], arch["d_emb"]
    cond = arch.get("conditioning")
    out_dim = 2 * d if arch["head"] == "noise+variance" else d
    shapes = [("input.w", (d, hidden[0])), ("input.b", (hidden[0],))]
    prev = hidden[0]
    for k, w in enumerate(hidden):
        if k > 0 and prev != w:
            shapes += [(f"block{k}.proj.w", (prev, w)), (f"block{k}.proj.b", (w,))]
        shapes += [(f"block{k}.time.w", (d_emb, w)), (f"block{k}.time.b", (w,))]
        if cond is not None:
            shapes += [(f"block{k}.cls.w", (cond["num_classes"], 2 * w)),
                       (f"block{k}.cls.b", (2 * w,))]
        shapes += [(f"block{k}.core.w1", (w, w)), (f"block{k}.core.b1", (w,)),
                   (f"block{k}.core.w2", (w, w)), (f"block{k}.core.b2", (w,))]
        prev = w
    shapes += [("head.w", (prev, out_dim)), ("head.b", (out_dim,))]
    return shapes


def denoiser_forward(arch: dict, params: np.ndarray, x: np.ndarray, t: int, cond=None):
    """(eps_hat, v2) of the residual MLP; v2 is None for a noise-only head."""
    p = _unpack(params, denoiser_shapes(arch))
    c = arch["d_emb"] // 2
    angles = t * 10000.0 ** (-np.arange(1, c + 1) / (c - 1))
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    h = x @ p["input.w"] + p["input.b"]
    for k, w in enumerate(arch["hidden"]):
        if f"block{k}.proj.w" in p:
            h = h @ p[f"block{k}.proj.w"] + p[f"block{k}.proj.b"]
        h = h + (emb @ p[f"block{k}.time.w"] + p[f"block{k}.time.b"])
        if cond is not None:
            y = np.broadcast_to(cond, (x.shape[0], cond.shape[-1])) @ p[f"block{k}.cls.w"] \
                + p[f"block{k}.cls.b"]
            centered = h - h.mean(axis=1, keepdims=True)
            normed = centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + GN_EPS)
            h = y[:, :w] * normed + y[:, w:]
        inner = np.tanh(h @ p[f"block{k}.core.w1"] + p[f"block{k}.core.b1"])
        h = h + (inner @ p[f"block{k}.core.w2"] + p[f"block{k}.core.b2"])
    out = h @ p["head.w"] + p["head.b"]
    d = arch["d"]
    if arch["head"] == "noise+variance":
        return out[:, :d], np.tanh(out[:, d:])
    return out, None


# ------------------------------------------------------------ feature model


def feature_shapes(d, hidden, feature_dim, num_classes):
    shapes, prev = [], d
    for i, w in enumerate(hidden):
        shapes += [(f"h{i}.w", (prev, w)), (f"h{i}.b", (w,))]
        prev = w
    return shapes + [("feat.w", (prev, feature_dim)), ("feat.b", (feature_dim,)),
                     ("cls.w", (feature_dim, num_classes)), ("cls.b", (num_classes,))]


def feature_forward(meta: dict, params: np.ndarray, x: np.ndarray):
    """(features, smoothed class probabilities) of the feature classifier."""
    p = _unpack(params, feature_shapes(meta["d"], meta["hidden"], meta["feature_dim"],
                                       meta["num_classes"]))
    h = x
    for i in range(len(meta["hidden"])):
        h = np.tanh(h @ p[f"h{i}.w"] + p[f"h{i}.b"])
    f = np.tanh(h @ p["feat.w"] + p["feat.b"])
    logits = f @ p["cls.w"] + p["cls.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    k = meta["num_classes"]
    return f, (probs + PROB_SMOOTHING) / (1.0 + k * PROB_SMOOTHING)


def _sqrtm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def fid(meta, params, gen, ref) -> float:
    fx, _ = feature_forward(meta, params, gen)
    fy, _ = feature_forward(meta, params, ref)
    sx, sy = np.cov(fx.T, ddof=1), np.cov(fy.T, ddof=1)
    rx = _sqrtm(sx)
    gap = fx.mean(axis=0) - fy.mean(axis=0)
    return float(gap @ gap + np.trace(sx) + np.trace(sy) - 2.0 * np.trace(_sqrtm(rx @ sy @ rx)))


def inception_score(meta, params, gen, batches: int) -> tuple[float, float]:
    """(mean, std across batches) of exp(mean KL(p(y|x) || p(y)))."""
    _, probs = feature_forward(meta, params, gen)
    scores = []
    for part in np.array_split(probs, batches):
        kl = np.sum(part * np.log(part / part.mean(axis=0)), axis=1)
        scores.append(np.exp(kl.mean()))
    return float(np.mean(scores)), float(np.std(scores, ddof=1)) if batches >= 2 else 0.0


# ------------------------------------------------------------ images


def read_pgm_dir(path) -> np.ndarray:
    """(count, h*w) images on the [-1, 1] byte grid, files in name order."""
    rows = []
    for name in sorted(Path(path).glob("*.pgm")):
        raw = name.read_bytes()
        head = raw.split(maxsplit=4)
        if head[0] != b"P5" or head[3] != b"255":
            raise ValueError(f"{name}: not an 8-bit binary PGM")
        w, h = int(head[1]), int(head[2])
        pixels = np.frombuffer(raw[len(raw) - w * h:], dtype=np.uint8)
        rows.append(-1.0 + (2.0 / 255.0) * pixels.astype(np.float64))
    return np.stack(rows)


def psnr_rows(gen: np.ndarray, ref: np.ndarray) -> np.ndarray:
    mse = np.mean((gen - ref) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        return np.where(mse == 0.0, PSNR_CAP, 10.0 * np.log10(1.0 / mse))


def ssim_rows(gen: np.ndarray, ref: np.ndarray, window: int) -> np.ndarray:
    side = int(round(np.sqrt(gen.shape[1])))

    def patches(x):
        n = x.shape[0]
        return (x.reshape(n, side // window, window, side // window, window)
                .transpose(0, 1, 3, 2, 4).reshape(n, -1, window * window))

    a, b = patches(gen), patches(ref)
    k = window * window
    mu_a, mu_b = a.mean(axis=2), b.mean(axis=2)
    da, db = a - mu_a[..., None], b - mu_b[..., None]
    var_a, var_b = (da**2).sum(axis=2) / (k - 1), (db**2).sum(axis=2) / (k - 1)
    cov = (da * db).sum(axis=2) / (k - 1)
    s = ((2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2))
    return s.mean(axis=1)


def mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1)) if values.size > 1 else 0.0


# ------------------------------------------------------------ Gaussian target


def gaussian_eps(mu: np.ndarray, cov: np.ndarray, abar):
    """The exact noise predictor of N(mu, cov) data: at step t,
    x_t ~ N(sqrt(abar_t) mu, abar_t cov + (1 - abar_t) I), and
    eps_hat = sqrt(1 - abar_t) C_t^{-1} (x_t - sqrt(abar_t) mu)."""
    eye = np.eye(mu.size)

    def eps_fn(x, t):
        ab = abar(t)
        prec = np.linalg.inv(ab * cov + (1.0 - ab) * eye)
        return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * mu) @ prec

    return eps_fn
