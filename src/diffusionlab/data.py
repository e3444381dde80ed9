"""Desk-scale data sources: synthetic Gaussian mixtures, IDX image files,
and quantization onto the 256-level training grid in [-1, 1].
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagic, DataExhausted, OutOfRange, ShapeMismatch, TruncatedFile
from .forward import grid_level, grid_value
from .numerics import RngStream, kernels
from .numerics.rng import BLOCK_DRAWS, words_to_integers

# refuse to allocate beyond this many pixels from an untrusted header
MAX_IDX_ELEMENTS = 1 << 28

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix with optional class labels."""

    samples: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2:
            raise OutOfRange(f"samples must be (count, d), got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise OutOfRange("samples must be finite")
        object.__setattr__(self, "samples", samples)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (samples.shape[0],):
                raise ShapeMismatch(
                    f"{labels.shape[0]} labels for {samples.shape[0]} samples")
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise OutOfRange(f"labels must lie in 0..{self.num_classes - 1}")
            object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


class DatasetCursor:
    """Sequential reader over a dataset for the training loop."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.pos = 0

    def take(self, k: int):
        if self.pos + k > self.dataset.count:
            raise DataExhausted(
                f"need {k} points, {self.dataset.count - self.pos} left")
        sl = slice(self.pos, self.pos + k)
        self.pos += k
        labels = None if self.dataset.labels is None else self.dataset.labels[sl].copy()
        return self.dataset.samples[sl].copy(), labels


class MixtureSampler:
    """Endless stream from an isotropic Gaussian mixture with uniform weights.

    take(k) has the bits of rng.integers(k, 0, centers) then rng.normals(k*d).
    A take that repeats the last k reads the next takes of that k ahead, up
    to BLOCK_DRAWS draws in one pass; rng.counter reads what was consumed.
    """

    def __init__(self, centers, sigma: float, rng: RngStream):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise OutOfRange("mixture needs at least one center point")
        if not (np.all(np.isfinite(centers)) and np.isfinite(sigma)):
            raise OutOfRange(f"mixture centers and scale must be finite, got scale {sigma}")
        if sigma <= 0.0:
            raise OutOfRange(f"mixture scale must be > 0, got {sigma}")
        self.centers = centers
        self.sigma = float(sigma)
        self.rng = rng
        # takes drawn ahead, the next one's row, the (k, seed, counter) they follow
        self._x, self._idx, self._row, self._next = None, (), 0, (0, None, None)

    def take(self, k: int):
        c, d = self.centers.shape
        rng, stride = self.rng, k * (1 + 2 * d)
        if self._row == len(self._idx) or (k, rng.seed, rng.counter) != self._next:
            m = max(1, BLOCK_DRAWS // max(1, k * (1 + d))) if k == self._next[0] else 1
            keys = rng.block_keys(m, stride)
            self._idx, self._row = words_to_integers(kernels.words(keys, k), 0, c), 0
            noise = np.empty((m, k * d))
            kernels.normals_rows(keys, k, noise)
            self._x = self.centers[self._idx] + self.sigma * noise.reshape(m, k, d)
        rng.counter += stride
        self._next = (k, rng.seed, rng.counter)
        self._row += 1
        return self._x[self._row - 1], self._idx[self._row - 1]


# ------------------------------------------------------------ quantization


def quantize_to_grid(x: np.ndarray) -> np.ndarray:
    """Snap values in [-1, 1] to the nearest of the 256 byte levels."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < -1.0) or np.any(x > 1.0) or not np.all(np.isfinite(x)):
        raise OutOfRange("quantization input must lie in [-1, 1]")
    return grid_value(grid_level(x))


# ------------------------------------------------------------ IDX files


def _read_header(raw: bytes, path: str, expected_magic: int):
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: shorter than its magic number")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic {raw[:4].hex()} not a supported layout")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise TruncatedFile(f"{path}: header needs {header_len} bytes, file has {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    total = 1
    for dim in dims:
        total *= dim
    if total > MAX_IDX_ELEMENTS:
        raise OutOfRange(f"{path}: {total} elements exceed the {MAX_IDX_ELEMENTS} cap")
    if len(raw) != header_len + total:
        raise TruncatedFile(
            f"{path}: payload is {len(raw) - header_len} bytes, header promises {total}")
    return dims, raw[header_len:]


def idx_read(path: str, labels_path: str | None = None) -> Dataset:
    """Load an IDX image file, mapping bytes onto the [-1, 1] grid exactly."""
    raw = Path(path).read_bytes()
    dims, payload = _read_header(raw, path, _IDX_IMAGE_MAGIC)
    count, rows, cols = dims
    if count == 0:
        raise OutOfRange(f"{path}: holds no images")
    if rows * cols == 0:
        raise OutOfRange(f"{path}: image size {cols}x{rows} is not at least 1x1")
    samples = grid_value(np.frombuffer(payload, dtype=np.uint8)).reshape(count, rows * cols)

    labels = None
    num_classes = 0
    if labels_path is not None:
        lraw = Path(labels_path).read_bytes()
        (lcount,), lpayload = _read_header(lraw, labels_path, _IDX_LABEL_MAGIC)
        if lcount != count:
            raise ShapeMismatch(f"{lcount} labels for {count} images")
        labels = np.frombuffer(lpayload, dtype=np.uint8).astype(np.int64)
        num_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(samples, labels, num_classes)
