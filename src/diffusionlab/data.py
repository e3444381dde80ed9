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
    """Immutable image levels with optional class labels.

    levels is a read-only (count, d) uint8 matrix, one row of grid levels
    (an IDX file's pixel bytes) per sample; a sample's values are
    forward.grid_value of its row, made a take at a time by DatasetCursor,
    so the dataset holds one byte per pixel.
    """

    levels: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int = 0

    def __post_init__(self):
        levels = self.levels
        if not (isinstance(levels, np.ndarray) and levels.dtype == np.uint8 and levels.ndim == 2):
            raise OutOfRange("levels must be a (count, d) uint8 matrix, got "
                             f"{getattr(levels, 'dtype', type(levels).__name__)} "
                             f"of shape {np.shape(levels)}")
        levels = levels.view()
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (levels.shape[0],):
                raise ShapeMismatch(
                    f"{labels.shape[0]} labels for {levels.shape[0]} samples")
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise OutOfRange(f"labels must lie in 0..{self.num_classes - 1}")
            object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.levels.shape[0]

    @property
    def d(self) -> int:
        return self.levels.shape[1]


class DatasetCursor:
    """Sequential reader over a dataset for the training loop: take(k)
    returns the next k samples as new float64 grid values (grid_value of
    their k level rows alone) and a copy of their labels."""

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
        return grid_value(self.dataset.levels[sl]), labels


class MixtureSampler:
    """Endless stream from an isotropic Gaussian mixture with uniform weights.

    take(k) has the bits of rng.integers(k, 0, centers) then rng.normals(k*d).
    A take that repeats the last k reads the next takes of that k ahead, up
    to BLOCK_DRAWS draws in one pass, if k % 4 == 0, so that each take's
    k(1 + 2d) counters keep the phase kernels.normals_rows asks of its keys.
    rng.counter reads what was consumed.
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
            ahead = k == self._next[0] and k % 4 == 0
            m = max(1, BLOCK_DRAWS // max(1, k * (1 + d))) if ahead else 1
            keys = rng.block_keys(m, stride)
            self._idx, self._row = words_to_integers(kernels.words(keys, k), 0, c), 0
            noise = np.empty((m, k * d))
            # the counter goes in whole: the keys may fold in only multiples of 4
            kernels.normals_rows(RngStream(rng.seed).block_keys(m, stride), rng.counter + k, noise)
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
    """The dimensions an IDX file's header gives and the header's length;
    the payload after it must hold exactly their product of bytes."""
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
    return dims, header_len


def idx_read(path: str, labels_path: str | None = None) -> Dataset:
    """Load an IDX image file as a Dataset of its pixel bytes, which stay
    the file's own bytes (a read-only view, no copy); each byte k is the
    grid value -1 + 2k/255 exactly."""
    raw = Path(path).read_bytes()
    (count, rows, cols), offset = _read_header(raw, path, _IDX_IMAGE_MAGIC)
    if count == 0:
        raise OutOfRange(f"{path}: holds no images")
    if rows * cols == 0:
        raise OutOfRange(f"{path}: image size {cols}x{rows} is not at least 1x1")
    levels = np.frombuffer(raw, np.uint8, offset=offset).reshape(count, rows * cols)

    labels = None
    num_classes = 0
    if labels_path is not None:
        lraw = Path(labels_path).read_bytes()
        (lcount,), loffset = _read_header(lraw, labels_path, _IDX_LABEL_MAGIC)
        if lcount != count:
            raise ShapeMismatch(f"{lcount} labels for {count} images")
        labels = np.frombuffer(lraw, np.uint8, offset=loffset).astype(np.int64)
        num_classes = int(labels.max()) + 1
    return Dataset(levels, labels, num_classes)
