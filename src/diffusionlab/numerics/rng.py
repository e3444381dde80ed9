"""Deterministic, splittable random number streams.

A stream is fully described by (seed, counter): output j is a pure function
of the seed-derived key and the absolute counter j, so identical prefixes
are bitwise identical across process restarts and independent of how draws
were batched. `split` derives a child stream whose seed mixes in a tag, so
training, data, and per-chain sampling streams never alias.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import kernels
from .kernels import _GOLDEN, _INV53, _S11, _U64, mix64

_KEY_SALT = 0x7F4A7C159E3779B9
_SPLIT_SALT = 0xD1B54A32D192ED03

BLOCK_DRAWS = 8192  # draws per pass over a block of steps: 64 KB arrays


def require_seed(seed: int) -> None:
    """Refuse a run seed outside 0 ... 2**64 - 1, which RngStream would mask."""
    if not 0 <= seed <= _U64:
        raise ConfigError(f"seed must lie in 0 ... 2**64 - 1, got {seed}")


def _key(seed: int) -> int:
    return mix64((seed & _U64) ^ _KEY_SALT)


@dataclass
class RngStream:
    """Counter-based generator state. Both fields are 64-bit values."""

    seed: int
    counter: int = 0

    def split(self, tag: int) -> "RngStream":
        """Child stream at counter 0; distinct tags give independent streams."""
        child_seed = mix64(_key(self.seed) ^ mix64((tag & _U64) ^ _SPLIT_SALT))
        return RngStream(child_seed, 0)

    def raw(self, n: int) -> np.ndarray:
        """n raw uint64 words; advances the counter by n."""
        out = kernels.words(self.block_keys(1, n), n)[0]
        self.counter += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); one counter each."""
        return _uniforms(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller; two counters each."""
        out = np.empty(n, dtype=np.float64)
        kernels.normals_rows(self.block_keys(1, 0), 0, out.reshape(1, n))
        self.counter += 2 * n
        return out

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n ints uniform on {low, ..., high - 1}; one counter each."""
        if high <= low:
            raise ValueError("integers needs high > low")
        return words_to_integers(self.raw(n), low, high)

    def bernoulli(self, n: int, p_one: float) -> np.ndarray:
        """n draws in {0, 1} with P(1) = p_one; one counter each."""
        return (self.uniforms(n) < p_one).astype(np.int64)

    def block_keys(self, m: int, stride: int) -> np.ndarray:
        """Keys (key + (counter + s*stride) * GOLDEN) mod 2**64 for s < m, the
        starts of m blocks of stride counters, for kernels.words and normals_rows."""
        start = np.uint64((_key(self.seed) + self.counter * _GOLDEN) & _U64)
        return start + np.arange(m, dtype=np.uint64) * np.uint64(stride * _GOLDEN & _U64)


def _uniforms(bits: np.ndarray) -> np.ndarray:
    return (bits >> _S11).astype(np.float64) * _INV53


def words_to_integers(bits: np.ndarray, low: int, high: int) -> np.ndarray:
    """Raw words mapped onto {low, ..., high - 1}, as RngStream.integers does."""
    return low + np.minimum((_uniforms(bits) * (high - low)).astype(np.int64), high - low - 1)


def split_keys(seed: int, tags: np.ndarray) -> np.ndarray:
    """Generator keys of RngStream(seed).split(tag) for every uint64 tag.

    Entry i equals _key(RngStream(seed).split(tags[i]).seed), computed for
    all tags in one vectorised pass (the samplers' per-chain streams).
    """
    z = kernels._mix_array(np.asarray(tags, dtype=np.uint64) ^ np.uint64(_SPLIT_SALT))
    z = kernels._mix_array(z ^ np.uint64(_key(seed)))
    return kernels._mix_array(z ^ np.uint64(_KEY_SALT))

