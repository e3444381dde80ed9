"""Deterministic, splittable random number streams.

A stream is fully described by (seed, counter): output j is a pure function
of the seed-derived key and the absolute counter j, so identical prefixes
are bitwise identical across process restarts and independent of how draws
were batched. `split` derives a child stream whose seed mixes in a tag, so
training, data, and per-chain sampling streams never alias.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import _GOLDEN, _INV53, mix64

_KEY_SALT = 0x7F4A7C159E3779B9
_SPLIT_SALT = 0xD1B54A32D192ED03


def _key(seed: int) -> int:
    return mix64((seed & 0xFFFFFFFFFFFFFFFF) ^ _KEY_SALT)


@dataclass
class RngStream:
    """Counter-based generator state. Both fields are 64-bit values."""

    seed: int
    counter: int = 0

    def clone(self) -> "RngStream":
        return RngStream(self.seed, self.counter)

    def split(self, tag: int) -> "RngStream":
        """Child stream at counter 0; distinct tags give independent streams."""
        child_seed = mix64(_key(self.seed) ^ mix64((tag & 0xFFFFFFFFFFFFFFFF) ^ _SPLIT_SALT))
        return RngStream(child_seed, 0)

    def raw(self, n: int) -> np.ndarray:
        """n raw uint64 words; advances the counter by n."""
        out = kernels.raw_block(_key(self.seed), self.counter, n)
        self.counter += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); one counter each."""
        bits = self.raw(n)
        return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller; two counters each."""
        out = kernels.normals_block(_key(self.seed), self.counter, n)
        self.counter += 2 * n
        return out

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n ints uniform on {low, ..., high - 1}; one counter each."""
        if high <= low:
            raise ValueError("integers needs high > low")
        if n == 1:
            # raw_block's one word in Python ints, without the array kernel
            z = mix64(_key(self.seed) + self.counter * _GOLDEN)
            self.counter += 1
            return np.array([low + min(int((z >> 11) * _INV53 * (high - low)), high - low - 1)])
        u = self.uniforms(n)
        return low + np.minimum((u * (high - low)).astype(np.int64), high - low - 1)

    def bernoulli(self, n: int, p_one: float) -> np.ndarray:
        """n draws in {0, 1} with P(1) = p_one; one counter each."""
        return (self.uniforms(n) < p_one).astype(np.int64)


def split_keys(seed: int, tags: np.ndarray) -> np.ndarray:
    """Generator keys of RngStream(seed).split(tag) for every uint64 tag.

    Entry i equals _key(RngStream(seed).split(tags[i]).seed), computed for
    all tags in one vectorised pass (the samplers' per-chain streams).
    """
    z = kernels._mix_array(np.asarray(tags, dtype=np.uint64) ^ np.uint64(_SPLIT_SALT))
    z = kernels._mix_array(z ^ np.uint64(_key(seed)))
    return kernels._mix_array(z ^ np.uint64(_KEY_SALT))


def sample_standard_normal(rng: RngStream, n: int) -> np.ndarray:
    """n independent standard normal draws from the stream (flat float64)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.normals(n)
