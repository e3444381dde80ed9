"""Hot kernels with numba scalar-loop and vectorized-numpy implementations.

Public entry points (`raw_block`, `normals_block`, `normals_rows`,
`jacobi_sweeps`) bind to one implementation at import time, per
diffusionlab.backend. Both paths of the integer mixer are exact and bitwise
identical; the float kernels agree to a few ulps (see backend module
docstring).

The generator is counter based: output j of a stream is a pure function
mix(key + (counter + j) * GOLDEN) of the stream key and the absolute
counter, so any prefix can be regenerated and streams never share state.
mix is the splitmix64 finalizer.
"""

import math
import sys

import numpy as np

from ..backend import USE_NUMBA, jit

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF

# uint64 copies of the constants; numba freezes these with the right type
_GOLDEN_U = np.uint64(_GOLDEN)
_GOLDEN2_U = np.uint64(2 * _GOLDEN & _U64)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE_U = np.uint64(1)

# 2**-53, exact
_INV53 = 1.0 / 9007199254740992.0
_TWO_PI = 6.283185307179586

# largest |tau| whose square is finite; beyond it t = 1/(tau + sqrt(1 + tau^2))
# rounds to 0 and the Jacobi rotation is the identity
_TAU_MAX = math.sqrt(sys.float_info.max)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a python int (reference path, used for keys)."""
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


# ---------------------------------------------------------------- numba path

def _raw_block_loop(key, counter, n, out):  # pragma: no cover - jit source
    for i in range(n):
        z = key + (counter + np.uint64(i)) * _GOLDEN_U
        z = (z ^ (z >> _S30)) * _MIX1_U
        z = (z ^ (z >> _S27)) * _MIX2_U
        out[i] = z ^ (z >> _S31)


def _normals_block_loop(key, counter, n, out):  # pragma: no cover - jit source
    for i in range(n):
        c = counter + np.uint64(2 * i)
        z = key + c * _GOLDEN_U
        z = (z ^ (z >> _S30)) * _MIX1_U
        z = (z ^ (z >> _S27)) * _MIX2_U
        z = z ^ (z >> _S31)
        u1 = np.float64((z >> _S11) + _ONE_U) * _INV53  # (0, 1]
        z = key + (c + _ONE_U) * _GOLDEN_U
        z = (z ^ (z >> _S30)) * _MIX1_U
        z = (z ^ (z >> _S27)) * _MIX2_U
        z = z ^ (z >> _S31)
        u2 = np.float64(z >> _S11) * _INV53  # [0, 1)
        out[i] = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def _jacobi_sweeps_loop(a, v, tol_abs, max_sweeps):  # pragma: no cover - jit source
    d = a.shape[0]
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(d):
            for j in range(i + 1, d):
                off += 2.0 * a[i, j] * a[i, j]
        if math.sqrt(off) <= tol_abs:
            return sweep
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                tau = float(a[q, q] - a[p, p]) / (2.0 * float(apq))
                if abs(tau) > _TAU_MAX:
                    continue
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(d):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                for k in range(d):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    return max_sweeps


# ---------------------------------------------------------------- numpy path

def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _MIX1_U
    z = (z ^ (z >> _S27)) * _MIX2_U
    return z ^ (z >> _S31)


def _raw_block_np(key, counter, n, out):
    idx = np.arange(n, dtype=np.uint64)
    z = key + (counter + idx) * _GOLDEN_U
    out[:] = _mix_array(z)


def _normals_block_np(key, counter, n, out):
    """Box-Muller draws for counters (counter + 2i, counter + 2i + 1), i < n.

    key is one uint64 key, with out of length n, or a column of keys of
    shape (rows, 1), with out of shape (rows, n): row r then holds what
    key[r] alone would give, drawn in one pass over the whole grid. The
    counter is taken mod 2**64 in python ints, because a uint64 scalar
    product raises numpy's overflow warning where the counter wraps.
    """
    start = np.asarray(key, dtype=np.uint64).reshape(-1, 1)
    start = start + np.uint64(int(counter) * _GOLDEN & _U64)  # key + counter * GOLDEN
    step = np.arange(n, dtype=np.uint64) * _GOLDEN2_U
    b1 = _mix_array(start + step)
    b2 = _mix_array((start + _GOLDEN_U) + step)
    u1 = ((b1 >> _S11) + _ONE_U).astype(np.float64) * _INV53  # (0, 1]
    u2 = (b2 >> _S11).astype(np.float64) * _INV53  # [0, 1)
    np.multiply(np.sqrt(-2.0 * np.log(u1)), np.cos(_TWO_PI * u2),
                out=out.reshape(start.shape[0], n))


def _jacobi_sweeps_np(a, v, tol_abs, max_sweeps):
    d = a.shape[0]
    for sweep in range(max_sweeps):
        off = math.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= tol_abs:
            return sweep
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = float(a[q, q] - a[p, p]) / (2.0 * float(apq))
                if abs(tau) > _TAU_MAX:
                    continue
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return max_sweeps


# ----------------------------------------------------------------- dispatch

if USE_NUMBA:
    _raw_block = jit(_raw_block_loop)
    _normals_block = jit(_normals_block_loop)
    _jacobi = jit(_jacobi_sweeps_loop)
else:
    _raw_block = _raw_block_np
    _normals_block = _normals_block_np
    _jacobi = _jacobi_sweeps_np


def raw_block(key: int, counter: int, n: int) -> np.ndarray:
    """n raw uint64 words for absolute counters [counter, counter + n)."""
    out = np.empty(n, dtype=np.uint64)
    if n:
        _raw_block(np.uint64(key), np.uint64(counter), np.int64(n), out)
    return out


def normals_block(key: int, counter: int, n: int) -> np.ndarray:
    """n standard normals; draw i consumes counters (counter+2i, counter+2i+1).

    Box-Muller, cosine branch only, so every draw has a fixed counter cost
    and concatenated calls reproduce one long call exactly.
    """
    out = np.empty(n, dtype=np.float64)
    if n:
        _normals_block(np.uint64(key), np.uint64(counter), np.int64(n), out)
    return out


def normals_rows(keys: np.ndarray, counter: int, out: np.ndarray) -> None:
    """Fill out (rows, n) so that out[r] == normals_block(keys[r], counter, n).

    keys is a uint64 array of one key per row and counter a python int
    (taken mod 2**64). The numpy backend draws the whole grid in one
    vectorised pass; the numba backend runs its jit kernel row by row, so
    each backend keeps the bits of its single-stream kernel.
    """
    if USE_NUMBA:
        c, n = np.uint64(int(counter) & _U64), np.int64(out.shape[1])
        for r, key in enumerate(keys):
            _normals_block(key, c, n, out[r])
    else:
        _normals_block_np(keys.reshape(-1, 1), counter, out.shape[1], out)


def jacobi_sweeps(a: np.ndarray, v: np.ndarray, tol_abs: float, max_sweeps: int) -> int:
    """In-place cyclic Jacobi on symmetric a, accumulating rotations into v."""
    return int(_jacobi(a, v, float(tol_abs), int(max_sweeps)))
