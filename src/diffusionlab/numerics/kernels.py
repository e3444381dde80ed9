"""Hot numeric kernels: stream words, Box-Muller normals, erf, Jacobi, row blocks.

The generator is counter based: output j of a stream is a pure function
mix(key + (counter + j) * GOLDEN) of the stream key and the absolute
counter, so any prefix can be regenerated and streams never share state.
normals_rows states how normals are made of these words, and the phase
rule its callers keep. mix is the splitmix64 finalizer. Counters are taken
mod 2**64 in python ints, because a uint64 scalar product raises numpy's
overflow warning where the counter wraps; uint64 array arithmetic wraps
silently.
"""

import math
import sys

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN_U = np.uint64(_GOLDEN)
_GOLDEN4_U = np.uint64(4 * _GOLDEN & _U64)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_S13 = np.uint64(13)
_S62 = np.uint64(62)
_ONE_U = np.uint64(1)

# Rows per network block off the tape. OpenBLAS changes its gemm kernel once
# rows x inputs x outputs passes 10^6: 512 rows keep an (up to 488) x 4 layer on
# one kernel. Of 256, 512 and 1024, 512 gave the lowest sampling RSS.
ROW_BLOCK = 512

# 2**-53, exact
_INV53 = 1.0 / 9007199254740992.0
# (pi/2) 2**-51, exact: the angle of the top 51 bits of a word
_QUARTER_TURN = math.pi / 2 / 2251799813685248.0

# largest |tau| whose square is finite; beyond it t = 1/(tau + sqrt(1 + tau^2))
# rounds to 0 and the Jacobi rotation is the identity
_TAU_MAX = math.sqrt(sys.float_info.max)

# cephes ndtr.c's erf T/U (|x| <= 1) and erfc P/Q (x < 8), highest power first, U and Q monic
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a python int (reference path, used for keys)."""
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """mix64 of every word of the uint64 array z, written over z and
    returned; scratch (z's shape) takes the shifted words."""
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mult in ((_S30, _MIX1_U), (_S27, _MIX2_U)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=scratch), out=z)
        np.multiply(z, mult, out=z)
    return np.bitwise_xor(z, np.right_shift(z, _S31, out=scratch), out=z)


def words(starts: np.ndarray, n: int) -> np.ndarray:
    """(len(starts), n) raw words, row r mix(starts[r] + j * GOLDEN) for j < n:
    the n words of the stream block that begins at the uint64 starts[r]."""
    return _mix_array(starts.reshape(-1, 1) + np.arange(n, dtype=np.uint64) * _GOLDEN_U)


def normals_rows(keys: np.ndarray, counter: int, out: np.ndarray) -> None:
    """Fill out (rows, n) with the normals of stream keys[r] from counter on,
    draw i at counter c = counter + 2i. This is the one definition of them.

    Box-Muller on both branches: the words w0 and w1 at counters b = c & ~2
    and b + 1 (mod 2**64) serve the normals at b and b + 2. With
    r = sqrt(-2 ln u1), u1 = ((w0 >> 11) + 1) 2**-53 in (0, 1], and the
    quarter-turn angle phi = (pi/2) (w1 >> 13) 2**-51 in [0, pi/2), where
    libm's trig is fastest, the normal at b is r cos(phi) and at b + 2 it is
    r sin(phi), each negated iff its bit of w1 is set: bit 0 for the cosine,
    bit 1 for the sine. (+-cos, +-sin) is uniform on the circle, so a pair
    is i.i.d. N(0, 1).

    Phase rule: a normal is a function of its key and absolute counter
    alone, so concatenated calls reproduce one long call. keys (uint64, one
    per row) may fold in only a multiple of 4 counters (word j of row r is
    mix(keys[r] + j * GOLDEN)), and counter, a python int, carries the rest.
    The pairs are drawn in place in four work arrays of about half out's
    size; an int64 -> float cast inside a ufunc buffers one more.
    """
    n = out.shape[1]
    sine_first = counter >> 1 & 1
    pairs = (n + sine_first + 1) // 2
    start = keys.reshape(-1, 1) + np.uint64((counter & ~2) * _GOLDEN & _U64)
    a = start + np.arange(pairs, dtype=np.uint64) * _GOLDEN4_U
    b = np.add(a, _GOLDEN_U)
    c = np.empty_like(a)
    _mix_array(a, c)
    _mix_array(b, c)
    radius = a.view(np.float64)
    # the shifted words are at most 2**53: read as int64, faster, they cast to the same doubles
    np.add(np.right_shift(a, _S11, out=a), _ONE_U, out=a)
    np.multiply(a.view(np.int64), _INV53, out=radius)  # u1
    np.sqrt(np.multiply(-2.0, np.log(radius, out=radius), out=radius), out=radius)
    angle = c.view(np.float64)
    # (w1 >> 13) 2**-51 (pi/2) in one rounding: the power of two scales exactly
    np.multiply(np.right_shift(b, _S13, out=c).view(np.int64), _QUARTER_TURN, out=angle)
    sin = np.sin(angle)
    cos = np.cos(angle, out=angle)
    # the signs: w1's bit 1, then its bit 0, shifted to the sign bit of
    # w1 read as a double, the only bit of it copysign reads
    np.copysign(sin, np.left_shift(b, _S62, out=b).view(np.float64), out=sin)
    np.copysign(cos, np.left_shift(b, _ONE_U, out=b).view(np.float64), out=cos)
    first, second = (sin, cos) if sine_first else (cos, sin)
    m = (n + 1) // 2
    np.multiply(first[:, :m], radius[:, :m], out=out[:, 0::2])
    np.multiply(second[:, sine_first:sine_first + n // 2],
                radius[:, sine_first:sine_first + n // 2], out=out[:, 1::2])


def row_blocks(n: int, width: int, fill) -> np.ndarray:
    """The (n, width) result whose rows fill(rows, out) writes into out for
    the input rows that rows indexes, at most ROW_BLOCK rows per call, so a
    forward's intermediates never grow with n. Blocks start at multiples of
    8 rows, each row's place in BLAS's row tiles. A product of a row count
    that is not a multiple of 8 has other bits in its last rows (one row
    goes through gemv), so such a block is padded with copies of its last
    row to the next multiple of 8, and only its own rows are kept."""
    out = np.empty((n + -n % 8, width))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(n, lo + ROW_BLOCK)
        pad = -(hi - lo) % 8
        fill(np.minimum(np.arange(lo, hi + pad), hi - 1) if pad else slice(lo, hi),
             out[lo:hi + pad])
    return out[:n]


def _polevl(x: np.ndarray, coefs: tuple, monic: bool = False) -> np.ndarray:
    """cephes polevl (p1evl when monic): Horner in its order, with no fused multiply-add."""
    y = x + coefs[0] if monic else coefs[0] * x + coefs[1]
    for c in coefs[1 if monic else 2:]:
        y *= x
        y += c
    return y


def erf(x: np.ndarray) -> np.ndarray:
    """erf of each entry of the float64 array x with scipy.special.erf's bits: its
    cephes erf, x T(x^2)/U(x^2) for |x| <= 1, else 1 - erfc(|x|) (1 from |x| = 8
    on), given x's sign. exp(-x^2) is the C library's, via numpy's complex exp
    (cexp(r + 0i) is exp(r)); numpy's float exp differs in the last bit at times."""
    ax = np.abs(x)
    y = np.minimum(ax, 1.0)  # 1 from 8 on, NaN stays NaN
    inner = ax <= 1.0
    a = ax[inner]
    sq = np.square(a)
    y[inner] = a * _polevl(sq, _ERF_T) / _polevl(sq, _ERF_U, True)
    mid = (ax > 1.0) & (ax < 8.0)
    a = ax[mid]
    e = np.exp(np.negative(np.square(a), dtype=np.complex128)).real
    y[mid] = 1.0 - (e * _polevl(a, _ERFC_P)) / _polevl(a, _ERFC_Q, True)
    return np.copysign(y, x)


def jacobi_sweeps(a: np.ndarray, v: np.ndarray, tol_abs: float, max_sweeps: int) -> int:
    """In-place cyclic Jacobi on symmetric a, accumulating rotations into v.

    Sweeps until the off-diagonal Frobenius norm, sqrt(2 sum_{i<j} a_ij^2),
    is at most tol_abs, and returns the number of sweeps run. The norm is
    summed over the strict upper triangle: sum(a^2) - sum(diag^2) cancels
    once the diagonal dominates and would stop with off-diagonal entries
    far above tol_abs.
    """
    d = a.shape[0]
    upper = np.triu_indices(d, 1)
    for sweep in range(max_sweeps):
        if math.sqrt(2.0 * float(np.sum(np.square(a[upper])))) <= tol_abs:
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
