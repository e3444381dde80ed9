"""The numeric kernels, and the SPD matrix root that FID takes from LAPACK.

Counter-stream words are exact integer arithmetic, so the vectorised
kernels must match a scalar reference loop bitwise; Box-Muller normals go
through libm in the loop and numpy's ufuncs in the kernel, which may differ
by a few ulps, bounded here at 1e-12.
"""

import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from diffusionlab.data import MixtureSampler
from diffusionlab.errors import IndefiniteMatrix, NotSymmetric
from diffusionlab.metrics import spd_sqrt
from diffusionlab.numerics import RngStream, kernels
from diffusionlab.numerics.rng import split_keys


def _oracle_raw_block(key, counter, n):
    """The n words of stream key from counter on, one word at a time, in
    uint64 scalars."""
    out = np.empty(n, dtype=np.uint64)
    key, counter = np.uint64(key), np.uint64(counter)
    # the mixer wraps mod 2^64 on purpose; silence numpy's scalar warning
    with np.errstate(over="ignore"):
        for i in range(n):
            z = key + (counter + np.uint64(i)) * kernels._GOLDEN_U
            z = (z ^ (z >> kernels._S30)) * kernels._MIX1_U
            z = (z ^ (z >> kernels._S27)) * kernels._MIX2_U
            out[i] = z ^ (z >> kernels._S31)
    return out


def _oracle_normals_block(key, counter, n):
    """The n normals of stream key from counter on, one draw at a time, with
    math.log, math.cos and math.sin: the draw at counter c reads the words
    at c & ~2 and the next, and is the sine iff bit 1 of c is set."""
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        c = (counter + 2 * i) & kernels._U64
        w0, w1 = (int(w) for w in _oracle_raw_block(key, c & ~2, 2))
        u1 = ((w0 >> 11) + 1) * kernels._INV53  # (0, 1]
        phi = math.pi / 2 * ((w1 >> 13) * 2.0**-51)  # [0, pi/2)
        branch = c >> 1 & 1
        value = math.sqrt(-2.0 * math.log(u1)) * (math.sin(phi) if branch else math.cos(phi))
        out[i] = -value if w1 >> branch & 1 else value
    return out


def test_scalar_loop_source_matches_vectorized_raw():
    start = np.array([(31337 + 77 * kernels._GOLDEN) & kernels._U64], dtype=np.uint64)
    assert np.array_equal(_oracle_raw_block(31337, 77, 512), kernels.words(start, 512)[0])


def test_scalar_loop_source_matches_vectorized_normals():
    # every phase of the first counter: draw 0 a cosine or a sine, at even or odd counters
    for counter in (0, 1, 2, 3, 2**64 - 3):
        got = np.empty((1, 512))
        kernels.normals_rows(np.array([5], dtype=np.uint64), counter, got)
        assert np.max(np.abs(_oracle_normals_block(5, counter, 512) - got[0])) <= 1e-12


def _allocating_mix(z):
    z = (z ^ (z >> kernels._S30)) * kernels._MIX1_U
    z = (z ^ (z >> kernels._S27)) * kernels._MIX2_U
    return z ^ (z >> kernels._S31)


def _allocating_normals_rows(keys, counter, out):
    """normals_rows as whole-array expressions, one fresh array per stage,
    and one entry per draw: each draw's words and branch come from its own
    counter, not from a grid of pairs."""
    c = np.uint64(counter & kernels._U64) + 2 * np.arange(out.shape[1], dtype=np.uint64)
    pair = c & ~np.uint64(2)
    w0 = _allocating_mix(keys.reshape(-1, 1) + pair * kernels._GOLDEN_U)
    w1 = _allocating_mix(keys.reshape(-1, 1) + (pair + kernels._ONE_U) * kernels._GOLDEN_U)
    u1 = ((w0 >> kernels._S11) + kernels._ONE_U).astype(np.float64) * kernels._INV53
    phi = (w1 >> np.uint64(13)).astype(np.float64) * 2.0**-51 * (math.pi / 2)
    branch = (c >> kernels._ONE_U) & kernels._ONE_U
    trig = np.where(branch == 1, np.sin(phi), np.cos(phi))
    negative = (w1 >> branch) & kernels._ONE_U == 1
    np.multiply(np.where(negative, -trig, trig), np.sqrt(-2.0 * np.log(u1)), out=out)


@pytest.mark.parametrize("counter", [0, 2, 12345, 2**63 + 7, 2**64 - 3])
def test_normals_rows_in_place_matches_the_allocating_form_bit_for_bit(counter):
    keys = np.array([0, 5, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
    for n in (1, 7, 300):
        got, want = np.empty((4, n)), np.empty((4, n))
        kernels.normals_rows(keys, counter, got)
        _allocating_normals_rows(keys, counter, want)
        assert got.tobytes() == want.tobytes()
        strided = np.empty((4, 2 * n))[:, ::2]  # a caller's non-contiguous out
        kernels.normals_rows(keys, counter, strided)
        assert np.ascontiguousarray(strided).tobytes() == want.tobytes()


def test_normals_working_memory_is_about_three_outputs():
    # out, four work arrays of half its size and a cast buffer: 232 KB for a 64 KB result
    RngStream(1).normals(8192)
    tracemalloc.start()
    try:
        RngStream(1).normals(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300_000, peak


_NEAR_WRAP = 2**64 - 3
_TAGS = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)

# Draws pinned per seed: sha256 prefixes of the exact integer outputs, and
# Box-Muller values, which pass through libm, to 1e-12. Each kind is drawn
# from counter 0 and from _NEAR_WRAP, where the uint64 counters wrap.
_PINNED = {
    0: {"raw": "ff48c96a173d734d", "integers": "2f9ef36bd6a2d282",
        "split": "b24271ee7e91ffa0", "split_keys": "78c46a16ec92eb08",
        "mixture_idx": "bf8c029e8e18251d",
        "normals": [-0.29653382932162053, 0.33751234857725454,
                    -1.243172783228622, -0.2385460438849041],
        "mixture_sums": [-16.909606510773152, -11.858104290302208, -5.781658188853491,
                         -7.248588891009854, -3.2213414547624235]},
    7: {"raw": "0af6239f3b21f891", "integers": "7ac1d87169349e98",
        "split": "d3fa92852dc1ccef", "split_keys": "8fb2dd99111f7e4c",
        "mixture_idx": "0f8c52777c2221ca",
        "normals": [0.4039922106672769, -2.2730978389098535,
                    -0.7014878464789503, -1.9264671131340823],
        "mixture_sums": [-7.806839374270524, -6.85159342994896, -8.86312058817543,
                         -7.397926025712346, -4.353852234566805]},
    2**63 + 5: {"raw": "186a31069b2092bf", "integers": "b7b1a88b6f890083",
                "split": "e77cb13678ebd4a4", "split_keys": "09cb64e7da43d1ad",
                "mixture_idx": "225a78fb6f39c44d",
                "normals": [0.4406539531696733, 0.8471302937478938,
                            -1.0665334489886846, -0.6069318148973953],
                "mixture_sums": [-2.876562111844062, -7.716395481747419, -7.643435403949359,
                                 -1.9287039741213148, -4.463889650514724]},
    2**64 - 1: {"raw": "56104d544788f280", "integers": "bccdb1e0beebe82d",
                "split": "c88e0f6f47f3da9d", "split_keys": "454b1c69adf292b3",
                "mixture_idx": "a98c9e3725346dcd",
                "normals": [0.9551358214487167, 1.3489083381815907,
                            -0.20272671640697326, -1.3521714903418356],
                "mixture_sums": [-5.571932681260899, -7.75971584303826, -0.2448360269458978,
                                 -11.353614789878607, -3.2624779540656266]},
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_generator_outputs_match_pinned_values(seed):
    pinned = _PINNED[seed]
    mix = MixtureSampler([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]], 0.5, RngStream(seed, _NEAR_WRAP))
    takes = [mix.take(16) for _ in range(5)]  # the second on draw blocks ahead
    children = [RngStream(seed).split(int(t)).seed for t in _TAGS]
    assert {
        "raw": _digest(RngStream(seed).raw(16), RngStream(seed, _NEAR_WRAP).raw(5)),
        "integers": _digest(RngStream(seed).integers(16, -3, 1001),
                            RngStream(seed, _NEAR_WRAP).integers(5, 0, 7)),
        "split": _digest(np.array(children, dtype=np.uint64)),
        "split_keys": _digest(split_keys(seed, _TAGS)),
        "mixture_idx": _digest(*(idx for _, idx in takes)),
    } == {k: v for k, v in pinned.items() if isinstance(v, str)}
    normals = np.concatenate((RngStream(seed).normals(2), RngStream(seed, _NEAR_WRAP).normals(2)))
    assert np.max(np.abs(normals - pinned["normals"])) <= 1e-12
    sums = [float(x.sum()) for x, _ in takes]
    assert np.max(np.abs(np.subtract(sums, pinned["mixture_sums"]))) <= 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("c0", [0, 1, 2, 3, 2**64 - 3])
def test_a_normal_depends_only_on_its_key_and_absolute_counter(c0):
    # a draw pairs with the one two counters away, which may fall in another
    # call: split at every point, the pieces still make up the one long call
    n = 11
    for seed in (0, 7):
        whole = RngStream(seed, c0).normals(n)
        for cut in range(n + 1):
            stream = RngStream(seed, c0)
            head = stream.normals(cut)
            assert _same_bits(np.concatenate((head, stream.normals(n - cut))), whole), cut
            assert stream.counter == c0 + 2 * n


@pytest.mark.parametrize("d", [1, 9])
def test_sampler_blocks_at_odd_d_match_the_chain_streams(d):
    # at odd d the sampler's blocks start at every phase of a pair
    keys = split_keys(11, np.arange(3, dtype=np.uint64))
    out = np.empty((3, d))
    for block in range(6):
        kernels.normals_rows(keys, 2 * d * block, out)
        for i in range(3):
            child = RngStream(11).split(i)
            assert _same_bits(out[i], RngStream(child.seed, 2 * d * block).normals(d)), block


def test_normal_draws_are_standard_normal():
    # 2**20 draws, 2**18 from each of four seeds; draws 2j and 2j + 1 of a
    # stream are the cosine and the sine of one pair
    x = np.concatenate([RngStream(seed).normals(2**18) for seed in (1, 2, 3, 4)])
    n = x.size
    dev = x - x.mean()
    var = np.mean(dev**2)
    moments = (x.mean(), var - 1.0, np.mean(dev**3) / var**1.5, np.mean(dev**4) / var**2 - 3.0)
    for value, se in zip(moments, np.sqrt(np.array([1.0, 2.0, 6.0, 24.0]) / n)):
        assert abs(value) <= 5 * se, moments
    cdf = 0.5 * (1.0 + kernels.erf(np.sort(x) / math.sqrt(2.0)))
    rank = np.arange(1, n + 1) / n
    ks = max(np.max(rank - cdf), np.max(cdf - (rank - 1.0 / n)))
    assert ks < 1.63 / math.sqrt(n), ks
    cos, sin = x[0::2], x[1::2]
    m = cos.size
    for branch in (cos, sin):
        assert abs(np.mean(np.signbit(branch)) - 0.5) <= 5 * 0.5 / math.sqrt(m)
    assert abs(np.corrcoef(cos, sin)[0, 1]) <= 5 / math.sqrt(m)


@pytest.mark.parametrize("high", [2, 3, 6, 51, 1001, 2**31])
def test_one_integer_matches_the_block_kernel(high):
    # train draws the step indices t of a block of steps in one call; the
    # draws must not depend on how many steps a call covers
    for seed in (0, 7, 2**63 + 5):
        one, block = RngStream(seed), RngStream(seed)
        got = [int(one.integers(1, 1, high)[0]) for _ in range(500)]
        assert got == block.integers(500, 1, high).tolist()
        assert one.counter == block.counter == 500


@pytest.mark.parametrize("counter", [2**64 - 5, 2**64 - 2])
def test_one_integer_matches_the_block_kernel_across_the_counter_wrap(counter):
    # the block kernel's uint64 counters wrap to 0 after 2**64 - 1, while the
    # stream keeps counting in Python ints and takes the product mod 2**64
    one, block = RngStream(99, counter), RngStream(99, counter)
    got = [int(one.integers(1, 1, 51)[0]) for _ in range(4)]
    assert got == block.integers(4, 1, 51).tolist()
    assert one.counter == counter + 4


# ---------------------------------------------------------------- erf


def _erf_grid():
    """Every branch edge of cephes erf/erfc and seeded normals at three scales."""
    tiny = np.nextafter(0.0, 1.0)
    edge = math.sqrt(math.log(sys.float_info.max))  # cephes' erfc is 0 beyond |x| ~ 26.64
    points = [0.0, tiny, 3 * tiny, 2.2250738585072014e-308, 1e-300, 1.0, 8.0,
              edge, 26.64, 26.65, 27.0, 1e300, np.inf]
    points += [np.nextafter(p, q) for p in (1.0, 8.0, edge) for q in (0.0, 30.0)]
    points = np.array(points)
    rng = np.random.default_rng(2024)
    return np.concatenate([points, -points, [np.nan]]
                          + [scale * rng.standard_normal(10**5) for scale in (1e-3, 1.0, 5.0)])


def test_erf_matches_scipy_bit_for_bit():
    from scipy.special import erf

    x = _erf_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernels.erf(x)
    want = erf(x)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# ---------------------------------------------------------------- Jacobi


@pytest.mark.parametrize("apq", [1e-160, 1e-320])
def test_jacobi_skips_rotations_whose_angle_underflows(apq):
    # a tiny a_pq against a diagonal gap of 1 makes tau^2 (or, for a
    # subnormal a_pq, tau itself) overflow; that rotation is the identity
    # and must pass without a floating-point warning
    m = np.array([[1.0, apq, 0.5], [apq, 2.0, 0.0], [0.5, 0.0, 3.0]])
    a, v = m.copy(), np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels.jacobi_sweeps(a, v, 1e-12 * np.linalg.norm(m), 60)
    np.testing.assert_allclose(np.sort(np.diag(a)), np.linalg.eigvalsh(m), rtol=0, atol=1e-14)
    np.testing.assert_allclose(v @ np.diag(np.diag(a)) @ v.T, m, rtol=0, atol=1e-14)


def test_jacobi_converges_when_the_diagonal_dominates():
    # sum(a^2) - sum(diag^2) cancels to zero here although every
    # off-diagonal entry is 270x over the tolerance
    m = np.array([[1.0, 1e-9, -1e-9], [1e-9, 2.0, 1e-9], [-1e-9, 1e-9, 3.0]])
    tol_abs = 1e-12 * np.linalg.norm(m)
    a, v = m.copy(), np.eye(3)
    assert kernels.jacobi_sweeps(a, v, tol_abs, 60) >= 1
    assert np.max(np.abs(a[~np.eye(3, dtype=bool)])) < tol_abs


def test_jacobi_eigh_raises_when_the_sweep_cap_stops_it():
    # the kernel stops at its cap with the off-diagonal norm still above
    # the tolerance, and converges to LAPACK's eigenvalues without it
    a = np.random.default_rng(11).normal(size=(6, 6))
    m = a + a.T
    tol_abs = 1e-12 * np.linalg.norm(m)
    b = m.copy()
    assert kernels.jacobi_sweeps(b, np.eye(6), tol_abs, 1) == 1
    assert math.sqrt(2.0 * np.sum(np.square(b[np.triu_indices(6, 1)]))) > tol_abs
    b = m.copy()
    assert kernels.jacobi_sweeps(b, np.eye(6), tol_abs, 60) < 60
    np.testing.assert_allclose(np.sort(np.diag(b)), np.linalg.eigvalsh(m), rtol=0, atol=1e-12)


def test_jacobi_eigh_accepts_convergence_in_the_last_sweep():
    # the solve that needs s sweeps passes with a cap of exactly s
    m = np.diag([1.0, 2.0, 3.0]) + 0.1
    a, v = m.copy(), np.eye(3)
    sweeps = kernels.jacobi_sweeps(a, v, 1e-12 * np.linalg.norm(m), 60)
    assert sweeps >= 1
    # at a cap of s the kernel returns the cap, as it does when it gives up
    assert kernels.jacobi_sweeps(m.copy(), np.eye(3), 1e-12 * np.linalg.norm(m), sweeps) == sweeps


# ---------------------------------------------------------------- spd_sqrt


def _residual_bound(m):
    return 1e-8 * (1.0 + np.linalg.norm(m))


@pytest.mark.parametrize("n,rank", [(1, 1), (3, 3), (8, 8), (16, 16), (6, 2), (16, 5)])
def test_spd_sqrt_squares_back_to_its_input(n, rank):
    a = np.random.default_rng(n * 31 + rank).normal(size=(n, rank))
    m = a @ a.T
    s = spd_sqrt(m)
    assert np.array_equal(s, s.T)
    assert np.linalg.norm(s @ s - m) <= _residual_bound(m)


def test_spd_sqrt_clamps_slightly_negative_eigenvalues_to_zero():
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    m = q @ np.diag([4.0, 1.0, -5e-7]) @ q.T
    m = 0.5 * (m + m.T)
    want = q @ np.diag([2.0, 1.0, 0.0]) @ q.T
    np.testing.assert_allclose(spd_sqrt(m), want, rtol=0, atol=1e-10)


def test_spd_sqrt_rejects_an_indefinite_matrix():
    with pytest.raises(IndefiniteMatrix):
        spd_sqrt(np.diag([1.0, -2e-6]))


@pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_spd_sqrt_rejects_a_non_square_input(m):
    with pytest.raises(NotSymmetric):
        spd_sqrt(m)


def test_spd_sqrt_rejects_asymmetry_above_1e_10():
    m = np.eye(3)
    m[0, 1] = 2e-10
    with pytest.raises(NotSymmetric):
        spd_sqrt(m)
    m[0, 1] = 5e-11
    np.testing.assert_allclose(spd_sqrt(m), np.eye(3), rtol=0, atol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spd_sqrt_rejects_a_matrix_that_is_not_finite(bad):
    # LAPACK would give eigvalsh([[nan, 0], [0, 1]]) = [0, -0] without a word
    m = np.eye(2)
    m[0, 0] = bad
    with pytest.raises(NotSymmetric):
        spd_sqrt(m)
