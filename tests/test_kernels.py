"""The numeric kernels and the SPD matrix root built on them.

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
from diffusionlab.errors import IndefiniteMatrix, NotConverged, NotSymmetric
from diffusionlab.numerics import RngStream, jacobi_eigh, kernels, spd_sqrt
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
    math.log and math.cos."""
    words = _oracle_raw_block(key, counter, 2 * n)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        u1 = float((words[2 * i] >> kernels._S11) + kernels._ONE_U) * kernels._INV53  # (0, 1]
        u2 = float(words[2 * i + 1] >> kernels._S11) * kernels._INV53  # [0, 1)
        out[i] = math.sqrt(-2.0 * math.log(u1)) * math.cos(kernels._TWO_PI * u2)
    return out


def test_scalar_loop_source_matches_vectorized_raw():
    start = np.array([(31337 + 77 * kernels._GOLDEN) & kernels._U64], dtype=np.uint64)
    assert np.array_equal(_oracle_raw_block(31337, 77, 512), kernels.words(start, 512)[0])


def test_scalar_loop_source_matches_vectorized_normals():
    got = np.empty((1, 512))
    kernels.normals_rows(np.array([5], dtype=np.uint64), 0, got)
    assert np.max(np.abs(_oracle_normals_block(5, 0, 512) - got[0])) <= 1e-12


def _allocating_mix(z):
    z = (z ^ (z >> kernels._S30)) * kernels._MIX1_U
    z = (z ^ (z >> kernels._S27)) * kernels._MIX2_U
    return z ^ (z >> kernels._S31)


def _allocating_normals_rows(keys, counter, out):
    """normals_rows as whole-array expressions, one fresh array per stage."""
    start = keys.reshape(-1, 1) + np.uint64(int(counter) * kernels._GOLDEN & kernels._U64)
    step = np.arange(out.shape[1], dtype=np.uint64) * kernels._GOLDEN2_U
    b1 = _allocating_mix(start + step)
    b2 = _allocating_mix((start + kernels._GOLDEN_U) + step)
    u1 = ((b1 >> kernels._S11) + kernels._ONE_U).astype(np.float64) * kernels._INV53
    u2 = (b2 >> kernels._S11).astype(np.float64) * kernels._INV53
    np.multiply(np.sqrt(-2.0 * np.log(u1)), np.cos(kernels._TWO_PI * u2), out=out)


@pytest.mark.parametrize("counter", [0, 12345, 2**63 + 7, 2**64 - 3])
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
    # out and two work arrays of its size: 197 KB for a 64 KB result
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
        "normals": [-0.43438523635822995, 0.01657397640262135,
                    0.918997554711084, 1.8541132207520163],
        "mixture_sums": [-17.177381690000026, -5.872995333813838, -6.012373057794168,
                         -6.068086329382433, -8.443209655201983]},
    7: {"raw": "0af6239f3b21f891", "integers": "7ac1d87169349e98",
        "split": "d3fa92852dc1ccef", "split_keys": "8fb2dd99111f7e4c",
        "mixture_idx": "0f8c52777c2221ca",
        "normals": [1.76049382300923, -0.26220834690354355,
                    0.3548633489371315, 0.7232182490743342],
        "mixture_sums": [-9.642099533752695, -8.072231946441304, -11.466758814494147,
                         -5.775773875039513, -4.687996444575663]},
    2**63 + 5: {"raw": "186a31069b2092bf", "integers": "b7b1a88b6f890083",
                "split": "e77cb13678ebd4a4", "split_keys": "09cb64e7da43d1ad",
                "mixture_idx": "225a78fb6f39c44d",
                "normals": [-0.32547557234874713, -1.2526944063516305,
                            -0.5868846258330748, -1.7242809918056592],
                "mixture_sums": [-0.9128922142002969, -8.525506330743033, -4.086923526396328,
                                 -8.10964174524162, -4.262159317945454]},
    2**64 - 1: {"raw": "56104d544788f280", "integers": "bccdb1e0beebe82d",
                "split": "c88e0f6f47f3da9d", "split_keys": "454b1c69adf292b3",
                "mixture_idx": "a98c9e3725346dcd",
                "normals": [-1.2882245601873918, -0.7631134028111066,
                            1.1321047603287304, -0.06524996473498404],
                "mixture_sums": [-4.829921322786278, -6.636542105739429, -7.545418104392224,
                                 -6.4113807458188035, -5.8090956470641375]},
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
    a = np.random.default_rng(11).normal(size=(6, 6))
    m = a + a.T
    with pytest.raises(NotConverged, match="after 1 sweeps"):
        jacobi_eigh(m, max_sweeps=1)
    w, v = jacobi_eigh(m)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-12)


def test_jacobi_eigh_accepts_convergence_in_the_last_sweep():
    # the solve that needs s sweeps passes with a cap of exactly s
    m = np.diag([1.0, 2.0, 3.0]) + 0.1
    a, v = m.copy(), np.eye(3)
    sweeps = kernels.jacobi_sweeps(a, v, 1e-12 * np.linalg.norm(m), 60)
    assert sweeps >= 1
    # at a cap of s the kernel returns the cap, as it does when it gives up
    assert kernels.jacobi_sweeps(m.copy(), np.eye(3), 1e-12 * np.linalg.norm(m), sweeps) == sweeps
    with pytest.raises(NotConverged):
        jacobi_eigh(m, max_sweeps=sweeps - 1)
    np.testing.assert_array_equal(jacobi_eigh(m, max_sweeps=sweeps)[0], jacobi_eigh(m)[0])


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
