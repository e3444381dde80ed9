"""Both kernel implementations produce the same numbers.

Counter-stream words are exact integer arithmetic, so they must match
bitwise across backends; Box-Muller normals and Jacobi rotations go through
libm and may differ by a few ulps, bounded here at 1e-12. Backend choice is
fixed at import time, so cross-backend checks run in subprocesses.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from diffusionlab.backend import HAS_NUMBA
from diffusionlab.numerics import RngStream, kernels

from conftest import child_env

_CHILD = """\
import sys
import numpy as np
from diffusionlab.backend import BACKEND
from diffusionlab.numerics.kernels import normals_block, raw_block, jacobi_sweeps

rng = np.random.default_rng(17)
a = rng.normal(size=(24, 24))
spd = a @ a.T + 24.0 * np.eye(24)
v = np.eye(24)
work = spd.copy()
jacobi_sweeps(work, v, 1e-13, 60)

np.savez(sys.argv[1],
         backend=np.array(BACKEND, dtype=object),
         raw=raw_block(123456789, 1000, 4096),
         normals=normals_block(987654321, 42, 4096),
         eigvals=np.sort(np.diag(work)),
         recomposed=v @ np.diag(np.diag(work)) @ v.T)
"""


def _run_backend(backend: str, out_path) -> dict:
    env = child_env(DIFFUSIONLAB_BACKEND=backend)
    subprocess.run([sys.executable, "-c", _CHILD, str(out_path)],
                   check=True, env=env, capture_output=True)
    return dict(np.load(out_path, allow_pickle=True))


def test_env_flag_selects_numpy_backend():
    env = child_env(DIFFUSIONLAB_BACKEND="numpy")
    out = subprocess.run(
        [sys.executable, "-c", "from diffusionlab.backend import BACKEND; print(BACKEND)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "numpy"


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_env_flag_selects_numba_backend():
    env = child_env(DIFFUSIONLAB_BACKEND="numba")
    out = subprocess.run(
        [sys.executable, "-c", "from diffusionlab.backend import BACKEND; print(BACKEND)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "numba"


def test_unknown_backend_value_fails_at_import():
    env = child_env(DIFFUSIONLAB_BACKEND="fortran")
    out = subprocess.run([sys.executable, "-c", "import diffusionlab.backend"],
                         env=env, capture_output=True, text=True)
    assert out.returncode != 0
    assert "DIFFUSIONLAB_BACKEND" in out.stderr


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_cross_backend_kernel_agreement(tmp_path):
    nb = _run_backend("numba", tmp_path / "nb.npz")
    np_ = _run_backend("numpy", tmp_path / "np.npz")
    assert str(nb["backend"]) == "numba" and str(np_["backend"]) == "numpy"
    # integer streams: exact
    assert np.array_equal(nb["raw"], np_["raw"])
    # float kernels: a few ulps of libm slack
    assert np.max(np.abs(nb["normals"] - np_["normals"])) <= 1e-12
    assert np.max(np.abs(nb["eigvals"] - np_["eigvals"])) <= 1e-12
    assert np.max(np.abs(nb["recomposed"] - np_["recomposed"])) <= 1e-12


def test_scalar_loop_source_matches_vectorized_raw():
    """The un-jitted scalar loop and the numpy path agree bitwise on words."""
    n = 512
    out_loop = np.empty(n, dtype=np.uint64)
    out_np = np.empty(n, dtype=np.uint64)
    # the mixer wraps mod 2^64 on purpose; silence numpy's scalar warning
    with np.errstate(over="ignore"):
        kernels._raw_block_loop(np.uint64(31337), np.uint64(77), np.int64(n), out_loop)
    kernels._raw_block_np(np.uint64(31337), np.uint64(77), np.int64(n), out_np)
    assert np.array_equal(out_loop, out_np)


def test_scalar_loop_source_matches_vectorized_normals():
    n = 512
    out_loop = np.empty(n, dtype=np.float64)
    out_np = np.empty(n, dtype=np.float64)
    with np.errstate(over="ignore"):
        kernels._normals_block_loop(np.uint64(5), np.uint64(0), np.int64(n), out_loop)
    kernels._normals_block_np(np.uint64(5), np.uint64(0), np.int64(n), out_np)
    assert np.max(np.abs(out_loop - out_np)) <= 1e-12


def test_active_backend_matches_numpy_reference():
    """Whichever backend is live, its public outputs track the numpy path."""
    raw_active = kernels.raw_block(2718, 300, 1024)
    out_ref = np.empty(1024, dtype=np.uint64)
    kernels._raw_block_np(np.uint64(2718), np.uint64(300), np.int64(1024), out_ref)
    assert np.array_equal(raw_active, out_ref)

    normals_active = kernels.normals_block(161803, 10, 1024)
    ref = np.empty(1024, dtype=np.float64)
    kernels._normals_block_np(np.uint64(161803), np.uint64(10), np.int64(1024), ref)
    assert np.max(np.abs(normals_active - ref)) <= 1e-12


@pytest.mark.parametrize("high", [2, 3, 6, 51, 1001, 2**31])
def test_one_integer_matches_the_block_kernel(high):
    # train draws its step index t from 1..T one at a time; more than one
    # draw at once goes through raw_block
    for seed in (0, 7, 2**63 + 5):
        one, block = RngStream(seed), RngStream(seed)
        got = [int(one.integers(1, 1, high)[0]) for _ in range(500)]
        assert got == block.integers(500, 1, high).tolist()
        assert one.counter == block.counter == 500


@pytest.mark.parametrize("counter", [2**64 - 5, 2**64 - 2])
def test_one_integer_matches_the_block_kernel_across_the_counter_wrap(counter):
    # the block kernel's uint64 counters wrap to 0 after 2**64 - 1; the
    # one-draw path keeps counting in Python ints and takes the product mod 2**64
    one, block = RngStream(99, counter), RngStream(99, counter)
    got = [int(one.integers(1, 1, 51)[0]) for _ in range(4)]
    assert got == block.integers(4, 1, 51).tolist()
    assert one.counter == counter + 4


@pytest.mark.parametrize("apq", [1e-160, 1e-320])
@pytest.mark.parametrize("sweeps", [kernels._jacobi_sweeps_loop, kernels._jacobi_sweeps_np])
def test_jacobi_skips_rotations_whose_angle_underflows(sweeps, apq):
    # a tiny a_pq against a diagonal gap of 1 makes tau^2 (or, for a
    # subnormal a_pq, tau itself) overflow; that rotation is the identity
    # and must pass without a floating-point warning
    m = np.array([[1.0, apq, 0.5], [apq, 2.0, 0.0], [0.5, 0.0, 3.0]])
    a, v = m.copy(), np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps(a, v, 1e-12 * np.linalg.norm(m), 60)
    np.testing.assert_allclose(np.sort(np.diag(a)), np.linalg.eigvalsh(m), rtol=0, atol=1e-14)
    np.testing.assert_allclose(v @ np.diag(np.diag(a)) @ v.T, m, rtol=0, atol=1e-14)
