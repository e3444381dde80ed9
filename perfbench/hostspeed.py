"""How fast the host runs right now, from a fixed calibration loop.

On a small shared host the CPU's speed switches between modes up to about
2x apart for seconds to minutes at a time, and process CPU time tracks wall
time, so wall-clock rates of unchanged code drift by 20-30 % between runs.
The benchmark times the calibration loop next to each piece of work it
measures and scales that work's wall time to reference-speed seconds: the
time it would have taken on a host where the loop takes REFERENCE_S.

The loop mixes the three kinds of work the workloads do, so that a change
of host mode that slows one kind more than another moves the loop about as
much as it moves the work: small-batch numpy calls (train's dispatch-bound
steps), a large-batch matmul (sample's forwards over thousands of chains)
and plain Python (eval's CSV parsing and per-row loops). It uses no code of
the program, so a change to the program cannot move it, and writes into
preallocated buffers, so it does not depend on the state of the allocator.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.015

_A = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
_W = np.linspace(-0.1, 0.1, 32 * 32).reshape(32, 32)
_X = np.linspace(-1.0, 1.0, 4000 * 32).reshape(4000, 32)
_Y = np.empty((4000, 32))


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes now (about 15 ms)."""
    t0 = time.perf_counter()
    for _ in range(500):
        np.tanh(_A @ _W + 0.5)
    for _ in range(6):
        np.matmul(_X, _W, out=_Y)
        np.tanh(_Y, out=_Y)
    s = 0
    for i in range(60000):
        s += i * i
    return time.perf_counter() - t0


def calibrate_median(passes: int = 9) -> float:
    """Median of several passes, for the two ends of a set-up: one pass can
    catch a slowdown of a few tens of milliseconds that the set-up does not
    share."""
    return statistics.median(calibrate() for _ in range(passes))


def reference_seconds(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s scaled by the calibration times measured just before and after it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
