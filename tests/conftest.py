"""Shared test helpers: the environment of tests that run the package in a
child interpreter, and a writer of IDX fixture files."""

import os
import struct
from pathlib import Path

import numpy as np

import diffusionlab

# The directory holding the diffusionlab package this test process imported
# (src/ in a checkout). Absolute, so a child started from a temporary
# directory runs the same code as the tests that compare against it.
PACKAGE_ROOT = str(Path(diffusionlab.__file__).resolve().parents[1])


def child_env():
    """os.environ with PACKAGE_ROOT first on PYTHONPATH.

    Existing PYTHONPATH entries are kept after it, so a relative entry such
    as `src` no longer decides what the child imports.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return env


def write_idx(path, array) -> None:
    """An IDX file of unsigned bytes: images (count, rows, cols) or labels
    (count,), in the layout data.idx_read reads."""
    a = np.asarray(array, dtype=np.uint8)
    Path(path).write_bytes(struct.pack(f">I{a.ndim}I", 0x800 | a.ndim, *a.shape) + a.tobytes())
