"""Shared helpers for tests that run the package in a child interpreter."""

import os
from pathlib import Path

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
