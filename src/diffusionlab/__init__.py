"""diffusionlab: a desk-scale denoising diffusion laboratory.

Training, sampling, noise schedules, Gaussian closed forms, and evaluation
metrics over a minimal pure-numpy numeric core. See README for the CLI.
"""

__version__ = "0.1.0"

# the one numeric implementation; run records name it
BACKEND = "numpy"

__all__ = ["BACKEND", "__version__"]
