"""Core numerics: a tape of fused nodes, the parameter layout, RNG."""

from .autodiff import ADTape, Tensor, fused, grad
from .layout import ParamLayout
from .rng import RngStream

__all__ = [
    "ADTape",
    "ParamLayout",
    "RngStream",
    "Tensor",
    "fused",
    "grad",
]
