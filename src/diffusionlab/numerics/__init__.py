"""Core numerics: a tape of fused nodes, SPD linear algebra, RNG."""

from .autodiff import ADTape, Tensor, fused, grad
from .layout import ParamLayout
from .linalg import jacobi_eigh, spd_sqrt
from .rng import RngStream

__all__ = [
    "ADTape",
    "ParamLayout",
    "RngStream",
    "Tensor",
    "fused",
    "grad",
    "jacobi_eigh",
    "spd_sqrt",
]
