"""Core numerics: tensors with reverse-mode AD, SPD linear algebra, RNG."""

from . import autodiff as ops
from .autodiff import ADTape, Tensor, grad
from .layout import ParamLayout
from .linalg import jacobi_eigh, spd_sqrt
from .rng import RngStream

__all__ = [
    "ADTape",
    "ParamLayout",
    "RngStream",
    "Tensor",
    "grad",
    "jacobi_eigh",
    "ops",
    "spd_sqrt",
]
