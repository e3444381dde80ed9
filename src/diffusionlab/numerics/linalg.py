"""Symmetric eigendecomposition (cyclic Jacobi) and the SPD matrix root."""

import numpy as np

from ..errors import IndefiniteMatrix, NotConverged, NotSymmetric
from . import kernels

# eigenvalues below this are an error, between this and zero they clamp to 0
_INDEFINITE_TOL = -1e-6
_SYMMETRY_TOL = 1e-10
_OFFDIAG_TOL = 1e-12
_MAX_SWEEPS = 60


def jacobi_eigh(m: np.ndarray, tol: float = _OFFDIAG_TOL, max_sweeps: int = _MAX_SWEEPS):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric m.

    Cyclic Jacobi sweeps until the off-diagonal Frobenius norm drops below
    tol * max(1, ||m||_F). Columns of the returned matrix are eigenvectors.
    Raises NotConverged if the norm is still above that after max_sweeps.
    """
    a = np.array(m, dtype=np.float64, copy=True)
    d = a.shape[0]
    v = np.eye(d)
    tol_abs = tol * max(1.0, float(np.linalg.norm(a)))
    sweeps = kernels.jacobi_sweeps(a, v, tol_abs, max_sweeps)
    off = float(np.sqrt(2.0 * np.sum(np.square(a[np.triu_indices(d, 1)]))))
    if off > tol_abs:  # the norm, not the count: the last sweep may converge
        raise NotConverged(f"Jacobi stopped after {sweeps} sweeps, off-diagonal norm {off:.3e}")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a symmetric positive semidefinite matrix.

    S is symmetric with S @ S = m up to a Frobenius residual of
    1e-8 * (1 + ||m||_F). Eigenvalues in [-1e-6, 0) clamp to zero; below
    that the matrix is rejected as indefinite.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] and float(np.max(np.abs(m - m.T))) > _SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    sym = 0.5 * (m + m.T)
    w, v = jacobi_eigh(sym)
    if w.size and float(w[0]) < _INDEFINITE_TOL:
        raise IndefiniteMatrix(f"eigenvalue {w[0]:.3e} below {_INDEFINITE_TOL}")
    w = np.maximum(w, 0.0)
    s = (v * np.sqrt(w)) @ v.T
    return 0.5 * (s + s.T)
