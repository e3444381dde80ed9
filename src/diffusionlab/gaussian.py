"""Closed-form Gaussian machinery: log-densities, KL divergence,
marginalization through affine-Gaussian kernels, and the Gaussian Bayes
rule, for scalar*I or full SPD covariances. No other module imports it; it
is the closed-form reference of acceptance criteria 2 (KL against
quadrature) and 3 (forward.py's reverse posterior against the Bayes rule).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularCovariance

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector plus covariance, either scalar*I or a full SPD matrix.

    Exactly one of scalar / matrix is set. scalar >= 0 is accepted at
    construction; density evaluation requires strict positivity.
    """

    mean: np.ndarray
    scalar: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "mean", mean)
        if (self.scalar is None) == (self.matrix is None):
            raise ValueError("exactly one of scalar / matrix covariance required")
        if self.scalar is not None:
            if self.scalar < 0.0:
                raise SingularCovariance(f"scalar covariance must be >= 0, got {self.scalar}")
        else:
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != mean.size:
                raise ShapeMismatch(f"covariance shape {m.shape} vs dimension {mean.size}")
            if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
                raise SingularCovariance("covariance matrix not symmetric")
            object.__setattr__(self, "matrix", m)

    @staticmethod
    def isotropic(mean, scalar: float) -> "GaussianSpec":
        return GaussianSpec(np.asarray(mean, dtype=np.float64), scalar=float(scalar))

    @staticmethod
    def full(mean, matrix) -> "GaussianSpec":
        return GaussianSpec(np.asarray(mean, dtype=np.float64), matrix=matrix)

    @property
    def d(self) -> int:
        return self.mean.size

    @property
    def is_scalar(self) -> bool:
        return self.scalar is not None

    def cov_matrix(self) -> np.ndarray:
        if self.scalar is not None:
            return self.scalar * np.eye(self.d)
        return self.matrix


def _cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance not positive definite") from None


def gaussian_logpdf(x, g: GaussianSpec) -> float:
    """ln N(x; mean, cov) = -(d/2)ln(2pi) - (1/2)ln det Q - (1/2)(x-v)^T Q^-1 (x-v)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != g.d:
        raise ShapeMismatch(f"point dimension {x.size} vs spec dimension {g.d}")
    r = x - g.mean
    if g.is_scalar:
        s = g.scalar
        if s <= 0.0:
            raise SingularCovariance("scalar covariance must be > 0 for density evaluation")
        return -0.5 * (g.d * (_LOG_2PI + math.log(s)) + float(r @ r) / s)
    L = _cholesky(g.matrix)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    y = np.linalg.solve(L, r)
    return -0.5 * (g.d * _LOG_2PI + logdet + float(y @ y))


def gaussian_kl(p: GaussianSpec, q: GaussianSpec) -> float:
    """KL(p || q) between Gaussians of equal dimension, q positive definite."""
    if p.d != q.d:
        raise ShapeMismatch(f"dimensions differ: {p.d} vs {q.d}")
    d = p.d
    dm = q.mean - p.mean
    if p.is_scalar and q.is_scalar:
        s1, s2 = p.scalar, q.scalar
        if s1 <= 0.0 or s2 <= 0.0:
            raise SingularCovariance("KL requires positive-definite covariances")
        return 0.5 * (d * math.log(s2 / s1) - d + d * s1 / s2 + float(dm @ dm) / s2)
    s1m, s2m = p.cov_matrix(), q.cov_matrix()
    L1, L2 = _cholesky(s1m), _cholesky(s2m)
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
    logdet2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
    w = np.linalg.solve(L2, s1m)
    trace = float(np.trace(np.linalg.solve(L2.T, w)))
    y = np.linalg.solve(L2, dm)
    return 0.5 * (logdet2 - logdet1 - d + trace + float(y @ y))


def _map_parts(A, noise_cov, d_in: int):
    # normalize the affine map: scalar A means a*I, scalar noise means s*I
    a_scalar = None
    a_mat = None
    if np.isscalar(A):
        a_scalar = float(A)
        d_out = d_in
    else:
        a_mat = np.asarray(A, dtype=np.float64)
        if a_mat.ndim != 2 or a_mat.shape[1] != d_in:
            raise ShapeMismatch(f"map shape {a_mat.shape} vs input dimension {d_in}")
        d_out = a_mat.shape[0]
    n_scalar = None
    n_mat = None
    if np.isscalar(noise_cov):
        n_scalar = float(noise_cov)
        if n_scalar < 0.0:
            raise SingularCovariance(f"noise covariance must be >= 0, got {n_scalar}")
    else:
        n_mat = np.asarray(noise_cov, dtype=np.float64)
        if n_mat.shape != (d_out, d_out):
            raise ShapeMismatch(f"noise covariance shape {n_mat.shape} vs dimension {d_out}")
    return a_scalar, a_mat, n_scalar, n_mat, d_out


def gaussian_marginal(inner: GaussianSpec, A, shift, noise_cov) -> GaussianSpec:
    """Marginal of x where x | y ~ N(Ay + shift, noise_cov) and y ~ inner.

    Returns N(A mu2 + shift, A Sigma2 A^T + Sigma1).
    """
    a_s, a_m, n_s, n_m, d_out = _map_parts(A, noise_cov, inner.d)
    shift = np.asarray(shift, dtype=np.float64).reshape(-1)
    if shift.size != d_out:
        raise ShapeMismatch(f"shift dimension {shift.size} vs output dimension {d_out}")
    if a_s is not None and n_s is not None and inner.is_scalar:
        return GaussianSpec.isotropic(a_s * inner.mean + shift, a_s * a_s * inner.scalar + n_s)
    a_mat = a_m if a_m is not None else a_s * np.eye(inner.d)
    n_mat = n_m if n_m is not None else n_s * np.eye(d_out)
    cov = a_mat @ inner.cov_matrix() @ a_mat.T + n_mat
    return GaussianSpec.full(a_mat @ inner.mean + shift, 0.5 * (cov + cov.T))


def gaussian_posterior(x, prior: GaussianSpec, A, shift, noise_cov) -> GaussianSpec:
    """Gaussian Bayes rule: the law of y given x under x | y ~ N(Ay + shift, noise_cov).

    With S3 = Sigma2 A^T (A Sigma2 A^T + Sigma1)^-1 the result is
    N(S3 (x - A^T mu2 - shift) + mu2, Sigma2 - S3 A Sigma2^T). The A^T mu2
    term only type-checks for square A, so non-square maps are rejected.
    """
    a_s, a_m, n_s, n_m, d_out = _map_parts(A, noise_cov, prior.d)
    if d_out != prior.d:
        raise ShapeMismatch("posterior requires a square map")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != d_out:
        raise ShapeMismatch(f"observation dimension {x.size} vs {d_out}")
    shift = np.asarray(shift, dtype=np.float64).reshape(-1)
    if shift.size != d_out:
        raise ShapeMismatch(f"shift dimension {shift.size} vs {d_out}")
    if a_s is not None and n_s is not None and prior.is_scalar:
        denom = a_s * a_s * prior.scalar + n_s
        if denom <= 0.0:
            raise SingularCovariance("marginal covariance not positive definite")
        s3 = prior.scalar * a_s / denom
        mean = s3 * (x - a_s * prior.mean - shift) + prior.mean
        return GaussianSpec.isotropic(mean, prior.scalar - s3 * a_s * prior.scalar)
    a_mat = a_m if a_m is not None else a_s * np.eye(prior.d)
    n_mat = n_m if n_m is not None else n_s * np.eye(d_out)
    s2 = prior.cov_matrix()
    middle = a_mat @ s2 @ a_mat.T + n_mat
    L = _cholesky(0.5 * (middle + middle.T))
    # S3 = Sigma2 A^T middle^-1, computed via two triangular solves
    s3 = np.linalg.solve(L.T, np.linalg.solve(L, a_mat @ s2.T)).T
    mean = s3 @ (x - a_mat.T @ prior.mean - shift) + prior.mean
    cov = s2 - s3 @ a_mat @ s2.T
    return GaussianSpec.full(mean, 0.5 * (cov + cov.T))
