import math

import numpy as np
import pytest
from scipy import stats

from diffusionlab.errors import ShapeMismatch, SingularCovariance
from diffusionlab.gaussian import (
    GaussianSpec,
    gaussian_kl,
    gaussian_logpdf,
    gaussian_marginal,
    gaussian_posterior,
)
from diffusionlab.schedule import linear_schedule


def test_logpdf_standard_normal_at_origin():
    g = GaussianSpec.isotropic([0.0], 1.0)
    assert gaussian_logpdf([0.0], g) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_logpdf_at_mean_unit_cov_d2():
    g = GaussianSpec.isotropic([0.3, -0.7], 1.0)
    assert gaussian_logpdf([0.3, -0.7], g) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_logpdf_full_matches_scalar():
    mean = np.array([0.5, -1.0, 2.0])
    x = np.array([0.1, 0.2, 0.3])
    a = gaussian_logpdf(x, GaussianSpec.isotropic(mean, 0.7))
    b = gaussian_logpdf(x, GaussianSpec.full(mean, 0.7 * np.eye(3)))
    assert a == pytest.approx(b, abs=1e-12)


def test_logpdf_integrates_to_one():
    # trapezoid quadrature over [-8, 8] at step 1e-3
    g = GaussianSpec.isotropic([0.4], 1.3)
    xs = np.arange(-8.0, 8.0 + 1e-9, 1e-3)
    ys = np.array([math.exp(gaussian_logpdf([x], g)) for x in xs])
    total = np.trapezoid(ys, xs)
    assert abs(total - 1.0) <= 1e-6


def test_logpdf_rejects_degenerate():
    g = GaussianSpec.isotropic([0.0], 0.0)
    with pytest.raises(SingularCovariance):
        gaussian_logpdf([0.0], g)
    sing = GaussianSpec.full([0.0, 0.0], np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance):
        gaussian_logpdf([0.0, 0.0], sing)


def test_logpdf_dimension_check():
    g = GaussianSpec.isotropic([0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_logpdf([0.0], g)


def test_spec_validation():
    with pytest.raises(SingularCovariance):
        GaussianSpec.isotropic([0.0], -1.0)
    with pytest.raises(SingularCovariance):
        GaussianSpec.full([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        GaussianSpec.full([0.0, 0.0], np.eye(3))
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(2))


def test_kl_identical_is_zero():
    p = GaussianSpec.isotropic([1.0, 2.0], 0.5)
    assert gaussian_kl(p, p) == 0.0
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    q = GaussianSpec.full([0.1, -0.2], cov)
    assert gaussian_kl(q, q) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_shift():
    p = GaussianSpec.isotropic([0.0], 1.0)
    q = GaussianSpec.isotropic([1.0], 1.0)
    assert gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = rng.normal(size=(d, d))
        c1 = m @ m.T + 0.1 * np.eye(d)
        m = rng.normal(size=(d, d))
        c2 = m @ m.T + 0.1 * np.eye(d)
        p = GaussianSpec.full(rng.normal(size=d), c1)
        q = GaussianSpec.full(rng.normal(size=d), c2)
        assert gaussian_kl(p, q) >= 0.0


def test_kl_matches_monte_carlo_d3():
    # estimate E_p[ln p - ln q] with scipy densities over 1e6 draws
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3))
    c1 = m @ m.T + 0.5 * np.eye(3)
    m = rng.normal(size=(3, 3))
    c2 = m @ m.T + 0.5 * np.eye(3)
    mu1, mu2 = rng.normal(size=3), rng.normal(size=3)
    p = GaussianSpec.full(mu1, c1)
    q = GaussianSpec.full(mu2, c2)

    n = 1_000_000
    draws = rng.multivariate_normal(mu1, c1, size=n)
    lp = stats.multivariate_normal(mu1, c1).logpdf(draws)
    lq = stats.multivariate_normal(mu2, c2).logpdf(draws)
    ratios = lp - lq
    est = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1)) / math.sqrt(n)
    assert abs(gaussian_kl(p, q) - est) <= 3.0 * se


def test_kl_mixed_forms():
    p = GaussianSpec.isotropic([0.2, -0.4], 0.8)
    q = GaussianSpec.full([0.0, 0.0], np.array([[1.5, 0.2], [0.2, 0.9]]))
    full_p = GaussianSpec.full(p.mean, 0.8 * np.eye(2))
    assert gaussian_kl(p, q) == pytest.approx(gaussian_kl(full_p, q), abs=1e-12)


def test_kl_requires_positive_definite():
    p = GaussianSpec.isotropic([0.0], 0.0)
    q = GaussianSpec.isotropic([0.0], 1.0)
    with pytest.raises(SingularCovariance):
        gaussian_kl(p, q)
    with pytest.raises(SingularCovariance):
        gaussian_kl(q, p)
    with pytest.raises(ShapeMismatch):
        gaussian_kl(q, GaussianSpec.isotropic([0.0, 0.0], 1.0))


def test_marginal_identity_map_adds_covariances():
    inner = GaussianSpec.isotropic([1.0, -2.0], 0.3)
    out = gaussian_marginal(inner, 1.0, [0.0, 0.0], 0.5)
    np.testing.assert_allclose(out.mean, inner.mean)
    assert out.scalar == pytest.approx(0.8, abs=1e-15)


def test_marginal_diffusion_single_step_composition():
    # A = sqrt(alpha_t) I applied to N(sqrt(abar_{t-1}) x0, (1 - abar_{t-1}) I)
    # with noise (1 - alpha_t) I lands on N(sqrt(abar_t) x0, (1 - abar_t) I)
    sch = linear_schedule(100)
    x0 = np.array([0.7, -0.3, 1.1])
    for t in (2, 37, 100):
        a, ab_prev, ab = sch.a(t), sch.abar(t - 1), sch.abar(t)
        inner = GaussianSpec.isotropic(math.sqrt(ab_prev) * x0, 1.0 - ab_prev)
        out = gaussian_marginal(inner, math.sqrt(a), np.zeros(3), 1.0 - a)
        np.testing.assert_allclose(out.mean, math.sqrt(ab) * x0, rtol=1e-14)
        assert out.scalar == pytest.approx(1.0 - ab, rel=1e-14)


def test_marginal_matches_two_stage_monte_carlo():
    # y ~ N(mu2, s2), x = a y + mu1 + sqrt(s1) z
    rng = np.random.default_rng(23)
    mu2, s2, a, mu1, s1 = 0.4, 1.7, -0.6, 0.9, 0.8
    out = gaussian_marginal(GaussianSpec.isotropic([mu2], s2), a, [mu1], s1)

    n = 1_000_000
    y = mu2 + math.sqrt(s2) * rng.standard_normal(n)
    x = a * y + mu1 + math.sqrt(s1) * rng.standard_normal(n)
    mean_se = x.std(ddof=1) / math.sqrt(n)
    var_se = x.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert abs(out.mean[0] - x.mean()) <= 3.0 * mean_se
    assert abs(out.scalar - x.var(ddof=1)) <= 3.0 * var_se


def test_marginal_full_matrix_path():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 3))
    s2 = rng.normal(size=(3, 3))
    s2 = s2 @ s2.T + 0.2 * np.eye(3)
    s1 = np.diag([0.4, 0.9])
    mu2, mu1 = rng.normal(size=3), rng.normal(size=2)
    out = gaussian_marginal(GaussianSpec.full(mu2, s2), A, mu1, s1)
    np.testing.assert_allclose(out.mean, A @ mu2 + mu1, rtol=1e-14)
    np.testing.assert_allclose(out.matrix, A @ s2 @ A.T + s1, rtol=1e-13)


def test_marginal_chaining_is_one_affine_step():
    rng = np.random.default_rng(5)
    inner = GaussianSpec.full(rng.normal(size=2), np.diag([0.5, 1.5]))
    A1, b1 = rng.normal(size=(3, 2)), rng.normal(size=3)
    S1 = np.diag([0.2, 0.3, 0.4])
    A2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
    S2 = np.diag([0.6, 0.7])

    two = gaussian_marginal(gaussian_marginal(inner, A1, b1, S1), A2, b2, S2)
    one = gaussian_marginal(inner, A2 @ A1, A2 @ b1 + b2, A2 @ S1 @ A2.T + S2)
    np.testing.assert_allclose(two.mean, one.mean, rtol=1e-13)
    np.testing.assert_allclose(two.matrix, one.matrix, rtol=1e-13)


def test_marginal_dimension_checks():
    inner = GaussianSpec.isotropic([0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_marginal(inner, np.ones((2, 3)), [0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_marginal(inner, 1.0, [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_marginal(inner, np.ones((3, 2)), [0.0, 0.0, 0.0], np.eye(2))


def test_posterior_symmetric_fusion():
    prior = GaussianSpec.isotropic([0.0, 0.0], 1.0)
    x = np.array([0.8, -0.4])
    post = gaussian_posterior(x, prior, 1.0, [0.0, 0.0], 1.0)
    np.testing.assert_allclose(post.mean, x / 2.0, rtol=1e-15)
    assert post.scalar == pytest.approx(0.5, abs=1e-15)


def test_posterior_diffusion_coefficients():
    # alpha_t = 0.9, abar_{t-1} = 0.9: both closed-form coefficients equal
    # sqrt(0.9) * 0.1 / 0.19 = 0.49930699897395464
    a, ab_prev = 0.9, 0.9
    ab = a * ab_prev
    c_xt = math.sqrt(a) * (1 - ab_prev) / (1 - ab)
    c_x0 = math.sqrt(ab_prev) * (1 - a) / (1 - ab)
    assert c_xt == pytest.approx(0.49930699897395464, abs=1e-15)
    assert c_x0 == pytest.approx(0.49930699897395464, abs=1e-15)

    x0 = np.array([0.25, -0.5])
    xt = np.array([1.0, 0.75])
    prior = GaussianSpec.isotropic(math.sqrt(ab_prev) * x0, 1.0 - ab_prev)
    post = gaussian_posterior(xt, prior, math.sqrt(a), np.zeros(2), 1.0 - a)
    np.testing.assert_allclose(post.mean, c_xt * xt + c_x0 * x0, atol=1e-12)
    beta_tilde = (1 - ab_prev) / (1 - ab) * (1 - a)
    assert post.scalar == pytest.approx(beta_tilde, abs=1e-12)


def test_posterior_monte_carlo_ks():
    # rejection sampling near x* against the returned 1-D posterior CDF
    rng = np.random.default_rng(31)
    mu2, s2, a, mu1, s1, x_star, h = 0.3, 1.2, 0.8, -0.1, 0.5, 0.7, 0.005
    y = mu2 + math.sqrt(s2) * rng.standard_normal(1_000_000)
    x = a * y + mu1 + math.sqrt(s1) * rng.standard_normal(1_000_000)
    kept = y[np.abs(x - x_star) < h]
    assert kept.size > 1000

    post = gaussian_posterior([x_star], GaussianSpec.isotropic([mu2], s2), a, [mu1], s1)
    result = stats.kstest(kept, "norm", args=(post.mean[0], math.sqrt(post.scalar)))
    crit_99 = 1.628 / math.sqrt(kept.size)
    assert result.statistic < crit_99


def test_posterior_full_covariance_symmetric_map():
    # with symmetric A the printed mean formula is exact; check the density
    # identity ln p(x) + ln p(y|x) == ln p(y) + ln p(x|y) at random points
    rng = np.random.default_rng(13)
    d = 3
    m = rng.normal(size=(d, d))
    s2 = m @ m.T + 0.4 * np.eye(d)
    m = rng.normal(size=(d, d))
    s1 = m @ m.T + 0.4 * np.eye(d)
    A = rng.normal(size=(d, d))
    A = 0.5 * (A + A.T)
    mu2, mu1 = rng.normal(size=d), rng.normal(size=d)

    prior = GaussianSpec.full(mu2, s2)
    marg = gaussian_marginal(prior, A, mu1, s1)
    for _ in range(5):
        x, y = rng.normal(size=d), rng.normal(size=d)
        post = gaussian_posterior(x, prior, A, mu1, s1)
        kernel = GaussianSpec.full(A @ y + mu1, s1)
        lhs = gaussian_logpdf(x, marg) + gaussian_logpdf(y, post)
        rhs = gaussian_logpdf(y, prior) + gaussian_logpdf(x, kernel)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_posterior_composed_with_marginal_recovers_prior():
    # averaging the posterior kernel over the x-marginal gives back the prior
    mu2, s2, a, mu1, s1 = 0.4, 1.3, 0.7, -0.2, 0.6
    prior = GaussianSpec.isotropic([mu2], s2)
    marg = gaussian_marginal(prior, a, [mu1], s1)
    # posterior mean is affine in x; read its slope off the x=0 probe
    probe = gaussian_posterior([0.0], prior, a, [mu1], s1)
    s3 = (probe.mean[0] - mu2) / (0.0 - a * mu2 - mu1)
    recovered = gaussian_marginal(marg, s3, mu2 - s3 * (a * mu2 + mu1), probe.scalar)
    assert recovered.mean[0] == pytest.approx(mu2, abs=1e-12)
    assert recovered.scalar == pytest.approx(s2, abs=1e-12)


def test_posterior_rejects_bad_inputs():
    prior = GaussianSpec.isotropic([0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_posterior([0.0, 0.0], prior, np.ones((3, 2)), [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_posterior([0.0], prior, 1.0, [0.0, 0.0], 1.0)
    with pytest.raises(SingularCovariance):
        gaussian_posterior([0.0, 0.0], GaussianSpec.isotropic([0.0, 0.0], 0.0), 1.0, [0.0, 0.0], 0.0)
