"""Steady-state predictors: moments, curvature, stability, and MSD."""

import math

import numpy as np
import pytest

from rtga.filters import RtgaParams
from rtga.noise import NoiseSpec, sample_ggd
from rtga.theory import (
    TheoryInputs,
    empirical_gradient_at_optimum,
    ggd_abs_moment,
    gradient_noise_covariance,
    hessian_at_optimum,
    max_step_size,
    steady_state_msd,
)


def make_inputs(
    w_o=(-0.6, 0.8),
    sigma_i2=0.1,
    sigma_o2=0.1,
    alpha=2.0,
    a=-100.0,
    b=2.0,
    c=0.1,
    R=None,
):
    w_o = np.asarray(w_o, dtype=float)
    if R is None:
        R = np.eye(w_o.size)
    phi = sigma_o2 / sigma_i2 if sigma_i2 > 0 else 1.0
    params = RtgaParams(a=a, b=b, c=c, mu=0.01, phi=phi)
    return TheoryInputs(
        R=R, w_o=w_o, sigma_i2=sigma_i2, sigma_o2=sigma_o2,
        alpha=alpha, params=params,
    )


def test_moment_closed_forms():
    assert ggd_abs_moment(1.0, 2.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
    assert ggd_abs_moment(1.0, 1.0, 1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # Gaussian fourth absolute moment is 3 sigma^4.
    assert ggd_abs_moment(4.0, 2.0, 0.5) == pytest.approx(3 * 0.5**4, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_second_moment_is_variance_for_every_shape(alpha):
    assert ggd_abs_moment(2.0, alpha, 0.7) == pytest.approx(0.49, rel=1e-12)


def test_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        ggd_abs_moment(-0.5, 2.0, 1.0)


def test_moment_zero_scale():
    assert ggd_abs_moment(0.0, 2.0, 0.0) == 1.0
    assert ggd_abs_moment(2.0, 2.0, 0.0) == 0.0


def test_moments_match_sampler():
    rng = np.random.default_rng(51)
    for alpha in (1.0, 2.0):
        x = np.abs(sample_ggd(alpha, 0.64, rng, 1_000_000))
        for m in (1, 2, 3):
            mc = float(np.mean(x**m))
            assert mc == pytest.approx(ggd_abs_moment(m, alpha, 0.8), rel=0.02)


def test_inputs_validation():
    with pytest.raises(ValueError, match="symmetric"):
        make_inputs(R=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        make_inputs(R=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        make_inputs(R=np.eye(3))
    with pytest.raises(ValueError, match="phi"):
        TheoryInputs(
            R=np.eye(2), w_o=np.array([1.0, 0.0]), sigma_i2=0.1, sigma_o2=0.2,
            alpha=2.0, params=RtgaParams(a=-100.0, b=2.0, c=0.1, mu=0.01, phi=1.0),
        )
    with pytest.raises(ValueError, match="alpha"):
        make_inputs(alpha=-1.0)
    # any order: the steady state is one L x L solve
    assert math.isfinite(steady_state_msd(make_inputs(w_o=np.zeros(65) + 0.1), 0.05))
    with pytest.raises(ValueError, match="full shape"):
        TheoryInputs(
            R=np.eye(2), w_o=np.array([1.0, 0.0]), sigma_i2=0.1, sigma_o2=0.1,
            alpha=2.0, params=RtgaParams(b=2.0, c=0.1, mu=0.01, family="exp"),
        )


def test_normalization_scale_equals_input_sigma():
    # Var(e_o) = sigma_o^2 + ||w_o||^2 sigma_i^2 and ||w_bar||^2 =
    # phi + ||w_o||^2, so the normalized error scale is exactly sigma_i.
    t = make_inputs(sigma_i2=0.3, sigma_o2=0.6)
    rng = np.random.default_rng(52)
    u = rng.normal(scale=math.sqrt(0.3), size=(400_000, 2))
    v = rng.normal(scale=math.sqrt(0.6), size=400_000)
    et = (v - u @ t.w_o) / math.sqrt(t.wbar2)
    assert float(et.std()) == pytest.approx(math.sqrt(0.3), rel=0.01)


def test_hessian_symmetric_and_pd_in_regime():
    t = make_inputs()
    H = hessian_at_optimum(t)
    np.testing.assert_array_equal(H, H.T)
    assert np.linalg.eigvalsh(H).min() > 0


def test_gradient_noise_covariance_symmetric():
    t = make_inputs(R=np.array([[1.0, 0.3], [0.3, 2.0]]))
    S = gradient_noise_covariance(t)
    np.testing.assert_array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= 0


def test_b_equals_two_skips_singular_moment():
    # At b = 2 the (b - 2) term drops exactly; for a Laplace shape the
    # general expression would hit a gamma pole, so the special case must
    # keep the Hessian finite.
    t = make_inputs(alpha=1.0, b=2.0)
    H = hessian_at_optimum(t)
    assert np.all(np.isfinite(H))


def test_moment_pole_is_reported():
    t = make_inputs(alpha=1.5, b=1.5)
    with pytest.raises(ValueError, match="pole"):
        hessian_at_optimum(t)


def test_max_step_size_zero_input_noise_closed_form():
    # sigma_i^2 = 0 leaves H = c R / ||w_bar||^2, so the bound is
    # 2 ||w_bar||^2 / (c lambda_max(R)).
    R = np.diag([1.0, 2.0])
    t = make_inputs(sigma_i2=0.0, sigma_o2=0.0, R=R, c=0.25)
    expected = 2 * t.wbar2 / (0.25 * 2.0)
    assert max_step_size(t) == pytest.approx(expected, rel=1e-12)


def test_max_step_size_rejects_non_positive_curvature():
    # a Laplace-shaped error at b = 1.9 leaves H negative definite
    with pytest.raises(ValueError, match="non-positive curvature"):
        max_step_size(make_inputs(alpha=1.0, b=1.9))


def test_msd_rejects_non_positive_curvature_as_the_step_bound_does():
    # no step is stable, so the MSD does not call mu = 0.05 merely too large
    with pytest.raises(ValueError, match="non-positive curvature"):
        steady_state_msd(make_inputs(alpha=1.0, b=1.9), 0.05)


@pytest.mark.parametrize("mu", [0.0, -0.01])
def test_msd_non_positive_step_raises(mu):
    with pytest.raises(ValueError, match="divergent"):
        steady_state_msd(make_inputs(), mu)


def test_covariance_vanishes_without_input_noise():
    t = make_inputs(sigma_i2=0.0, sigma_o2=0.0)
    np.testing.assert_array_equal(gradient_noise_covariance(t), np.zeros((2, 2)))


def test_msd_monotone_in_step_size():
    t = make_inputs()
    mu_max = max_step_size(t)
    grid = np.linspace(0.02, 0.5, 8) * mu_max
    vals = [steady_state_msd(t, float(m)) for m in grid]
    assert all(v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_msd_divergent_step_raises():
    t = make_inputs()
    with pytest.raises(ValueError, match="divergent"):
        steady_state_msd(t, 2.5 * max_step_size(t))


@pytest.mark.parametrize("b", [1.9, 2.0, 2.4])
def test_step_bound_and_msd_share_one_stability_rule(b):
    # theory mode's comparison inputs at L = 9: the bound is 2 / lambda_max(H),
    # and the MSD is finite just below it and divergent just above it
    L = 9
    t = make_inputs(w_o=np.ones(L) / math.sqrt(L), b=b)
    bound = max_step_size(t)
    assert bound == pytest.approx(
        2.0 / np.linalg.eigvalsh(hessian_at_optimum(t)).max(), rel=1e-12, abs=0
    )
    assert math.isfinite(steady_state_msd(t, 0.99 * bound))
    with pytest.raises(ValueError, match="divergent"):
        steady_state_msd(t, 1.01 * bound)


def _random_inputs(L, b, power, seed=53):
    # power scales R and leaves the noise terms of H and S as they are
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((L, L))
    R = power * (G @ G.T / L + 0.5 * np.eye(L))
    return make_inputs(w_o=rng.standard_normal(L), R=(R + R.T) / 2, b=b)


def _kronecker_msd(t, mu):
    # the L^2 x L^2 fixed point (I - A kron A) vec(Y) = vec(I), A = I - mu H
    H = hessian_at_optimum(t)
    L = H.shape[0]
    A = np.eye(L) - mu * H
    y = np.linalg.solve(np.eye(L * L) - np.kron(A, A), np.eye(L).ravel())
    return mu * mu * float(gradient_noise_covariance(t).ravel() @ y)


@pytest.mark.parametrize("L", [2, 5, 9])
@pytest.mark.parametrize("b", [1.9, 2.0, 2.4])
@pytest.mark.parametrize("power", [1.0, 0.7])
def test_msd_matches_kronecker_fixed_point(L, b, power):
    t = _random_inputs(L, b, power)
    for mu in np.geomspace(1e-3, max_step_size(t) / 2, 6):
        assert steady_state_msd(t, mu) == pytest.approx(_kronecker_msd(t, mu), rel=1e-9, abs=0)


@pytest.mark.parametrize("L", [2, 5, 9])
@pytest.mark.parametrize("b", [1.9, 2.0, 2.4])
@pytest.mark.parametrize("power", [1.0, 0.7])
def test_msd_matches_eigen_decomposition_at_tiny_step(L, b, power):
    # in H's eigenbasis the MSD is mu sum_i (Q^T S Q)_ii / (lam_i (2 - mu lam_i));
    # forming I - A^2 by subtraction, or the Kronecker solve, loses up to 3e-9 here
    t = _random_inputs(L, b, power)
    mu = 1e-5
    lam, Q = np.linalg.eigh(hessian_at_optimum(t))
    proj = np.diag(Q.T @ gradient_noise_covariance(t) @ Q)
    expected = mu * float(np.sum(proj / (lam * (2.0 - mu * lam))))
    assert steady_state_msd(t, mu) == pytest.approx(expected, rel=1e-12, abs=0)


def test_msd_scales_quadratically_for_tiny_steps():
    # For mu -> 0 the fixed point behaves like mu tr(S H^-1)/2, so the
    # ratio MSD/mu approaches a constant.
    t = make_inputs()
    r1 = steady_state_msd(t, 1e-5) / 1e-5
    r2 = steady_state_msd(t, 2e-5) / 2e-5
    assert r1 == pytest.approx(r2, rel=1e-3)


def test_empirical_gradient_zero_noise_is_exactly_zero():
    t = make_inputs(sigma_i2=0.0, sigma_o2=0.0)
    g = empirical_gradient_at_optimum(t, 1000, seed=1)
    np.testing.assert_array_equal(g, np.zeros(2))


def test_empirical_gradient_small_at_optimum():
    t = make_inputs()
    g = empirical_gradient_at_optimum(t, 200_000, seed=2)
    assert np.all(np.abs(g) < 1e-3)


def test_empirical_gradient_with_explicit_noise_pair():
    t = make_inputs()
    noise = (NoiseSpec("gaussian", 0.1), NoiseSpec("gaussian", 0.1))
    g = empirical_gradient_at_optimum(t, 100_000, seed=3, noise=noise)
    assert np.all(np.abs(g) < 2e-3)


def test_empirical_gradient_reproducible():
    t = make_inputs()
    g1 = empirical_gradient_at_optimum(t, 5000, seed=9)
    g2 = empirical_gradient_at_optimum(t, 5000, seed=9)
    np.testing.assert_array_equal(g1, g2)
