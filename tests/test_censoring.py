"""Censoring threshold, scale tracking, and gating decisions."""

import numpy as np
import pytest
from scipy import special

from rtga.censoring import (
    MAD_FACTOR,
    CensorConfig,
    ScaleState,
    censor_decision,
    censor_threshold,
    update_scale,
)

# kappa = sqrt(2) erfinv(p); the 0.5 value is the normal third quartile.
KAPPA_03 = 0.3853204664075676
KAPPA_05 = 0.6744897501960818
KAPPA_07 = 1.0364333894937896


def test_threshold_frozen_values():
    # bitwise: the censoring gate and the output digests see these floats
    assert censor_threshold(0.3) == KAPPA_03
    assert censor_threshold(0.5) == KAPPA_05
    assert censor_threshold(0.7) == KAPPA_07
    assert censor_threshold(0.0) == 0.0


def test_threshold_matches_scipy_on_grid():
    for p in np.linspace(0.01, 0.99, 25):
        expected = np.sqrt(2.0) * special.erfinv(p)
        assert censor_threshold(float(p)) == pytest.approx(expected, abs=1e-10)


def test_threshold_is_increasing():
    grid = [censor_threshold(p) for p in np.linspace(0.0, 0.95, 20)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        CensorConfig(p_ce=1.0)
    with pytest.raises(ValueError):
        CensorConfig(p_ce=-0.1)
    with pytest.raises(ValueError):
        CensorConfig(p_ce=0.5, window=6)
    with pytest.raises(ValueError):
        CensorConfig(p_ce=0.5, window=16)
    with pytest.raises(ValueError):
        CensorConfig(p_ce=0.5, tau=0.0)
    with pytest.raises(ValueError):
        CensorConfig(p_ce=0.5, estimator="mad")
    cfg = CensorConfig(p_ce=0.5)
    assert cfg.active and cfg.kappa == pytest.approx(KAPPA_05, abs=1e-12)
    assert not CensorConfig(p_ce=0.0).active


def test_decision_small_errors_censored():
    # |e| below kappa sigma is skipped; at or above it updates.
    assert censor_decision(0.5, kappa=1.0, sigma_e=1.0) is True
    assert censor_decision(-0.5, kappa=1.0, sigma_e=1.0) is True
    assert censor_decision(1.5, kappa=1.0, sigma_e=1.0) is False
    assert censor_decision(-1.5, kappa=1.0, sigma_e=1.0) is False


def test_decision_expected_rate_gaussian():
    # For N(0, 1) errors and a converged unit scale, P(censor) ~ p_ce.
    rng = np.random.default_rng(21)
    e = rng.standard_normal(200_000)
    for p_ce in (0.3, 0.5, 0.7):
        k = censor_threshold(p_ce)
        rate = np.mean(np.abs(e) < k)
        assert rate == pytest.approx(p_ce, abs=0.01)


def test_warmup_no_ready_until_window_filled():
    cfg = CensorConfig(p_ce=0.5, window=9)
    state = ScaleState()
    rng = np.random.default_rng(22)
    for k in range(8):
        state = update_scale(state, float(rng.standard_normal()), cfg)
        assert not state.ready
    state = update_scale(state, float(rng.standard_normal()), cfg)
    assert state.ready


def test_warmup_initializes_from_median():
    cfg = CensorConfig(p_ce=0.5, window=9, estimator="robust_median")
    errors = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0]
    state = ScaleState()
    for e in errors:
        state = update_scale(state, e, cfg)
    assert state.sigma_e == pytest.approx(MAD_FACTOR * 5.0, rel=1e-12)
    # The conventional estimator warms up with the same robust seed.
    cfg2 = CensorConfig(p_ce=0.5, window=9, estimator="conventional")
    state2 = ScaleState()
    for e in errors:
        state2 = update_scale(state2, e, cfg2)
    assert state2.sigma_e == pytest.approx(MAD_FACTOR * 5.0, rel=1e-12)


def test_robust_recursion_formula():
    cfg = CensorConfig(p_ce=0.5, window=9, tau=0.9, estimator="robust_median")
    state = ScaleState()
    errors = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0]
    for e in errors:
        state = update_scale(state, e, cfg)
    sigma = state.sigma_e
    state = update_scale(state, 100.0, cfg)
    window = sorted(abs(v) for v in [-2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, 100.0])
    med = window[4]
    expected = 0.9 * sigma + MAD_FACTOR * 0.1 * med
    assert state.sigma_e == pytest.approx(expected, rel=1e-12)


def test_conventional_recursion_formula():
    cfg = CensorConfig(p_ce=0.5, window=9, tau=0.9, estimator="conventional")
    state = ScaleState()
    errors = [1.0] * 9
    for e in errors:
        state = update_scale(state, e, cfg)
    sigma2 = state.sigma_e**2
    state = update_scale(state, 2.0, cfg)
    assert state.sigma_e**2 == pytest.approx(0.9 * sigma2 + 0.1 * 4.0, rel=1e-12)


def test_robust_estimator_resists_outliers():
    # One giant error barely moves the robust scale but wrecks the
    # conventional one.
    base = [0.5, -0.4, 0.6, -0.5, 0.45, -0.55, 0.5, -0.6, 0.4]
    for estimator in ("robust_median", "conventional"):
        cfg = CensorConfig(p_ce=0.5, window=9, tau=0.9, estimator=estimator)
        state = ScaleState()
        for e in base:
            state = update_scale(state, e, cfg)
        before = state.sigma_e
        state = update_scale(state, 1000.0, cfg)
        jump = state.sigma_e / before
        if estimator == "robust_median":
            assert jump < 1.5
        else:
            assert jump > 10.0


def test_nonfinite_scale_raises():
    cfg = CensorConfig(p_ce=0.5, window=9)
    state = ScaleState()
    with pytest.raises(ArithmeticError):
        for _ in range(9):
            state = update_scale(state, float("inf"), cfg)
