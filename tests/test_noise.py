"""Noise families, impulse mixtures, and the benchmark case table."""

import numpy as np
import pytest
from scipy import stats

from rtga.noise import (
    NoiseSpec,
    case_spec,
    noise_ratio,
    sample_ggd,
    sample_mixture,
    sample_mixture_split,
    unit_scale,
)

N_LARGE = 200_000


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("cauchy", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", -1.0)
    with pytest.raises(ValueError):
        NoiseSpec("ggd", 1.0)  # missing shape
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", 1.0, impulse_prob=1.5)
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", 1.0, impulse_prob=0.1, impulse_variance=-1.0)


def test_total_variance():
    spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0)
    assert spec.total_variance == pytest.approx(1.1, rel=1e-14)


@pytest.mark.parametrize("family", ["gaussian", "laplace", "uniform", "binary"])
def test_family_variance_and_mean(family):
    rng = np.random.default_rng(11)
    spec = NoiseSpec(family, 0.25)
    x = sample_mixture(spec, rng, N_LARGE)
    assert abs(x.mean()) < 0.01
    assert x.var() == pytest.approx(0.25, rel=0.03)


def test_binary_levels():
    rng = np.random.default_rng(12)
    x = sample_mixture(NoiseSpec("binary", 0.2), rng, 1000)
    levels = np.unique(np.round(x, 12))
    np.testing.assert_allclose(levels, [-np.sqrt(0.2), np.sqrt(0.2)], rtol=1e-10)


def test_uniform_support():
    rng = np.random.default_rng(13)
    x = sample_mixture(NoiseSpec("uniform", 1.0), rng, N_LARGE)
    half = np.sqrt(3.0)
    assert x.min() >= -half and x.max() <= half
    assert x.max() > 0.99 * half and x.min() < -0.99 * half


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_ggd_distribution_matches_scipy(alpha):
    rng = np.random.default_rng(14)
    sigma2 = 0.7
    x = sample_ggd(alpha, sigma2, rng, 50_000)
    assert x.var() == pytest.approx(sigma2, rel=0.05)
    import math

    scale = math.sqrt(sigma2 * math.gamma(1 / alpha) / math.gamma(3 / alpha))
    _, pvalue = stats.kstest(x, stats.gennorm(alpha, scale=scale).cdf)
    assert pvalue > 0.01


def test_ggd_special_shapes_match_families():
    # alpha = 2 is Gaussian and alpha = 1 is Laplace; compare tail masses.
    rng = np.random.default_rng(15)
    g = sample_ggd(2.0, 1.0, rng, N_LARGE)
    _, p = stats.kstest(g, stats.norm(scale=1.0).cdf)
    assert p > 0.01
    la = sample_ggd(1.0, 1.0, rng, N_LARGE)
    _, p = stats.kstest(la, stats.laplace(scale=1.0 / np.sqrt(2.0)).cdf)
    assert p > 0.01


def test_zero_variance_yields_zeros():
    rng = np.random.default_rng(16)
    assert sample_mixture(NoiseSpec("gaussian", 0.0), rng, 10).tolist() == [0.0] * 10
    assert sample_ggd(2.0, 0.0, rng, 5).tolist() == [0.0] * 5


def test_impulse_mixture_rate_and_variance():
    rng = np.random.default_rng(17)
    spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0)
    x = sample_mixture(spec, rng, N_LARGE)
    assert x.var() == pytest.approx(spec.total_variance, rel=0.1)
    # Impulses dominate when present: count excursions far beyond the base.
    rate = np.mean(np.abs(x) > 4 * np.sqrt(0.1))
    assert rate == pytest.approx(0.01, rel=0.2)


def test_split_streams_are_chunk_stable():
    # Drawing 100 + 150 samples equals drawing 250 in one shot per stream.
    spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.05, impulse_variance=10.0)

    def rngs():
        ss = np.random.SeedSequence(99).spawn(3)
        return [np.random.default_rng(s) for s in ss]

    b1, m1, a1 = rngs()
    whole = sample_mixture_split(spec, b1, m1, a1, 250)
    b2, m2, a2 = rngs()
    first = sample_mixture_split(spec, b2, m2, a2, 100)
    second = sample_mixture_split(spec, b2, m2, a2, 150)
    np.testing.assert_array_equal(whole, np.concatenate([first, second]))


def test_split_matches_single_stream_structure():
    # No impulses configured: mask/amp streams must not be consumed.
    spec = NoiseSpec("laplace", 1.0)
    ss = np.random.SeedSequence(100).spawn(3)
    b, m, a = (np.random.default_rng(s) for s in ss)
    before = m.bit_generator.state
    sample_mixture_split(spec, b, m, a, 50)
    assert m.bit_generator.state == before


@pytest.mark.parametrize("spec", [
    NoiseSpec("gaussian", 0.3),
    NoiseSpec("laplace", 1.0),
    NoiseSpec("uniform", 1.0),
    NoiseSpec("binary", 0.2),
    NoiseSpec("ggd", 0.3, alpha=1.5),
    NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0),
    NoiseSpec("laplace", 1.0, impulse_prob=0.3, impulse_variance=4.0),
    NoiseSpec("uniform", 1.0, impulse_prob=0.01, impulse_variance=100.0),
    NoiseSpec("binary", 0.2, impulse_prob=0.01, impulse_variance=100.0),
    NoiseSpec("ggd", 0.3, alpha=0.7, impulse_prob=0.2, impulse_variance=9.0),
    NoiseSpec("gaussian", 0.0),
    NoiseSpec("laplace", 0.0, impulse_prob=0.5, impulse_variance=1.0),
    NoiseSpec("ggd", 0.0, alpha=2.0),
], ids=lambda spec: f"{spec.family}-{spec.variance:g}-{spec.impulse_prob:g}")
def test_size_draw_equals_out_draw(spec):
    # One sampler path: a draw into a new array of the given size equals,
    # bitwise, a draw written over every element of a given array.
    def rngs():
        return [np.random.default_rng(s) for s in np.random.SeedSequence(31).spawn(3)]

    sized = sample_mixture_split(spec, *rngs(), (500, 3))
    out = np.full((500, 3), np.nan)
    assert sample_mixture_split(spec, *rngs(), out=out) is out
    assert sized.shape == (500, 3)
    np.testing.assert_array_equal(sized, out)
    np.testing.assert_array_equal(np.signbit(sized), np.signbit(out))


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@pytest.mark.parametrize("variance", [1e-3, 0.05, 1.0, 7.5])
def test_draw_is_scale_times_unit_draw(family, variance):
    # Bitwise, signs of zero included: the stream provider draws the unit
    # noise once and scales it for every group that shares a trial.
    spec = NoiseSpec(family, variance)
    unit, scale = unit_scale(spec)
    assert unit_scale(unit) == (unit, 1.0)
    drawn, unit_drawn = (
        sample_mixture_split(s, np.random.default_rng(23), None, None, out=np.empty((4000, 3)))
        for s in (spec, unit)
    )
    scaled = scale * unit_drawn
    np.testing.assert_array_equal(drawn, scaled)
    np.testing.assert_array_equal(np.signbit(drawn), np.signbit(scaled))


@pytest.mark.parametrize("spec", [
    NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0),
    NoiseSpec("laplace", 1.0, impulse_prob=0.5, impulse_variance=1.0),
    NoiseSpec("uniform", 1.0),
    NoiseSpec("binary", 0.2),
    NoiseSpec("ggd", 0.3, alpha=1.5),
    NoiseSpec("gaussian", 0.0),
    NoiseSpec("laplace", 0.0),
])
def test_other_specs_do_not_factor(spec):
    assert unit_scale(spec) == (spec, 1.0)


def test_case_table():
    in1, out1 = case_spec(1)
    assert (in1.family, in1.variance) == ("gaussian", 0.1)
    assert (out1.family, out1.variance, out1.impulse_prob) == ("gaussian", 0.1, 0.0)
    in2, out2 = case_spec(2)
    assert out2.impulse_prob == 0.01 and out2.impulse_variance == 100.0
    in3, out3 = case_spec(3)
    assert (in3.family, out3.family) == ("gaussian", "laplace")
    assert noise_ratio(in3, out3) == pytest.approx(10.0, rel=1e-12)
    in4, out4 = case_spec(4)
    assert (in4.family, out4.family) == ("uniform", "uniform")
    assert out4.impulse_prob > 0
    in5, out5 = case_spec(5)
    assert (in5.family, in5.variance) == ("binary", 0.2)
    assert out5.impulse_prob > 0
    with pytest.raises(ValueError):
        case_spec(6)


def test_noise_ratio_uses_base_variances():
    # Impulse contamination is excluded from the normalization ratio.
    inp = NoiseSpec("gaussian", 0.1)
    out = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0)
    assert noise_ratio(inp, out) == pytest.approx(1.0, rel=1e-12)


def test_noise_ratio_of_a_noiseless_side_is_one():
    # No ratio to form: the normalization falls back to the neutral 1.
    zero = NoiseSpec("gaussian", 0.0)
    noisy = NoiseSpec("laplace", 0.3, impulse_prob=0.01, impulse_variance=100.0)
    for pair in ((zero, noisy), (noisy, zero), (zero, zero)):
        assert noise_ratio(*pair) == 1.0
