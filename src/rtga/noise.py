"""Noise generators for the benchmark cases.

Every family is zero-mean and parameterized by its variance. The
generalized Gaussian family is sampled exactly through a gamma transform,
so no rejection loop is involved. Impulsive contamination is modeled as a
Bernoulli-gated Gaussian added on top of the base draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("gaussian", "laplace", "uniform", "binary", "ggd")


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of one noise source.

    family: one of "gaussian", "laplace", "uniform", "binary", "ggd".
    variance: variance of the base draw.
    alpha: GGD shape, required when family == "ggd" (2 is Gaussian,
        1 is Laplace).
    impulse_prob: probability of adding a Gaussian impulse to a sample.
    impulse_variance: variance of the impulse component.
    """

    family: str
    variance: float
    alpha: float | None = None
    impulse_prob: float = 0.0
    impulse_variance: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.family == "ggd":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("ggd family needs shape alpha > 0")
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError("impulse_prob must be in [0, 1]")
        if self.impulse_variance < 0:
            raise ValueError("impulse_variance must be >= 0")

    @property
    def total_variance(self) -> float:
        return self.variance + self.impulse_prob * self.impulse_variance

    @property
    def impulsive(self) -> bool:
        """Whether draws add impulses (and read the mask and amplitude streams)."""
        return self.impulse_prob > 0.0 and self.impulse_variance > 0.0


def sample_ggd(alpha: float, sigma2: float, rng: np.random.Generator, size=None):
    """Draw zero-mean generalized Gaussian samples with variance sigma2.

    Uses the gamma transform: |X| = beta * G**(1/alpha) with
    G ~ Gamma(1/alpha, 1) and beta = sigma * sqrt(Gamma(1/alpha)/Gamma(3/alpha)),
    then attaches a random sign. alpha = 2 reproduces the Gaussian law and
    alpha = 1 the Laplace law.
    """
    if alpha <= 0:
        raise ValueError("ggd shape alpha must be > 0")
    if sigma2 < 0:
        raise ValueError("variance must be >= 0")
    if sigma2 == 0:
        return 0.0 if size is None else np.zeros(size)
    beta = math.sqrt(sigma2 * math.gamma(1.0 / alpha) / math.gamma(3.0 / alpha))
    g = rng.gamma(1.0 / alpha, 1.0, size)
    mag = beta * np.power(g, 1.0 / alpha)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    out = mag * sign
    return float(out) if size is None else out


def _sample_base(spec: NoiseSpec, rng: np.random.Generator, size, out=None):
    v = spec.variance
    if out is not None:
        if v > 0 and spec.family == "gaussian":
            rng.standard_normal(out=out)
            out *= math.sqrt(v)
        else:
            out[...] = _sample_base(spec, rng, out.shape)
        return out
    if v == 0:
        return np.zeros(size if size is not None else ())
    if spec.family == "gaussian":
        return rng.standard_normal(size) * math.sqrt(v)
    if spec.family == "laplace":
        return rng.laplace(0.0, math.sqrt(v / 2.0), size)
    if spec.family == "uniform":
        half = math.sqrt(3.0 * v)
        return rng.uniform(-half, half, size)
    if spec.family == "binary":
        level = math.sqrt(v)
        return np.where(rng.random(size) < 0.5, -level, level)
    return sample_ggd(spec.alpha, v, rng, size)


def sample_mixture_split(
    spec: NoiseSpec,
    rng_base: np.random.Generator,
    rng_mask: np.random.Generator | None,
    rng_amp: np.random.Generator | None,
    size=None,
    out: np.ndarray | None = None,
):
    """Mixture draw with dedicated generators per component.

    Separating the base/mask/amplitude streams keeps each stream's
    consumption independent of the others, so batched generation produces
    the same numbers regardless of how the draws are grouped. The mask and
    amplitude generators are read only when spec.impulsive (None otherwise
    is fine). With out, a C-contiguous float array, the draw of out.shape
    is written there and out is returned.
    """
    if out is not None:
        size = out.shape
    base = _sample_base(spec, rng_base, size, out)
    if spec.impulsive:
        mask = rng_mask.random(size) < spec.impulse_prob
        amp = rng_amp.standard_normal(size) * math.sqrt(spec.impulse_variance)
        base = np.add(base, np.where(mask, amp, 0.0), out=out)
    return float(base) if size is None else np.asarray(base)


def sample_mixture(spec: NoiseSpec, rng: np.random.Generator, size=None):
    """Draw from the base family, plus a Bernoulli-gated Gaussian impulse.

    With probability spec.impulse_prob each sample receives an independent
    zero-mean Gaussian impulse of variance spec.impulse_variance, so the
    total variance is variance + impulse_prob * impulse_variance.
    """
    return sample_mixture_split(spec, rng, rng, rng, size)


def case_spec(case_id: int) -> tuple[NoiseSpec, NoiseSpec]:
    """Input/output noise pair for benchmark cases 1 through 5."""
    cases = {
        1: (NoiseSpec("gaussian", 0.1), NoiseSpec("gaussian", 0.1)),
        2: (
            NoiseSpec("gaussian", 0.1),
            NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0),
        ),
        3: (NoiseSpec("gaussian", 0.1), NoiseSpec("laplace", 1.0)),
        4: (
            NoiseSpec("uniform", 1.0),
            NoiseSpec("uniform", 1.0, impulse_prob=0.01, impulse_variance=100.0),
        ),
        5: (
            NoiseSpec("binary", 0.2),
            NoiseSpec("binary", 0.2, impulse_prob=0.01, impulse_variance=100.0),
        ),
    }
    if case_id not in cases:
        raise ValueError(f"unknown case id {case_id}; expected 1..5")
    return cases[case_id]


def noise_ratio(input_spec: NoiseSpec, output_spec: NoiseSpec) -> float:
    """Base-variance ratio sigma_o^2 / sigma_i^2 used by the cost normalizer.

    Impulsive contributions are excluded: the impulse part is a disturbance
    the robust cost rejects, not part of the noise geometry. A noiseless
    side (base variance 0) leaves no ratio to form, and the ratio is then
    1, the neutral normalization.
    """
    if input_spec.variance == 0 or output_spec.variance == 0:
        return 1.0
    return output_spec.variance / input_spec.variance
