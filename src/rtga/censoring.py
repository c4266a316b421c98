"""Online censoring: threshold, error-scale tracking, keep/discard gate.

A sample is censored (discarded without an update) when its error
magnitude falls below kappa * sigma_e, where kappa is calibrated so that a
target fraction p_ce of Gaussian errors is censored and sigma_e tracks the
error scale online. Two trackers are provided: a robust sliding-median
tracker and a conventional smoothed-power tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ESTIMATORS = ("robust_median", "conventional")

# consistency factor relating the median absolute deviation of a Gaussian
# to its standard deviation, 1/Phi^-1(3/4)
MAD_FACTOR = 1.483


def censor_threshold(p_ce: float) -> float:
    """Threshold multiple kappa with P(|N(0,1)| < kappa) = p_ce.

    kappa = sqrt(2) * erfinv(p_ce), computed to at least 10 significant
    digits.
    """
    if p_ce < 0:
        raise ValueError("censoring ratio must be >= 0")
    if p_ce >= 1:
        raise ValueError("censoring ratio must be < 1 (threshold diverges)")
    return math.sqrt(2.0) * _erfinv_newton(p_ce)


def _erfinv_newton(y: float) -> float:
    """Inverse error function by Newton iteration on math.erf.

    Winitzki's closed-form approximation seeds the iteration; accuracy is
    ~1e-15 on (-1, 1). Keeps the package free of platform special-function
    dependencies.
    """
    if not -1.0 < y < 1.0:
        raise ValueError("erfinv argument must lie in (-1, 1)")
    if y == 0.0:
        return 0.0
    a = 0.147
    ln1m = math.log(1.0 - y * y)
    t = 2.0 / (math.pi * a) + ln1m / 2.0
    x = math.copysign(math.sqrt(math.sqrt(t * t - ln1m / a) - t), y)
    two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)
    for _ in range(60):
        err = math.erf(x) - y
        step = err / (two_over_sqrt_pi * math.exp(-x * x))
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


@dataclass(frozen=True)
class CensorConfig:
    """Censoring policy: target ratio, scale-tracker settings, estimator."""

    p_ce: float
    window: int = 9
    tau: float = 0.99
    estimator: str = "robust_median"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_ce < 1.0:
            raise ValueError("p_ce must lie in [0, 1)")
        if not 7 <= self.window <= 15:
            raise ValueError("window must lie in [7, 15]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")

    @cached_property
    def kappa(self) -> float:
        return censor_threshold(self.p_ce)

    @property
    def active(self) -> bool:
        return self.p_ce > 0.0


@dataclass
class ScaleState:
    """Online error-scale estimate with its warm-up window.

    During the first `window` errors no censoring occurs; the scale then
    initializes to MAD_FACTOR * median of those magnitudes and is tracked
    recursively afterwards.
    """

    sigma_e: float = 0.0
    error_window: list = field(default_factory=list)
    n_seen: int = 0
    ready: bool = False


def update_scale(state: ScaleState, e: float, cfg: CensorConfig) -> ScaleState:
    """Feed one main-loop error into the scale tracker."""
    if not math.isfinite(e):
        raise ArithmeticError(f"non-finite error fed to scale tracker: {e!r}")
    ae = abs(e)
    state.error_window.append(ae)
    if len(state.error_window) > cfg.window:
        state.error_window.pop(0)
    state.n_seen += 1
    if not state.ready:
        if state.n_seen >= cfg.window:
            state.sigma_e = MAD_FACTOR * float(np.median(state.error_window))
            state.ready = True
        return state
    if cfg.estimator == "robust_median":
        med = float(np.median(state.error_window))
        state.sigma_e = cfg.tau * state.sigma_e + MAD_FACTOR * (1.0 - cfg.tau) * med
    else:
        # squared by multiplication, as the vectorized tracker does
        var = cfg.tau * (state.sigma_e * state.sigma_e) + (1.0 - cfg.tau) * e * e
        state.sigma_e = math.sqrt(var)
    return state


def censor_decision(e: float, kappa: float, sigma_e: float) -> bool:
    """True when the sample is uninformative and the update is skipped."""
    return abs(e) < kappa * sigma_e
