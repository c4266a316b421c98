"""Online censoring: threshold, error-scale tracking, keep/discard gate.

A sample is censored (discarded without an update) when its error
magnitude falls below kappa * sigma_e, where kappa is calibrated so that a
target fraction p_ce of Gaussian errors is censored and sigma_e tracks the
error scale online. Two trackers are provided: a robust sliding-median
tracker and a conventional smoothed-power tracker. The estimator "auto"
names the experiment's choice (config.ExperimentConfig.resolved_censoring);
a tracker handed "auto" runs the robust median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ESTIMATORS = ("auto", "robust_median", "conventional")

# consistency factor relating the median absolute deviation of a Gaussian
# to its standard deviation, 1/Phi^-1(3/4)
MAD_FACTOR = 1.483


def censor_threshold(p_ce: float) -> float:
    """Threshold multiple kappa with P(|N(0,1)| < kappa) = p_ce.

    kappa = sqrt(2) * x for the least float x in [0, 6] with
    math.erf(x) >= p_ce, found by bisection; erf(6) rounds to 1.
    """
    if p_ce < 0:
        raise ValueError("censoring ratio must be >= 0")
    if p_ce >= 1:
        raise ValueError("censoring ratio must be < 1 (threshold diverges)")
    if p_ce == 0:
        return 0.0
    lo, hi = 0.0, 6.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if math.erf(mid) >= p_ce:
            hi = mid
        else:
            lo = mid
    return math.sqrt(2.0) * hi


@dataclass(frozen=True)
class CensorConfig:
    """Censoring policy: target ratio, scale-tracker settings, estimator.
    The messages name the INI keys of [censoring]."""

    p_ce: float
    window: int = 9
    tau: float = 0.99
    estimator: str = "auto"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_ce < 1.0:
            raise ValueError(f"censoring.p_ce must lie in [0, 1), got {self.p_ce}")
        if not 7 <= self.window <= 15:
            raise ValueError(f"censoring.window must lie in [7, 15], got {self.window}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"censoring.tau must lie in (0, 1], got {self.tau}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown censoring.estimator {self.estimator!r}")

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
    if cfg.estimator == "conventional":
        # squared by multiplication, as the vectorized tracker does
        var = cfg.tau * (state.sigma_e * state.sigma_e) + (1.0 - cfg.tau) * e * e
        state.sigma_e = math.sqrt(var)
    else:
        med = float(np.median(state.error_window))
        state.sigma_e = cfg.tau * state.sigma_e + MAD_FACTOR * (1.0 - cfg.tau) * med
    return state


def censor_decision(e: float, kappa: float, sigma_e: float) -> bool:
    """True when the sample is uninformative and the update is skipped."""
    return abs(e) < kappa * sigma_e
