"""Learning-curve metrics and operation-count predictions.

Averaging always happens in the linear domain before any dB transform, and
dB values are clamped to +/-300 so serialized output stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import one_pole

DB_CLAMP = 300.0


@dataclass(frozen=True)
class LearningCurve:
    """Per-iteration dB values averaged over `runs` Monte-Carlo trials."""

    values_db: np.ndarray
    runs: int

    def __len__(self) -> int:
        return self.values_db.size


def to_db(linear) -> np.ndarray:
    """10*log10 with +/-300 dB clamping; zeros map to the lower clamp."""
    linear = np.asarray(linear, dtype=float)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(linear)
    return np.clip(db, -DB_CLAMP, DB_CLAMP)


def tail_mean_db(linear_mean_curve: np.ndarray, fraction: float = 0.1) -> float:
    """dB of the linear average over the trailing fraction of a curve."""
    curve = np.asarray(linear_mean_curve, dtype=float)
    k = max(1, int(round(curve.size * fraction)))
    return float(to_db(curve[-k:].mean()))


def smoothed_power(p_inst: np.ndarray, rho: float = 0.999) -> np.ndarray:
    """Recursive power estimate P(i) = rho P(i-1) + (1-rho) p_inst(i).

    p_inst is an (n,) instantaneous power; P starts at its first sample.
    """
    return one_pole(p_inst, rho, 1.0 - rho)


def erle_db(echo_power, error_power, runs: int = 1, rho: float = 0.999) -> LearningCurve:
    """Echo-return-loss enhancement with recursive power smoothing.

    echo_power is the echo's instantaneous power d^2(i) and error_power
    the error's, averaged over `runs` trials before smoothing.
    """
    if np.shape(echo_power) != np.shape(error_power):
        raise ValueError("echo and error powers must share their length")
    pd = smoothed_power(echo_power, rho)
    pe = smoothed_power(error_power, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pe > 0, pd / np.where(pe > 0, pe, 1.0), np.inf)
    return LearningCurve(to_db(ratio), runs=runs)


def predicted_op_counts(L: int, params, p_ce: float = 0.0, l_reused: int = 0) -> dict:
    """Per-iteration operation counts predicted by the complexity table.

    The base row is (4L+4) additions, (5L+5+2b+|a|/b) multiplications, and
    3 nonlinear evaluations; a limit family has no a and no |a|/b term.
    Censoring plus reuse scales the first two by (1-p_ce)(l_reused +
    p_ce*l_reused + 1), the table's printed factor, and leaves the
    nonlinear count at 3. The factor is reported as printed; the harness's
    measured update counts are the ground truth for actual work.
    """
    adds = 4 * L + 4
    mults = 5 * L + 5 + 2 * params.b
    if params.family is None:
        mults += abs(params.a) / params.b
    factor = (1.0 - p_ce) * (l_reused + p_ce * l_reused + 1.0)
    return {
        "additions": adds * factor,
        "multiplications": mults * factor,
        "nonlinear": 3.0,
        "reuse_censor_factor": factor,
    }


def iterations_to_level(curve: LearningCurve, level_db: float) -> int:
    """First iteration at which the curve reaches level_db, or -1."""
    hits = np.nonzero(curve.values_db <= level_db)[0]
    return int(hits[0]) if hits.size else -1
