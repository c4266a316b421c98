"""Learning-curve metrics, ERLE smoothing, and operation counts."""

from dataclasses import replace

import numpy as np
import pytest

from rtga.filters import RtgaParams
from rtga.metrics import (
    LearningCurve,
    erle_db,
    iterations_to_level,
    predicted_op_counts,
    smoothed_power,
    tail_mean_db,
    to_db,
)


def test_to_db_values_and_clamp():
    np.testing.assert_allclose(to_db(np.array([1.0, 10.0, 0.1])), [0.0, 10.0, -10.0])
    out = to_db(np.array([0.0, 1e-40]))
    assert out[0] == -300.0
    assert out[1] == -300.0
    assert to_db(np.array([1e40]))[0] == 300.0


def test_tail_mean_is_linear_average():
    # Last 10% of 20 points = 2 points; average in the ratio domain.
    vals = np.concatenate([np.full(18, 1.0), np.array([0.1, 0.001])])
    got = tail_mean_db(vals)
    assert got == pytest.approx(to_db(np.array([0.0505]))[0], rel=1e-12)


def test_smoothed_power_initializes_from_first_sample():
    x = np.array([2.0, 0.0, 0.0])
    p = smoothed_power(x * x, rho=0.5)
    np.testing.assert_allclose(p, [4.0, 2.0, 1.0])


def test_erle_ratio_of_smoothed_powers():
    d = np.array([1.0, 1.0, 1.0, 1.0])
    e = np.array([1.0, 0.1, 0.1, 0.1])
    curve = erle_db(d * d, e * e, rho=0.9)
    assert curve.values_db[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(curve.values_db) > 0)
    with pytest.raises(ValueError, match="share their length"):
        erle_db(d * d, e[:3] * e[:3])


def test_erle_multirun_averages_instantaneous_powers():
    # The error power is averaged over the runs before smoothing.
    d = np.array([1.0, 1.0])
    e = np.array([[1.0, 0.1], [1.0, 0.3]])
    curve = erle_db(d * d, (e * e).mean(axis=0), runs=2, rho=0.0)
    expected = 10 * np.log10(1.0 / np.mean([0.01, 0.09]))
    assert curve.values_db[1] == pytest.approx(expected, rel=1e-12)
    assert curve.runs == 2


def test_iterations_to_level():
    curve = LearningCurve(values_db=np.array([0.0, -5.0, -11.0, -12.0]), runs=1)
    assert iterations_to_level(curve, -10.0) == 2
    assert iterations_to_level(curve, -20.0) == -1


def test_predicted_op_counts_frozen():
    # Per update: 4L + 4 additions, 5L + 5 + 2b + |a|/b multiplications,
    # 3 nonlinear evaluations. L = 9, a = -100, b = 2: 40 / 104 / 3.
    p = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0)
    counts = predicted_op_counts(9, p)
    assert counts["additions"] == 40
    assert counts["multiplications"] == 104
    assert counts["nonlinear"] == 3.0


def test_predicted_op_counts_limit_family():
    # A limit family has no a, so no |a|/b term: tlmp, L = 9, b = 2 gives
    # 5L + 5 + 2b = 54 multiplications.
    p = RtgaParams(b=2.0, c=2.0, mu=0.0022, family="tlmp")
    counts = predicted_op_counts(9, p)
    assert counts["additions"] == 40
    assert counts["multiplications"] == 54
    # a given beside a limit family is ignored here too
    assert predicted_op_counts(9, replace(p, a=-100.0)) == counts


def test_predicted_op_counts_factor():
    p = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0)
    counts = predicted_op_counts(9, p, p_ce=0.7, l_reused=3)
    # Reported workload factor (1 - P)(l + P l + 1) at P = 0.7, l = 3.
    factor = 0.3 * (3 + 2.1 + 1)
    assert counts["reuse_censor_factor"] == pytest.approx(factor, rel=1e-12)
    base = predicted_op_counts(9, p)
    assert counts["additions"] == pytest.approx(base["additions"] * factor, rel=1e-12)
    assert counts["nonlinear"] == 3.0


def test_learning_curve_len_and_empty_search():
    assert len(LearningCurve(values_db=np.zeros(7), runs=2)) == 7
    assert iterations_to_level(LearningCurve(values_db=np.array([]), runs=1), -10.0) == -1
