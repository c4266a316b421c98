"""Cost and gradient contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rtga.filters import (
    RtgaParams,
    _suppression,
    cost,
    gradient,
    gradient_coefficient,
    norm2_bar,
)

# Hand-derived from the closed form with a = -100, b = 2, c = 0.2, phi = 1,
# w = [0], e = 1, x = [1]: g = -c (1 + c/102)^(-51).
GRADIENT_ORACLE = -0.18098520322682346


def params(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0, family=None):
    if family is not None:
        a = None
    return RtgaParams(a=a, b=b, c=c, mu=mu, phi=phi, family=family)


def cost_of_weights(w, x_tilde, d_tilde, p):
    return cost(d_tilde - w @ x_tilde, w, p)


def test_params_validation():
    with pytest.raises(ValueError):
        params(b=0.0)
    with pytest.raises(ValueError):
        params(c=-1.0)
    with pytest.raises(ValueError):
        params(mu=-0.1)
    with pytest.raises(ValueError):
        params(phi=0.0)
    with pytest.raises(ValueError):
        params(a=2.0, b=2.0)


def test_params_list_every_problem():
    with pytest.raises(ValueError) as exc:
        RtgaParams(a=math.inf, b=-1.0, c=0.0, mu=-1.0, phi=math.nan)
    assert str(exc.value).splitlines() == [
        "a must be finite, got inf",
        "b must be > 0, got -1.0",
        "c must be > 0, got 0.0",
        "mu must be >= 0, got -1.0",
        "phi must be finite, got nan",
    ]


def test_params_family_rules():
    with pytest.raises(ValueError, match="a = 0"):
        params(a=0.0)
    with pytest.raises(ValueError, match="needs a"):
        params(a=None)
    with pytest.raises(ValueError, match="a must be finite"):
        params(a=math.inf)
    with pytest.raises(ValueError, match="unknown limit family"):
        params(family="huber")
    with pytest.raises(TypeError):
        RtgaParams(-100.0, 2.0, 0.2, 0.01)  # fields are keyword-only
    # a limit family has no a: a = b or a = 0 beside it is not an error
    assert RtgaParams(a=2.0, b=2.0, c=1.0, mu=0.0, family="tlmp").family == "tlmp"
    assert params(family="ltls").a is None


def test_norm2_bar():
    w = np.array([3.0, 4.0])
    assert norm2_bar(w, 2.0) == pytest.approx(27.0, abs=0)


def test_cost_hand_values():
    # a = -2, b = 2, c = 4: J = (4/-2) ((e^2 + 1)^-1 - 1) = 1 at e = 1.
    p = params(a=-2.0, b=2.0, c=4.0)
    assert cost(1.0, np.zeros(2), p) == pytest.approx(1.0, rel=1e-14)
    # a = 4, b = 2, c = 1: J = (2/4) ((e^2/2 + 1)^2 - 1) = 4 at e = 2.
    p = params(a=4.0, b=2.0, c=1.0)
    assert cost(2.0, np.zeros(2), p) == pytest.approx(4.0, rel=1e-14)


def test_cost_zero_error_is_zero():
    p = params()
    assert cost(0.0, np.zeros(3), p) == 0.0
    for fam in ("tlmp", "ltls", "exp"):
        assert cost(0.0, np.zeros(3), replace(p, a=None, family=fam)) == 0.0


def test_limit_cost_hand_values():
    def p(fam):
        return params(b=2.0, c=2.0, family=fam)

    assert cost(3.0, np.zeros(2), p("tlmp")) == pytest.approx(9.0, rel=1e-14)
    assert cost(1.0, np.zeros(2), p("ltls")) == pytest.approx(
        math.log(2.0), rel=1e-14
    )
    assert cost(1.0, np.zeros(2), p("exp")) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14
    )


def test_gradient_frozen_oracle():
    p = params(a=-100.0, b=2.0, c=0.2)
    g = gradient(1.0, np.array([1.0]), np.array([0.0]), p)
    assert g[0] == pytest.approx(GRADIENT_ORACLE, rel=1e-13)


def test_gradient_hand_value():
    # a = -2, b = 2, c = 4, w = 0, e = 1, x = [1, 0]: g = -c (1+1)^-2 x e = [-1, 0].
    p = params(a=-2.0, b=2.0, c=4.0)
    g = gradient(1.0, np.array([1.0, 0.0]), np.zeros(2), p)
    np.testing.assert_allclose(g, [-1.0, 0.0], rtol=1e-14, atol=0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(30):
        L = int(rng.integers(2, 6))
        b = float(rng.uniform(2.0, 5.0))
        a = float(rng.choice([rng.uniform(-50.0, -1.0), b + rng.uniform(0.5, 3.0)]))
        p = params(a=a, b=b, c=float(rng.uniform(0.1, 2.0)), phi=float(rng.uniform(0.5, 5.0)))
        w = rng.standard_normal(L)
        x = rng.standard_normal(L)
        d = float(w @ x + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        e = d - w @ x
        g = gradient(e, x, w, p)
        fd = np.zeros(L)
        for j in range(L):
            h = 1e-6 * max(1.0, abs(w[j]))
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (cost_of_weights(wp, x, d, p) - cost_of_weights(wm, x, d, p)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


def test_limit_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for fam in ("tlmp", "ltls", "exp"):
        p = params(b=2.5, c=0.7, phi=2.0, family=fam)
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        d = float(w @ x + 0.8)
        e = d - w @ x
        g = gradient(e, x, w, p)
        fd = np.zeros(3)
        for j in range(3):
            h = 1e-6
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (cost_of_weights(wp, x, d, p) - cost_of_weights(wm, x, d, p)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)


def test_limit_family_equivalence():
    rng = np.random.default_rng(5)
    e = float(rng.uniform(0.5, 2.0))
    w = rng.standard_normal(4)
    x = rng.standard_normal(4)
    for fam, a in (("tlmp", 2.0 - 1e-4), ("ltls", 1e-4), ("exp", -1e4)):
        p_near = params(a=a, b=2.0, c=1.3)
        p_lim = replace(p_near, a=None, family=fam)
        j_full = cost(e, w, p_near)
        j_fam = cost(e, w, p_lim)
        assert abs(j_full - j_fam) <= 1e-3 * abs(j_fam)
        g_full = gradient(e, x, w, p_near)
        g_fam = gradient(e, x, w, p_lim)
        assert np.linalg.norm(g_full - g_fam) <= 1e-3 * np.linalg.norm(g_fam)


def test_suppression_factor_limits():
    p = params(a=-30.0, b=2.0, c=0.5)

    def eb(et_abs):  # the coefficient's argument |e~|^b
        return np.array([et_abs]) ** p.b

    # Large normalized error is suppressed toward zero; small error is not.
    def limit(fam):
        return replace(p, a=None, family=fam)

    assert _suppression(eb(50.0), p)[0] < 1e-3
    assert _suppression(eb(1e-8), p)[0] == pytest.approx(1.0, abs=1e-6)
    assert _suppression(eb(3.0), limit("tlmp")) == 1.0
    assert _suppression(eb(3.0), limit("exp"))[0] == pytest.approx(
        math.exp(-0.25 * 9.0), rel=1e-12
    )
    assert _suppression(eb(3.0), limit("ltls"))[0] == pytest.approx(
        1.0 / (1.0 + 0.25 * 9.0), rel=1e-12
    )


def test_gradient_guard_below_threshold():
    # b < 2 makes |e|^(b-2) blow up at e = 0; the guard zeroes the step.
    p = params(a=-100.0, b=1.5, c=0.2)
    g = gradient(0.0, np.ones(3), np.zeros(3), p)
    np.testing.assert_array_equal(g, np.zeros(3))
    g = gradient(1e-13, np.ones(3), np.zeros(3), p)
    np.testing.assert_array_equal(g, np.zeros(3))


def test_gradient_batched_rows_match_scalar():
    rng = np.random.default_rng(7)
    p = params()
    e = rng.standard_normal(5)
    X = rng.standard_normal((5, 4))
    W = rng.standard_normal((5, 4))
    batched = gradient(e, X, W, p)
    for k in range(5):
        row = gradient(float(e[k]), X[k], W[k], p)
        np.testing.assert_allclose(batched[k], row, rtol=1e-13)


def _allocating_coefficient(e, n2, p, q):
    """gradient_coefficient as a chain of allocating expressions: the
    operations, in the order, that the in-place chain must reproduce."""
    if p.family is None:
        def f(eb):
            return np.exp(((p.a - p.b) / p.b) * np.log1p(eb * (p.c / abs(p.a - p.b))))
    else:
        f = {
            "tlmp": lambda eb: 1.0,
            "ltls": lambda eb: 1.0 / (1.0 + eb * (p.c / p.b)),
            "exp": lambda eb: np.exp(-(eb * (p.c / p.b))),
        }[p.family]
    if p.b == 2.0:
        return p.c * f(q) / n2
    safe = np.abs(e) >= 1e-12 if p.b < 2.0 else True
    q = np.where(safe, q, 1.0)
    kernel = q ** (0.5 * (p.b - 2.0))
    return np.where(safe, p.c * f(kernel * q) * kernel / n2, 0.0)


@pytest.mark.parametrize(
    "p",
    [
        params(a=-100.0, b=1.5, c=0.1, mu=0.155),
        params(a=-1000.0, b=8.0, c=0.6, mu=0.025),
        params(b=4.0, c=1.0, family="tlmp"),
        params(b=2.0, c=1.0, family="ltls"),
        params(b=1.56, c=1.0, mu=0.05, family="exp"),
        params(a=-100.0, b=2.0, c=0.2),
        params(a=-100.0, b=2.29, c=1.2, mu=0.01),
        params(a=-100.0, b=2.3, c=1.5, mu=0.02),
        params(b=2.34, c=1.0, mu=0.05, family="exp"),
        params(b=6.0, c=1.0, mu=0.055, family="exp"),
    ],
    ids=["b1.5-guard", "b8", "tlmp-b4", "ltls-b2", "exp-b1.56", "full-b2",
         "b2.29", "b2.3", "exp-b2.34", "exp-b6"],
)
def test_gradient_coefficient_into_out_is_bitwise(p):
    # The engine runs the chain in its own per-pass row; it must give the
    # allocating call's bits, including the b < 2 guard's zero errors.
    # The inputs cover every b of the shipped presets (config._FULL_COST
    # and config._LIMIT_PRESETS), whose |e~|^(b-2) kernel takes its
    # exponent as a kept 0-d operand.
    rng = np.random.default_rng(11)
    e = rng.standard_normal(40) * 2.0
    e[::5] = 0.0
    e[1::7] = 1e-13
    n2 = 1.0 + rng.random(40)
    q = e * e / n2
    q_before = q.copy()
    out = np.full(40, np.nan)
    got = gradient_coefficient(e, n2, p, q, out=out)
    want = gradient_coefficient(e, n2, p, q)
    assert got is out
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == _allocating_coefficient(e, n2, p, q).tobytes()
    assert want.tobytes() == gradient_coefficient(e, n2, p).tobytes()
    assert q.tobytes() == q_before.tobytes()
    if p.b < 2.0:
        assert np.all(out[::5] == 0.0) and np.all(out[1::7] == 0.0)


@pytest.mark.parametrize(
    "change",
    [dict(a=-10.0), dict(b=1.5), dict(c=0.7), dict(family="ltls", a=None), dict(family="exp")],
    ids=["a", "b", "c", "family-ltls", "family-exp"],
)
def test_replaced_params_make_their_own_operands(change):
    # The 0-d operands are kept by the params object that made them; a
    # replace of a used params computes the new params' bits, and using a
    # params object changes neither its equality nor its hash.
    rng = np.random.default_rng(3)
    e = rng.standard_normal(30)
    e[::6] = 0.0
    n2 = 1.0 + rng.random(30)
    q = e * e / n2
    used = params(a=-100.0, b=2.0, c=0.2)
    gradient_coefficient(e, n2, used, q)
    assert used == params(a=-100.0, b=2.0, c=0.2)
    assert hash(used) == hash(params(a=-100.0, b=2.0, c=0.2))
    new = replace(used, **change)
    got = gradient_coefficient(e, n2, new, q)
    assert got.tobytes() == _allocating_coefficient(e, n2, new, q).tobytes()
    # no caller can write into the kept operands
    assert not any(a.flags.writeable for a in used.operands if a is not None)
