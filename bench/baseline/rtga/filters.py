"""Robust total-least-squares cost, gradient, and weight update.

The cost of the configurable family is

    J(e) = (|a - b| / a) * ((c |e~|^b / |a - b| + 1)^(a/b) - 1)

where e~ = e / ||w_bar|| and ||w_bar||^2 = phi + ||w||^2. Shape parameter a
interpolates between three analytic limits: a -> b gives the p-norm family
(|e~|^b scaled), a -> 0 the logarithmic family, and a -> -inf the
exponential (correntropy-type) family. All kernels broadcast: scalars with
(L,) vectors, or (R,) error batches with (R, L) weight batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIMIT_FAMILIES = ("tlmp", "ltls", "exp")

# below this magnitude the |e|^(b-2) factor is treated as a vanishing
# update when b < 2 (the true gradient limit is zero in direction psi)
GRADIENT_GUARD = 1e-12


@dataclass(frozen=True)
class RtgaParams:
    """Cost-shape, scale, and step parameters.

    a: shape (any real except b; arbitrarily negative allowed, a = 0 only
       through the analytic limit family).
    b: error exponent, > 0.
    c: scale, > 0.
    mu: step size, >= 0 (0 is a legal no-op step).
    phi: output-to-input noise-variance ratio in the augmented norm, > 0.
    """

    a: float
    b: float
    c: float
    mu: float
    phi: float = 1.0

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise ValueError("b must be > 0")
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.phi <= 0:
            raise ValueError("phi must be > 0")
        if self.a == self.b:
            raise ValueError("a must differ from b (use the tlmp limit family)")


@dataclass
class FilterState:
    """Mutable per-filter state carried across iterations."""

    w: np.ndarray
    iteration: int = 0
    sigma_e: float = 0.0
    update_count: int = 0
    censor_count: int = 0


def norm2_bar(w, phi: float):
    """Squared augmented-weight norm phi + ||w||^2 along the last axis."""
    w = np.asarray(w, dtype=float)
    return phi + np.sum(w * w, axis=-1)


def _check_a(p: RtgaParams) -> None:
    if p.a == 0:
        raise ValueError("a = 0 is the logarithmic limit; call the ltls family")


def rtga_cost(e, w, p: RtgaParams):
    """Instantaneous cost. Non-negative, zero only at e = 0."""
    _check_a(p)
    n2 = norm2_bar(w, p.phi)
    et = np.abs(e) / np.sqrt(n2)
    z = p.c * et**p.b / abs(p.a - p.b)
    out = (abs(p.a - p.b) / p.a) * np.expm1((p.a / p.b) * np.log1p(z))
    return out if np.ndim(out) else float(out)


def limit_cost(e, w, family: str, p: RtgaParams):
    """Cost of an analytic limit family (tlmp, ltls, or exp)."""
    if family not in LIMIT_FAMILIES:
        raise ValueError(f"unknown limit family {family!r}")
    n2 = norm2_bar(w, p.phi)
    et = np.abs(e) / np.sqrt(n2)
    z = (p.c / p.b) * et**p.b
    if family == "tlmp":
        out = z
    elif family == "ltls":
        out = np.log1p(z)
    else:
        out = -np.expm1(-z)
    return out if np.ndim(out) else float(out)


def suppression_factor(et_abs, p: RtgaParams):
    """The bounded coefficient (c|e~|^b/|a-b| + 1)^((a-b)/b).

    For a < b this lies in (0, 1] and decays for large errors, which is
    what rejects impulsive samples. Computed through log1p so extreme
    shapes (a = -1000) underflow to 0 instead of overflowing.
    """
    z = p.c * np.asarray(et_abs) ** p.b / abs(p.a - p.b)
    return np.exp(((p.a - p.b) / p.b) * np.log1p(z))


def limit_suppression_factor(et_abs, family: str, p: RtgaParams):
    """Analytic limits of the suppression coefficient."""
    if family == "tlmp":
        return np.ones_like(np.asarray(et_abs, dtype=float))
    z = (p.c / p.b) * np.asarray(et_abs) ** p.b
    if family == "ltls":
        return 1.0 / (1.0 + z)
    if family == "exp":
        return np.exp(-z)
    raise ValueError(f"unknown limit family {family!r}")


def _gradient_core(e, x_tilde, w, p: RtgaParams, factor):
    e = np.asarray(e, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    w = np.asarray(w, dtype=float)
    n2 = norm2_bar(w, p.phi)
    et = np.abs(e) / np.sqrt(n2)
    if p.b < 2:
        # |e|^(b-2) diverges at zero error; the update it scales vanishes
        safe = np.abs(e) >= GRADIENT_GUARD
        et = np.where(safe, et, 1.0)
        kernel = np.where(safe, et ** (p.b - 2.0), 0.0)
    else:
        kernel = et ** (p.b - 2.0)
    coeff = p.c * factor(et) * kernel / n2
    psi = x_tilde * e[..., None] + (e * e / n2)[..., None] * w
    return -coeff[..., None] * psi


def rtga_gradient(e, x_tilde, w, p: RtgaParams):
    """Instantaneous gradient of rtga_cost with respect to w.

    Exact analytic gradient, including the dependence of the augmented
    norm on w. Broadcasts over leading batch axes.
    """
    _check_a(p)
    return _gradient_core(e, x_tilde, w, p, lambda et: suppression_factor(et, p))


def limit_gradient(e, x_tilde, w, family: str, p: RtgaParams):
    """Gradient with the suppression coefficient replaced by its limit."""
    if family not in LIMIT_FAMILIES:
        raise ValueError(f"unknown limit family {family!r}")
    return _gradient_core(
        e, x_tilde, w, p, lambda et: limit_suppression_factor(et, family, p)
    )


def gradient(e, x_tilde, w, p: RtgaParams, family: str | None = None):
    """Dispatch to the full-shape gradient or an analytic limit family."""
    if family is None:
        return rtga_gradient(e, x_tilde, w, p)
    return limit_gradient(e, x_tilde, w, family, p)


def update_step(state: FilterState, sample, p: RtgaParams, censored: bool) -> FilterState:
    """One gated stochastic-gradient step on a single sample.

    The error is computed against the incoming weights. A censored step
    leaves the weights untouched and only advances the counters.
    """
    state.iteration += 1
    if censored:
        state.censor_count += 1
        return state
    e = sample.d_tilde - float(state.w @ sample.x_tilde)
    g = rtga_gradient(e, sample.x_tilde, state.w, p)
    if not np.all(np.isfinite(g)):
        raise ArithmeticError(
            f"non-finite gradient at iteration {state.iteration} "
            f"(e={e!r}, params={p!r})"
        )
    state.w = state.w - p.mu * g
    state.update_count += 1
    return state
