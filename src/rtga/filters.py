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

import math
from dataclasses import dataclass

import numpy as np

LIMIT_FAMILIES = ("tlmp", "ltls", "exp")

# below this magnitude the |e|^(b-2) factor is treated as a vanishing
# update when b < 2 (the true gradient limit is zero in direction psi)
GRADIENT_GUARD = 1e-12


@dataclass(frozen=True)
class RtgaParams:
    """Cost-shape, scale, and step parameters.

    a: shape (any finite real except b; arbitrarily negative allowed, a = 0
       only through the analytic limit family).
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
        for name in ("a", "b", "c", "mu", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _suppression(eb, p: RtgaParams, family: str | None):
    """Suppression coefficient as a function of eb = |e~|^b.

    family None is the full shape (c eb/|a-b| + 1)^((a-b)/b); otherwise
    the analytic limit of that family (tlmp gives the scalar 1).
    """
    if family is None:
        z = eb * (p.c / abs(p.a - p.b))
        return np.exp(((p.a - p.b) / p.b) * np.log1p(z))
    if family == "tlmp":
        return 1.0
    z = eb * (p.c / p.b)
    if family == "ltls":
        return 1.0 / (1.0 + z)
    if family == "exp":
        return np.exp(-z)
    raise ValueError(f"unknown limit family {family!r}")


def gradient_coefficient(e, n2, p: RtgaParams, family: str | None = None, q=None):
    """Per-run scalar k of the gradient -k (x~ e + (e^2 / n2) w).

    k = c f(|e~|) |e~|^(b-2) / n2, with e~ = e / sqrt(n2), n2 = phi + ||w||^2
    and f the suppression coefficient of the full shape (family None) or
    of an analytic limit. Both vectors of the gradient enter linearly, so
    a batched update needs only this coefficient per run. q is |e~|^2 =
    e^2 / n2 when the caller already has it; it is not modified. Broadcasts
    e against n2.
    """
    if family is None:
        _check_a(p)
    e = np.asarray(e, dtype=float)
    if q is None:
        q = e * e / n2  # |e~|^2
    if p.b == 2.0:
        return p.c * _suppression(q, p, family) / n2
    if p.b < 2.0:
        # |e|^(b-2) diverges at zero error; the update it scales vanishes
        safe = np.abs(e) >= GRADIENT_GUARD
        q = np.where(safe, q, 1.0)
    kernel = q ** (0.5 * (p.b - 2.0))  # |e~|^(b-2)
    k = p.c * _suppression(kernel * q, p, family) * kernel / n2
    return np.where(safe, k, 0.0) if p.b < 2.0 else k


def _gradient_core(e, x_tilde, w, p: RtgaParams, family: str | None):
    e = np.asarray(e, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    w = np.asarray(w, dtype=float)
    n2 = norm2_bar(w, p.phi)
    k = np.asarray(gradient_coefficient(e, n2, p, family))
    psi = x_tilde * e[..., None] + (e * e / n2)[..., None] * w
    return -k[..., None] * psi


def rtga_gradient(e, x_tilde, w, p: RtgaParams):
    """Instantaneous gradient of rtga_cost with respect to w.

    Exact analytic gradient, including the dependence of the augmented
    norm on w. Broadcasts over leading batch axes.
    """
    _check_a(p)
    return _gradient_core(e, x_tilde, w, p, None)


def limit_gradient(e, x_tilde, w, family: str, p: RtgaParams):
    """Gradient with the suppression coefficient replaced by its limit."""
    if family not in LIMIT_FAMILIES:
        raise ValueError(f"unknown limit family {family!r}")
    return _gradient_core(e, x_tilde, w, p, family)


def gradient(e, x_tilde, w, p: RtgaParams, family: str | None = None):
    """Dispatch to the full-shape gradient or an analytic limit family."""
    if family is None:
        return rtga_gradient(e, x_tilde, w, p)
    return limit_gradient(e, x_tilde, w, family, p)
