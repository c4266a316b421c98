"""Robust total-least-squares cost, gradient, and weight update.

The cost of the configurable family is

    J(e) = (|a - b| / a) * ((c |e~|^b / |a - b| + 1)^(a/b) - 1)

where e~ = e / ||w_bar|| and ||w_bar||^2 = phi + ||w||^2. Shape parameter a
interpolates between three analytic limits: a -> b gives the p-norm family
(|e~|^b scaled), a -> 0 the logarithmic family, and a -> -inf the
exponential (correntropy-type) family. RtgaParams.family names the limit
(tlmp, ltls or exp) in place of a, or is None for the full shape. All
kernels broadcast: scalars with (L,) vectors, or (R,) error batches with
(R, L) weight batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LIMIT_FAMILIES = ("tlmp", "ltls", "exp")

# below this magnitude the |e|^(b-2) factor is treated as a vanishing
# update when b < 2 (the true gradient limit is zero in direction psi)
GRADIENT_GUARD = 1e-12


def operand(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: an operand that a ufunc
    does not convert on each call (the runner._engine docstring) and that
    no caller can write into."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


ZERO, ONE = operand(0.0), operand(1.0)


@dataclass(frozen=True, kw_only=True)
class RtgaParams:
    """Cost-shape, scale, and step parameters.

    family: None for the full shape, or the analytic limit tlmp (a -> b),
       ltls (a -> 0) or exp (a -> -inf).
    a: shape parameter of the full shape: any finite real except b and 0
       (those are the tlmp and ltls limits; arbitrarily negative allowed).
       A limit family ignores it; it is finite when given.
    b: error exponent, > 0.
    c: scale, > 0.
    mu: step size, >= 0 (0 is a legal no-op step).
    phi: output-to-input noise-variance ratio in the augmented norm, > 0.

    Every field is checked; one ValueError lists each problem on a line of
    its own, which begins with the field's name.
    """

    a: float | None = None
    b: float
    c: float
    mu: float
    phi: float = 1.0
    family: str | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.family is not None and self.family not in LIMIT_FAMILIES:
            problems.append(
                f"family {self.family!r} is an unknown limit family; "
                f"expected one of {LIMIT_FAMILIES}"
            )
        a = self.a
        if a is not None and not math.isfinite(a):
            problems.append(f"a must be finite, got {a}")
        elif self.family is None:
            if a is None:
                problems.append("a is missing; the full shape needs a (or a limit family)")
            elif a == self.b:
                problems.append("a must differ from b (use the tlmp limit family)")
            elif a == 0:
                problems.append("a = 0 is the logarithmic limit (use the ltls limit family)")
        for name in ("b", "c", "mu", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                problems.append(f"{name} must be finite, got {value}")
            elif name == "mu" and value < 0:
                problems.append(f"mu must be >= 0, got {value}")
            elif name != "mu" and value <= 0:
                problems.append(f"{name} must be > 0, got {value}")
        if problems:
            raise ValueError("\n".join(problems))

    @cached_property
    def operands(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """gradient_coefficient's float operands as read-only 0-d arrays:
        (scale, power, c, kernel). scale multiplies eb in the suppression
        coefficient, c/|a-b| for the full shape and c/b for a limit family;
        power is the full shape's exponent (a-b)/b, None for a limit family;
        kernel is the exponent (b-2)/2 of |e~|^2 in |e~|^(b-2).
        Made on first use and kept by this object; dataclasses.replace makes
        a new object, which makes its own."""
        if self.family is None:
            scale, power = self.c / abs(self.a - self.b), operand((self.a - self.b) / self.b)
        else:
            scale, power = self.c / self.b, None
        return operand(scale), power, operand(self.c), operand(0.5 * (self.b - 2.0))


def norm2_bar(w, phi: float):
    """Squared augmented-weight norm phi + ||w||^2 along the last axis."""
    w = np.asarray(w, dtype=float)
    return phi + np.sum(w * w, axis=-1)


def cost(e, w, p: RtgaParams):
    """Instantaneous cost of p's shape. Non-negative, zero only at e = 0."""
    n2 = norm2_bar(w, p.phi)
    et = np.abs(e) / np.sqrt(n2)
    if p.family is None:
        z = p.c * et**p.b / abs(p.a - p.b)
        out = (abs(p.a - p.b) / p.a) * np.expm1((p.a / p.b) * np.log1p(z))
    else:
        z = (p.c / p.b) * et**p.b
        if p.family == "tlmp":
            out = z
        elif p.family == "ltls":
            out = np.log1p(z)
        else:
            out = -np.expm1(-z)
    return out if np.ndim(out) else float(out)


def _suppression(eb, p: RtgaParams, out=None):
    """Suppression coefficient as a function of eb = |e~|^b, written into
    out (a new array by default; out may be eb itself).

    The full shape's is (c eb/|a-b| + 1)^((a-b)/b); a limit family's is
    that coefficient's limit (tlmp gives 1).
    """
    if out is None:
        out = np.empty(np.shape(eb))
    if p.family == "tlmp":
        out[...] = 1.0
        return out
    scale, power = p.operands[:2]
    np.multiply(eb, scale, out)
    if p.family is None:
        np.log1p(out, out)
        np.multiply(out, power, out)
        return np.exp(out, out)
    if p.family == "ltls":
        np.add(out, ONE, out)
        return np.divide(ONE, out, out)
    np.negative(out, out)
    return np.exp(out, out)


def gradient_coefficient(e, n2, p: RtgaParams, q=None, out=None):
    """Per-run scalar k of the gradient -k (x~ e + (e^2 / n2) w).

    k = c f(|e~|) |e~|^(b-2) / n2, with e~ = e / sqrt(n2), n2 = phi + ||w||^2
    and f the suppression coefficient of p's shape. Both vectors of the
    gradient enter linearly, so a batched update needs only this
    coefficient per run. q is |e~|^2 = e^2 / n2 when the caller already
    has it; it is not modified. Broadcasts e against n2.

    k is written into out (a new array by default) and out is returned.
    The chain runs in out, so at b = 2 it allocates nothing; b != 2 keeps
    its |e~|^(b-2) kernel beside out, and b < 2 its guard masks. The
    chain keeps the engine's operand rule (the runner._engine docstring):
    its scale, power, c and kernel exponent are the 0-d arrays of
    p.operands, made once per params object, and each ufunc takes out by
    position, since numpy converts a Python float operand and parses an
    out keyword on every call, which costs more than the arithmetic on the
    engine's small rows.
    """
    e = np.asarray(e, dtype=float)
    if q is None:
        q = e * e / n2  # |e~|^2
    if out is None:
        out = np.empty(np.broadcast_shapes(e.shape, np.shape(n2)))
    c, exponent = p.operands[2:]
    if p.b == 2.0:
        _suppression(q, p, out)
        np.multiply(out, c, out)
        return np.divide(out, n2, out)
    if p.b < 2.0:
        # |e|^(b-2) diverges at zero error; the update it scales vanishes
        safe = np.abs(e, out) >= GRADIENT_GUARD
        out[...] = 1.0
        np.copyto(out, q, where=safe)
        q = out  # q where safe, else 1
    kernel = np.power(q, exponent)  # |e~|^(b-2)
    np.multiply(kernel, q, out)
    _suppression(out, p, out)
    np.multiply(out, c, out)
    np.multiply(out, kernel, out)
    np.divide(out, n2, out)
    if p.b < 2.0:
        np.copyto(out, 0.0, where=~safe)
    return out


def gradient(e, x_tilde, w, p: RtgaParams):
    """Instantaneous gradient of cost with respect to w.

    Exact analytic gradient, including the dependence of the augmented
    norm on w. Broadcasts over leading batch axes.
    """
    e = np.asarray(e, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    w = np.asarray(w, dtype=float)
    n2 = norm2_bar(w, p.phi)
    k = np.asarray(gradient_coefficient(e, n2, p))
    psi = x_tilde * e[..., None] + (e * e / n2)[..., None] * w
    return -k[..., None] * psi
