"""Closed-form steady-state predictors for the gated filter.

All quantities are first-order Taylor approximations around the true
weights: the curvature (Hessian) at the optimum, the largest mean-stable
step size, the gradient-noise covariance, and the steady-state
mean-square deviation, solved in closed form as one L x L system.
The moment helper evaluates absolute moments of the normalized optimal
error, whose scale equals the input-noise standard deviation for any
noise mix (Var e_o = sigma_o^2 + ||w_o||^2 sigma_i^2 =
sigma_i^2 (phi + ||w_o||^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import RtgaParams, gradient
from .noise import NoiseSpec, sample_mixture


def _theta(m: float, alpha: float, sigma: float) -> float:
    """GGD absolute-moment formula, continued to negative orders.

    For m <= -1 the defining integral diverges; the gamma-function
    expression is the analytic continuation the first-order analysis
    plugs in regardless.
    """
    if alpha <= 0:
        raise ValueError("ggd shape alpha must be > 0")
    if sigma == 0:
        if m < 0:
            raise ValueError("negative moment order undefined at zero scale")
        return 1.0 if m == 0 else 0.0
    arg = (m + 1.0) / alpha
    if arg <= 0 and arg == int(arg):
        raise ValueError(f"moment order {m} hits a gamma pole for alpha={alpha}")
    g1 = math.gamma(1.0 / alpha)
    return (
        sigma**m
        * (math.gamma(arg) / g1)
        * (g1 / math.gamma(3.0 / alpha)) ** (m / 2.0)
    )


def ggd_abs_moment(m: float, alpha: float, sigma: float) -> float:
    """E|X|^m for a zero-mean GGD with shape alpha and std sigma.

    m = 2 returns sigma^2 exactly for every shape.
    """
    if m < 0:
        raise ValueError("moment order m must be >= 0")
    return _theta(m, alpha, sigma)


@dataclass
class TheoryInputs:
    """Inputs of the steady-state analysis.

    R: input covariance (symmetric positive definite).
    w_o: true weights.
    sigma_i2 / sigma_o2: input/output noise variances.
    alpha: GGD shape attributed to the normalized optimal error.
    params: full-shape cost parameters; params.phi must equal sigma_o2 / sigma_i2.
    """

    R: np.ndarray
    w_o: np.ndarray
    sigma_i2: float
    sigma_o2: float
    alpha: float
    params: RtgaParams

    def __post_init__(self) -> None:
        self.R = np.asarray(self.R, dtype=float)
        self.w_o = np.asarray(self.w_o, dtype=float)
        L = self.w_o.size
        if self.R.shape != (L, L):
            raise ValueError("R must be square and match w_o's length")
        if not np.allclose(self.R, self.R.T, rtol=0, atol=1e-12):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(self.R).min() <= 0:
            raise ValueError("R must be positive definite")
        if self.alpha <= 0:
            raise ValueError("ggd shape alpha must be > 0")
        if self.sigma_i2 < 0 or self.sigma_o2 < 0:
            raise ValueError("noise variances must be non-negative")
        if self.params.family is not None:
            raise ValueError("the steady-state analysis covers the full shape only")
        if self.sigma_i2 > 0:
            ratio = self.sigma_o2 / self.sigma_i2
            if not math.isclose(self.params.phi, ratio, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(
                    f"params.phi={self.params.phi} must equal sigma_o2/sigma_i2={ratio}"
                )

    @property
    def wbar2(self) -> float:
        return self.params.phi + float(self.w_o @ self.w_o)


def _moment_coefficients(t: TheoryInputs) -> tuple[float, float]:
    """First-order coefficients (curvature weight, direction weight)."""
    p = t.params
    sigma = math.sqrt(t.sigma_i2)
    sgn = 1.0 if p.a > p.b else -1.0
    h1a = p.c**2 * sgn * _theta(2 * p.b - 4, t.alpha, sigma)
    if p.b != 2:
        h1a += p.c * (p.b - 2) * _theta(p.b - 4, t.alpha, sigma)
    h2a = p.c * _theta(p.b - 2, t.alpha, sigma)
    return h1a, h2a


def _input_noise_bracket(t: TheoryInputs) -> np.ndarray:
    """R sigma_i^2/||w_bar||^2 + sigma_i^4 I/||w_bar||^2 - sigma_i^4 w w^T/||w_bar||^4."""
    wbar2 = t.wbar2
    s2 = t.sigma_i2
    eye = np.eye(t.w_o.size)
    return (
        t.R * s2 / wbar2
        + s2 * s2 * eye / wbar2
        - s2 * s2 * np.outer(t.w_o, t.w_o) / wbar2**2
    )


def hessian_at_optimum(t: TheoryInputs) -> np.ndarray:
    """Expected curvature of the cost at the true weights."""
    h1a, h2a = _moment_coefficients(t)
    b1 = _input_noise_bracket(t)
    b2 = t.R / t.wbar2
    return h1a * b1 + h2a * b2


def max_step_size(t: TheoryInputs) -> float:
    """Largest mean-stable step size, 2 / lambda_max(H).

    No step is stable when H has a non-positive eigenvalue.
    steady_state_msd takes its stable range (0, max_step_size) from here.
    """
    lam = np.linalg.eigvalsh(hessian_at_optimum(t))
    if lam[0] <= 0:
        raise ValueError(
            "stability bound indeterminate: non-positive curvature estimate "
            "(parameters outside the first-order regime)"
        )
    return 2.0 / float(lam[-1])


def gradient_noise_covariance(t: TheoryInputs) -> np.ndarray:
    """Covariance S of the instantaneous gradient at the true weights."""
    p = t.params
    sigma = math.sqrt(t.sigma_i2)
    return p.c**2 * _theta(2 * p.b - 4, t.alpha, sigma) * _input_noise_bracket(t)


def steady_state_msd(t: TheoryInputs, mu: float) -> float:
    """Steady-state E||w - w_o||^2 = mu tr[(H (2I - mu H))^-1 S], for symmetric H.

    With A = I - mu H symmetric, the fixed point mu^2 sum_k A^k S A^k has
    trace mu^2 tr[(I - A^2)^-1 S], and I - A^2 = mu H (2I - mu H). The
    product keeps the small eigenvalues that forming I - A^2 cancels away
    at small mu. The fixed point exists for mu in (0, max_step_size(t)),
    and max_step_size's own ValueError reaches the caller. A variance near
    the float range overflows sigma_i^4, and ValueError says so in place
    of numpy's warnings.
    """
    overflow = ValueError(
        f"steady-state analysis overflows at noise variance {t.sigma_i2:g}"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        H = hessian_at_optimum(t)
        if not np.isfinite(H).all():
            raise overflow
        eye = np.eye(H.shape[0])
        bound = max_step_size(t)
        if not 0.0 < mu < bound:
            raise ValueError(
                f"divergent regime: mu={mu} lies outside the stable range "
                f"(0, 2/lambda_max(H)) = (0, {bound:.6g})"
            )
        S = gradient_noise_covariance(t)
        msd = float(mu * np.trace(np.linalg.solve(H @ (2.0 * eye - mu * H), S)))
    if not math.isfinite(msd):
        raise overflow
    return msd


def empirical_gradient_at_optimum(
    t: TheoryInputs,
    n_draws: int,
    seed,
    noise: tuple[NoiseSpec, NoiseSpec] | None = None,
) -> np.ndarray:
    """Monte-Carlo mean of the instantaneous gradient at w = w_o.

    Clean inputs are drawn iid with covariance R. By default both noises
    are GGD with the configured shape; pass an explicit (input, output)
    noise pair to reproduce a benchmark case instead.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(c) for c in ss.spawn(3)]
    L = t.w_o.size
    chol = np.linalg.cholesky(t.R)
    if noise is None:
        in_spec = NoiseSpec("ggd", t.sigma_i2, alpha=t.alpha)
        out_spec = NoiseSpec("ggd", t.sigma_o2, alpha=t.alpha)
    else:
        in_spec, out_spec = noise
    total = np.zeros(L)
    done = 0
    batch = 200_000
    while done < n_draws:
        k = min(batch, n_draws - done)
        x = rngs[0].standard_normal((k, L)) @ chol.T
        u = sample_mixture(in_spec, rngs[1], (k, L))
        v = sample_mixture(out_spec, rngs[2], k)
        e = v - u @ t.w_o
        g = gradient(e, x + u, np.broadcast_to(t.w_o, (k, L)), t.params)
        total += g.sum(axis=0)
        done += k
    return total / n_draws
