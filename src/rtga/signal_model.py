"""Errors-in-variables signal model.

The data stream is a linear system observed through noise on both sides:
the regressor fed to the filter is the clean tapped-delay-line vector plus
a fresh input-noise vector each step, and the desired output is the clean
inner product plus output noise. Regressors are newest-first and the first
L-1 steps are zero-padded.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# unused here; bench/spans.py patches this name when it times the noise draws
from .noise import sample_mixture_split


def shift_right(w: np.ndarray, amount: int) -> np.ndarray:
    """Right-shift along the last axis with zero fill, discarding the overflow."""
    if amount < 0:
        raise ValueError("shift amount must be >= 0")
    if amount == 0:
        return w.copy()
    out = np.zeros_like(w)
    if amount < w.shape[-1]:
        out[..., amount:] = w[..., :-amount]
    return out


def wo_segments(
    w_o: np.ndarray, shifts: Sequence[tuple[int, int]], n: int
) -> list[tuple[int, int, np.ndarray]]:
    """Piecewise-constant truth over [0, n) as (start, end, w_o) segments.

    w_o is (L,) or (runs, L); at each (time, amount) of the schedule, in
    increasing time order, the truth is shifted right by amount.
    """
    segments = []
    w = w_o
    start = 0
    for t, amount in shifts:
        if t >= n:
            break
        if t > start:
            segments.append((start, t, w))
        w = shift_right(w, amount)
        start = t
    segments.append((start, n, w))
    return segments


def one_pole(x, a: float, b: float) -> np.ndarray:
    """The first-order recursion y[i] = a y[i-1] + b x[i] over an (n,) x,
    from y[0] = x[0]."""
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    acc = y[0] = x[0]
    for i in range(1, x.size):
        acc = y[i] = a * acc + b * x[i]
    return y


def delay_line_matrix(source: np.ndarray, order: int) -> np.ndarray:
    """Regressor matrix of a scalar source, newest sample first.

    Accepts (n,) or (runs, n) sources and returns (..., n, order). 'Row i'
    is [s(i), s(i-1), ..., s(i-order+1)]; samples before s(0) are zero.
    Returned as a read-only strided view where possible; copy before
    mutating.
    """
    source = np.asarray(source, dtype=float)
    pad = np.zeros(source.shape[:-1] + (order - 1,))
    padded = np.concatenate([pad, source], axis=-1)
    windows = sliding_window_view(padded, order, axis=-1)
    return windows[..., ::-1]


def clean_output(x: np.ndarray, w_o: np.ndarray) -> np.ndarray:
    """Noiseless output x . w_o of regressors (..., n, L) and a truth (..., L)."""
    return np.einsum("...nl,...l->...n", x, w_o)


def synthesize_eiv_arrays(
    w_o: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    d: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
):
    """EIV samples from clean regressors and drawn noise.

    x is the clean regressor matrix (..., n, order), e.g. from
    delay_line_matrix, u the input noise and v the output noise, shaped
    like x and like the clean output; w_o is (order,) or (..., order) and
    broadcasts against x's leading shape, as x does against u's. d is the
    clean output clean_output(x, w_o) when the caller already has it. out
    is an (x_tilde, d_tilde) pair of arrays, or views, to write the noisy
    samples into. Returns (x, x_tilde, d, d_tilde).
    """
    x_tilde, d_tilde = (None, None) if out is None else out
    x_tilde = np.add(x, u, out=x_tilde)
    if d is None:
        d = clean_output(x, np.asarray(w_o, dtype=float))
    return x, x_tilde, d, np.add(d, v, out=d_tilde)
