"""Errors-in-variables signal model.

The data stream is a linear system observed through noise on both sides:
the regressor fed to the filter is the clean tapped-delay-line vector plus
a fresh input-noise vector each step, and the desired output is the clean
inner product plus output noise. Regressors are newest-first and the first
L-1 steps are zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .noise import NoiseSpec, sample_mixture_split


@dataclass
class TrueSystem:
    """True weight vector plus an optional tracking-shift schedule.

    shift_schedule entries are (time, right_shift) pairs applied in order;
    at each scheduled time the current w_o is shifted right by the given
    amount with zero fill, discarding the taps that fall off the end.
    """

    w_o: np.ndarray
    shift_schedule: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.w_o = np.asarray(self.w_o, dtype=float)
        if self.w_o.ndim != 1 or self.w_o.size < 1:
            raise ValueError("w_o must be a vector of length >= 1")
        times = [t for t, _ in self.shift_schedule]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("shift times must be strictly increasing")

    @property
    def order(self) -> int:
        return self.w_o.size


@dataclass(frozen=True)
class EivSample:
    """One time step of the noisy stream."""

    x: np.ndarray
    x_tilde: np.ndarray
    d: float
    d_tilde: float
    index: int


def apply_fir(w, x_window) -> float:
    """Inner product of a weight vector with a regressor window."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x_window, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"length mismatch: weights {w.shape} vs window {x.shape}")
    return float(w @ x)


def shift_right(w: np.ndarray, amount: int) -> np.ndarray:
    """Right-shift with zero fill; shifted-out coefficients are discarded."""
    if amount < 0:
        raise ValueError("shift amount must be >= 0")
    if amount == 0:
        return w.copy()
    out = np.zeros_like(w)
    if amount < w.size:
        out[amount:] = w[:-amount]
    return out


def wo_segments(system: TrueSystem, n: int) -> list[tuple[int, int, np.ndarray]]:
    """Piecewise-constant w_o trajectory as (start, end, w_o) segments."""
    segments = []
    w = system.w_o.copy()
    start = 0
    for t, amount in system.shift_schedule:
        if t >= n:
            break
        if t > start:
            segments.append((start, t, w))
        w = shift_right(w, amount)
        start = t
    segments.append((start, n, w))
    return segments


def delay_line_matrix(source: np.ndarray, order: int) -> np.ndarray:
    """Regressor matrix of a scalar source, newest sample first.

    Accepts (n,) or (runs, n) sources and returns (..., n, order). 'Row i'
    is [s(i), s(i-1), ..., s(i-order+1)] with zeros before the start.
    Returned as a read-only strided view where possible; copy before
    mutating.
    """
    source = np.asarray(source, dtype=float)
    pad_shape = source.shape[:-1] + (order - 1,)
    padded = np.concatenate([np.zeros(pad_shape), source], axis=-1)
    windows = sliding_window_view(padded, order, axis=-1)
    return windows[..., ::-1]


def synthesize_eiv_arrays(
    w_o: np.ndarray,
    source: np.ndarray,
    input_spec: NoiseSpec,
    output_spec: NoiseSpec,
    streams: dict[str, np.random.Generator],
):
    """Vectorized EIV stream synthesis.

    source is (n,) or (runs, n); w_o is (order,) or (runs, order) matching
    the leading source shape. streams carries six generators keyed
    u_base/u_mask/u_amp/v_base/v_mask/v_amp so that impulse components draw
    from dedicated substreams. Returns (x, x_tilde, d, d_tilde) with
    regressor axes (..., n, order).
    """
    w_o = np.asarray(w_o, dtype=float)
    order = w_o.shape[-1]
    x = delay_line_matrix(source, order)
    u = sample_mixture_split(
        input_spec,
        streams["u_base"],
        streams["u_mask"],
        streams["u_amp"],
        x.shape,
    )
    x_tilde = x + u
    d = np.einsum("...nl,...l->...n", x, w_o)
    v = sample_mixture_split(
        output_spec,
        streams["v_base"],
        streams["v_mask"],
        streams["v_amp"],
        d.shape,
    )
    return x, x_tilde, d, d + v


def noise_streams(seed) -> dict[str, np.random.Generator]:
    """Six dedicated noise substreams spawned from one seed.

    Accepts an integer or a numpy SeedSequence. Separate substreams per
    mixture component keep the stream layout independent of how many
    samples each component draws.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    keys = ("u_base", "u_mask", "u_amp", "v_base", "v_mask", "v_amp")
    return dict(zip(keys, map(np.random.default_rng, ss.spawn(len(keys)))))


def synthesize_eiv(
    system: TrueSystem,
    input_source,
    noise: tuple[NoiseSpec, NoiseSpec],
    n: int,
    seed,
) -> list[EivSample]:
    """Materialize n steps of the noisy stream as EivSample records.

    input_source is any iterable of scalars providing at least n values.
    The same (seed, config) reproduces the identical sequence bit for bit.
    """
    if system.order < 1:
        raise ValueError("invalid system: order must be >= 1")
    if n < system.order:
        raise ValueError("n must be at least the filter order")
    src = np.fromiter(iter(input_source), dtype=float, count=-1)
    if src.size < n:
        raise ValueError(f"input source exhausted: needed {n} samples, got {src.size}")
    src = src[:n]
    input_spec, output_spec = noise
    x, x_tilde, d, d_tilde = synthesize_eiv_arrays(
        system.w_o, src, input_spec, output_spec, noise_streams(seed)
    )
    if system.shift_schedule:
        v = d_tilde - d
        for start, end, w in wo_segments(system, n):
            d[start:end] = x[start:end] @ w
        d_tilde = d + v
    return [
        EivSample(x[i].copy(), x_tilde[i].copy(), float(d[i]), float(d_tilde[i]), i)
        for i in range(n)
    ]
