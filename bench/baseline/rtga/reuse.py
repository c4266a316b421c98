"""Reuse-index scheduling and the per-iteration reuse pass.

Three reuse schedules are provided. The uniform-history schedule (idr)
picks l_reused samples evenly spread over the stored past, which
decorrelates the reused regressors; dr repeats the current sample; undr
replays the most recent consecutive samples. An optional window cap bounds
how far back the uniform schedule may reach, for tracking and
echo-cancellation use where stale data misleads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .censoring import CensorConfig, ScaleState, censor_decision
from .filters import FilterState, RtgaParams, update_step

SCHEMES = ("none", "idr", "dr", "undr")


@dataclass(frozen=True)
class ReuseConfig:
    scheme: str = "none"
    l_reused: int = 0
    window_cap: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown reuse scheme {self.scheme!r}")
        if self.l_reused < 0:
            raise ValueError("l_reused must be >= 0")
        if self.window_cap is not None and self.window_cap < self.l_reused + 1:
            raise ValueError("window_cap must be >= l_reused + 1")

    @property
    def active(self) -> bool:
        return self.scheme != "none" and self.l_reused > 0


def idr_indices(i: int, L: int, l_reused: int, window_cap: int | None = None) -> list[int]:
    """Uniformly spread historical indices strictly inside the span.

    Unbounded mode segments (L, i); bounded mode segments the most recent
    min(i - L, window_cap) samples, which reduces to the unbounded formula
    while the history is still short.
    """
    if i <= L:
        raise ValueError(f"too early for reuse: i={i} must exceed the order L={L}")
    if l_reused == 0:
        return []
    span = i - L
    anchor = L
    if window_cap is not None and span > window_cap:
        span = window_cap
        anchor = i - window_cap
    return [anchor + (span * ii) // (l_reused + 1) for ii in range(1, l_reused + 1)]


def dr_indices(i: int, l_reused: int) -> list[int]:
    """Repeat the current sample."""
    return [i] * l_reused


def undr_indices(i: int, L: int, l_reused: int) -> list[int]:
    """Most recent consecutive past samples, oldest first."""
    start = max(L, i - l_reused)
    return list(range(start, i))


def schedule(cfg: ReuseConfig, i: int, L: int) -> list[int]:
    """Reuse indices for iteration i, empty while history is too short.

    The uniform schedule waits until the span exceeds l_reused so its
    indices are distinct and strictly inside (anchor, i).
    """
    if not cfg.active or i <= L:
        return []
    if cfg.scheme == "idr":
        if i - L < cfg.l_reused + 1:
            return []
        return idr_indices(i, L, cfg.l_reused, cfg.window_cap)
    if cfg.scheme == "dr":
        return dr_indices(i, cfg.l_reused)
    return undr_indices(i, L, cfg.l_reused)


class SampleHistory:
    """Stored (x_tilde, d_tilde) pairs retrievable by time index.

    Backed either by preallocated full arrays (cheap for short streams) or
    by a ring of the most recent `capacity` pairs. The retrievable range is
    contiguous and ends at the latest pushed index.
    """

    def __init__(self, order: int, capacity: int | None = None, lead_shape: tuple = ()):
        self._order = order
        self._capacity = capacity
        self._lead = lead_shape
        self._latest = -1
        if capacity is not None:
            self._x = np.zeros(lead_shape + (capacity, order))
            self._d = np.zeros(lead_shape + (capacity,))
        else:
            self._x_chunks: list = []
            self._d_chunks: list = []
            self._x = None
            self._d = None

    @classmethod
    def from_arrays(cls, x_tilde: np.ndarray, d_tilde: np.ndarray) -> "SampleHistory":
        """Wrap already-materialized full arrays (..., n, order) / (..., n)."""
        h = cls(x_tilde.shape[-1], capacity=None, lead_shape=x_tilde.shape[:-2])
        h._x = x_tilde
        h._d = d_tilde
        h._latest = x_tilde.shape[-2] - 1
        return h

    def push(self, x_row: np.ndarray, d_val) -> None:
        self._latest += 1
        if self._capacity is not None:
            slot = self._latest % self._capacity
            self._x[..., slot, :] = x_row
            self._d[..., slot] = d_val
        else:
            self._x_chunks.append(np.array(x_row, dtype=float))
            self._d_chunks.append(d_val)

    @property
    def latest(self) -> int:
        return self._latest

    def has(self, idx: int) -> bool:
        if idx < 0 or idx > self._latest:
            return False
        if self._capacity is not None:
            return idx > self._latest - self._capacity
        return True

    def get(self, idx: int):
        """(x_tilde, d_tilde) at time idx; raises when outside the window."""
        if not self.has(idx):
            raise LookupError(
                f"history gap: index {idx} not stored (latest {self._latest}, "
                f"capacity {self._capacity})"
            )
        if self._capacity is not None:
            slot = idx % self._capacity
            return self._x[..., slot, :], self._d[..., slot]
        if self._x is not None:
            return self._x[..., idx, :], self._d[..., idx]
        return self._x_chunks[idx], self._d_chunks[idx]


def reuse_pass(
    state: FilterState,
    history: SampleHistory,
    p: RtgaParams,
    cfg: ReuseConfig,
    censor: CensorConfig,
    scale: ScaleState,
    i: int,
    L: int,
) -> FilterState:
    """Sequential gated updates on this iteration's scheduled reuse samples.

    Each reuse step starts from the weights left by the previous one and is
    individually censored on its own error. The scale tracker is never fed
    reuse errors.
    """
    for idx in schedule(cfg, i, L):
        x_r, d_r = history.get(idx)
        e_r = float(d_r) - float(state.w @ x_r)
        gated = (
            censor.active
            and scale.ready
            and censor_decision(e_r, censor.kappa, scale.sigma_e)
        )
        sample = _ReuseSample(x_r, float(d_r))
        state = update_step(state, sample, p, gated)
    return state


class _ReuseSample:
    """Minimal sample view for update_step."""

    __slots__ = ("x_tilde", "d_tilde")

    def __init__(self, x_tilde, d_tilde):
        self.x_tilde = x_tilde
        self.d_tilde = d_tilde
