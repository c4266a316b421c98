"""Reuse-index scheduling.

Three reuse schedules are provided. The uniform-history schedule (idr)
picks l_reused samples evenly spread over the stored past, which
decorrelates the reused regressors; dr repeats the current sample; undr
replays the most recent consecutive samples. An optional window cap bounds
how far back the uniform schedule may reach, for tracking and
echo-cancellation use where stale data misleads.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def reach(cfg: ReuseConfig, n: int) -> int:
    """How far back schedule may reach in an n-sample run: 0 without reuse
    and for dr, l_reused for undr, the window cap or the whole run for idr."""
    if not cfg.active or cfg.scheme == "dr":
        return 0
    if cfg.scheme == "undr":
        return cfg.l_reused
    return n - 1 if cfg.window_cap is None else cfg.window_cap
