"""Reuse-index scheduling.

Three reuse schedules are provided. The uniform-history schedule (idr)
picks l_reused samples evenly spread over the stored past, which
decorrelates the reused regressors; dr repeats the current sample; undr
replays the most recent consecutive samples. An optional window cap bounds
how far back the uniform schedule may reach, for tracking and
echo-cancellation use where stale data misleads. schedule states each
scheme once; reach, the history a pass must keep, reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMES = ("none", "idr", "dr", "undr")


@dataclass(frozen=True)
class ReuseConfig:
    """A reuse count alone means idr; scheme "none" turns reuse off. The
    messages name the INI keys: reuse.scheme, reuse.count (l_reused) and
    reuse.window (window_cap)."""

    scheme: str = "idr"
    l_reused: int = 0
    window_cap: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown reuse.scheme {self.scheme!r}")
        if self.l_reused < 0:
            raise ValueError(f"reuse.count must be >= 0, got {self.l_reused}")
        if self.window_cap is not None and self.window_cap < self.l_reused + 1:
            raise ValueError(f"reuse.window ({self.window_cap}) must be at least "
                             f"reuse.count + 1 ({self.l_reused + 1})")

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
        return [i] * cfg.l_reused
    # undr: the most recent past samples, oldest first, none before L
    return list(range(max(L, i - cfg.l_reused), i))


def reach(cfg: ReuseConfig, n: int, L: int) -> int:
    """How far back schedule reaches in an n-sample run of order L: the
    last sample's oldest offset. No scheme's oldest offset shrinks as i
    grows, so no earlier sample reaches further back."""
    i = n - 1
    return i - min(schedule(cfg, i, L), default=i)
