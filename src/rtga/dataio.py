"""File formats and synthetic assets for the experiment harness.

CSV learning curves, 16-bit mono PCM WAV input, echo-path text files,
and the synthetic fallbacks used when no recorded assets are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import wave

import numpy as np

from .signal_model import one_pole

ECHO_PATH_LEN = 512

# Fixed seeds for the synthetic assets so every run sees the same scene.
_FAR_END_SEED = 727
_ECHO_SEED = 929


@dataclass(frozen=True)
class AudioClip:
    """Mono audio samples in [-1, 1] plus the source sample rate."""

    samples: np.ndarray
    rate: int


@dataclass(frozen=True)
class AecAssets:
    """Far-end drive signal and the echo path to identify."""

    far_end: np.ndarray
    echo_path: np.ndarray
    # what the error messages call the two, such as the files they came from
    names: tuple[str, str] = ("far-end audio", "echo path")

    def __post_init__(self) -> None:
        far = np.asarray(self.far_end, dtype=float)
        path = np.asarray(self.echo_path, dtype=float)
        object.__setattr__(self, "far_end", far)
        object.__setattr__(self, "echo_path", path)
        far_name, path_name = self.names
        if far.size == 0:
            raise ValueError(f"{far_name} is empty")
        # so that a non-finite value inside a pass can only be divergence
        if not np.isfinite(far).all():
            raise ValueError(f"{far_name} has a non-finite sample")
        if not np.isfinite(path).all():
            raise ValueError(f"{path_name} has a non-finite tap")
        if np.abs(far).max() > 1.0 + 1e-9:
            raise ValueError(f"{far_name} must be normalized to [-1, 1]")
        if path.shape != (ECHO_PATH_LEN,):
            raise ValueError(
                f"{path_name} must have exactly {ECHO_PATH_LEN} taps, got {path.shape}"
            )
        if not path.any():
            # the NMSD divides by the path's squared norm
            raise ValueError(f"{path_name} has no nonzero tap")


def write_csv(curves: dict, path: str) -> None:
    """Write named curves as CSV: iteration column plus one column each.

    Values are serialized with 6 significant digits (trailing zeros kept),
    rows newline-terminated, UTF-8.
    """
    if not curves:
        raise ValueError("no curves to write")
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in curves.items()}
    lengths = {a.size for a in arrays.values()}
    if len(lengths) != 1:
        raise ValueError(f"curves must share one length, got {sorted(lengths)}")
    n = lengths.pop()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["iteration", *arrays]) + "\n")
        columns = list(arrays.values())
        for i in range(n):
            row = ",".join(format(col[i], "#.6g") for col in columns)
            fh.write(f"{i},{row}\n")


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a file written by write_csv back into named columns."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:1] != ["iteration"]:
            raise ValueError(f"not a curve CSV: header starts with {header[:1]}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, j + 1] for j, name in enumerate(header[1:])}


def load_wav(path: str) -> AudioClip:
    """Load a 16-bit mono linear PCM WAV file, scaled by 1/32768."""
    try:
        wav = wave.open(path, "rb")
    except (wave.Error, EOFError) as exc:  # not RIFF/WAVE, not PCM, or cut short
        raise ValueError(f"cannot read WAV file {path}: {str(exc) or 'it ends early'}") from exc
    with wav:
        if wav.getnchannels() != 1:
            problem = f"channel count {wav.getnchannels()}; only mono input is supported"
        elif wav.getsampwidth() != 2:
            problem = f"sample width {8 * wav.getsampwidth()} bits; only 16-bit PCM is supported"
        else:
            problem = None
        if problem:
            raise ValueError(f"cannot read WAV file {path}: unsupported {problem}")
        raw = wav.readframes(wav.getnframes())
        rate = wav.getframerate()
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return AudioClip(samples=samples, rate=rate)


def save_wav(path: str, samples: np.ndarray, rate: int = 8000) -> None:
    """Write mono 16-bit PCM; values are clipped to [-1, 1) before scaling."""
    scaled = np.clip(np.asarray(samples, dtype=float), -1.0, 32767.0 / 32768.0)
    pcm = np.round(scaled * 32768.0).astype("<i2")
    with wave.open(path, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(pcm.tobytes())


def load_echo_path(path: str) -> np.ndarray:
    """Read exactly 512 whitespace-separated finite reals; a non-UTF-8 byte fails its token."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            for token in line.split():
                try:
                    value = float(token)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {token!r} as a real number"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: tap {token!r} is not finite")
                values.append(value)
    if len(values) != ECHO_PATH_LEN:
        raise ValueError(
            f"{path}: echo path must contain exactly {ECHO_PATH_LEN} values, "
            f"found {len(values)}"
        )
    return np.array(values)


def save_echo_path(path: str, taps: np.ndarray) -> None:
    """Write one tap per line with full round-trip precision."""
    taps = np.asarray(taps, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for v in taps:
            fh.write(format(v, ".17g") + "\n")


def synth_far_end(n: int, seed: int = _FAR_END_SEED) -> np.ndarray:
    """Speech-like AR(1) drive signal (pole 0.9), peak-normalized.

    A fixed seed keeps the synthetic scene identical across runs; the
    burn-in discards the filter transient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    burn = 200
    x = one_pole(rng.standard_normal(n + burn), 0.9, 1.0)[burn:]
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x


def synth_echo_path(seed: int = _ECHO_SEED) -> np.ndarray:
    """Unit-norm random echo path with an exponentially decaying profile."""
    rng = np.random.default_rng(seed)
    t = np.arange(ECHO_PATH_LEN)
    taps = rng.standard_normal(ECHO_PATH_LEN) * np.exp(-t / 64.0)
    return taps / np.linalg.norm(taps)
