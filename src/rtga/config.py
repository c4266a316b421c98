"""Experiment configuration: presets, INI parsing, total validation.

Config files are strict INI: unknown sections or keys are hard errors,
and validation collects every problem before reporting, so a bad file
never starts a partial run. Command-line overrides are applied on top of
file values before validation.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

from .censoring import CensorConfig
from .filters import RtgaParams
from .noise import NoiseSpec, case_spec, noise_ratio
from .reuse import ReuseConfig

MODES = ("sysid", "tracking", "aec", "theory", "sweep")

ALGORITHMS = ("rtga", "proposed", "gdtls", "mtc", "mtgc", "tlmp", "tlmf", "ltls")

CASES = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    """Raised with every validation problem joined into one message."""


# Per-case tunings for the shipped roster. The full-cost rows ("rtga",
# "proposed") carry their own shape parameters; the limit-family baselines
# are realized through the tlmp/ltls/exp limits with the shapes below.
# Entries without a step size require an explicit mu in the config.
_FULL_COST = {
    ("rtga", 1): dict(mu=0.022, a=-100.0, b=2.0, c=0.2),
    ("rtga", 2): dict(mu=0.022, a=-100.0, b=2.0, c=0.1),
    ("rtga", 3): dict(mu=0.47, a=-100.0, b=1.5, c=0.2),
    ("rtga", 4): dict(mu=0.055, a=-1000.0, b=8.0, c=0.6),
    ("rtga", 5): dict(mu=0.02, a=-100.0, b=2.3, c=1.5),
    ("proposed", 1): dict(mu=0.0098, a=-100.0, b=2.0, c=0.1),
    ("proposed", 2): dict(mu=0.0088, a=-100.0, b=2.0, c=0.18),
    ("proposed", 3): dict(mu=0.155, a=-100.0, b=1.5, c=0.1),
    ("proposed", 4): dict(mu=0.025, a=-1000.0, b=8.0, c=0.6),
    ("proposed", 5): dict(mu=0.01, a=-100.0, b=2.29, c=1.2),
}

_LIMIT_PRESETS = {
    "gdtls": dict(family="tlmp", b=2.0, c=2.0,
                  mu={1: 0.0022, 2: 0.0022, 3: 0.25, 4: 0.12, 5: 0.05}),
    "mtc": dict(family="exp", b=2.0, c=1.0,
                mu={1: 0.003, 2: 0.003, 3: 0.26, 4: 0.17, 5: 0.03}),
    "mtgc": dict(family="exp", c=1.0,
                 b={1: 2.0, 2: 2.0, 3: 1.56, 4: 6.0, 5: 2.34},
                 mu={1: 0.003, 2: 0.006, 3: 0.18, 4: 0.055, 5: 0.05}),
    "tlmp": dict(family="tlmp", c=1.0),
    "tlmf": dict(family="tlmp", b=4.0, c=1.0),
    "ltls": dict(family="ltls", b=2.0, c=1.0),
}

# Theory mode's full-shape filter; no published value, mu lies inside the
# predicted stability bound of every shipped setting.
_THEORY_PRESET = dict(a=-100.0, b=2.0, c=0.1, mu=0.05)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Algorithm selection plus optional parameter overrides."""

    name: str = "rtga"
    a: float | None = None
    b: float | None = None
    c: float | None = None
    mu: float | None = None

    def resolve(self, case_id: int, phi: float, require_mu: bool = True) -> RtgaParams:
        """Concrete RtgaParams for one case."""
        if self.name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.name!r}; expected one of {ALGORITHMS}")
        preset = dict(_FULL_COST.get((self.name, case_id), {}))
        for key, val in _LIMIT_PRESETS.get(self.name, {}).items():
            preset[key] = val.get(case_id) if isinstance(val, dict) else val
        for key in ("a", "b", "c", "mu"):
            if getattr(self, key) is not None:
                preset[key] = getattr(self, key)
        preset = {key: val for key, val in preset.items() if val is not None}
        if "mu" not in preset:
            if require_mu:
                raise ConfigError(
                    f"algorithm {self.name!r} has no preset step size for case "
                    f"{case_id}; set mu explicitly"
                )
            preset["mu"] = 0.0
        if require_mu and preset["mu"] <= 0:
            raise ConfigError(f"algorithm.mu must be > 0, got {preset['mu']}")
        missing = [k for k in ("b", "c") if k not in preset]
        if missing:
            raise ConfigError(f"algorithm {self.name!r} is missing {missing}; set them explicitly")
        return RtgaParams(**preset, phi=phi)


@dataclass(frozen=True)
class AecConfig:
    far_end: str = "synthetic"
    echo_path: str = "synthetic"


@dataclass(frozen=True)
class TheoryConfig:
    variances: tuple[float, ...] = (0.01, 0.05, 0.1)
    output_family: str = "gaussian"
    alpha: float | None = None


@dataclass(frozen=True)
class SweepConfig:
    grid_min: float = -2.0
    grid_max: float = 2.0
    points: int = 41
    draws: int = 2000


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    mode: str = "sysid"
    case_id: int = 1
    order: int = 9
    n_samples: int = 8000
    mc_runs: int = 1000
    base_seed: int = 0
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    censoring: CensorConfig = field(default_factory=lambda: CensorConfig(p_ce=0.0))
    reuse: ReuseConfig = field(default_factory=lambda: ReuseConfig(scheme="none"))
    shift_time: int = 8000
    shift_amount: int = 3
    aec: AecConfig = field(default_factory=AecConfig)
    theory: TheoryConfig = field(default_factory=TheoryConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_path: str | None = None

    def noise_pairs(self) -> list[tuple[NoiseSpec, NoiseSpec]]:
        """The (input, output) noise pair of each group of runs: the case's, or
        per theory variance a gaussian input and theory.output_family output."""
        if self.mode != "theory":
            return [case_spec(self.case_id)]
        family = self.theory.output_family
        return [(NoiseSpec("gaussian", s2), NoiseSpec(family, s2)) for s2 in self.theory.variances]

    def resolved_params(self, noise: tuple[NoiseSpec, NoiseSpec] | None = None) -> RtgaParams:
        """The run's filter: every mode and validation build it here.

        phi is noise_ratio of the (input, output) noise pair the run draws:
        noise when given (AEC passes its scene-scaled pair), the first of
        noise_pairs() otherwise. Theory mode analyses the full shape, so it
        rejects a limit family and fills unset a, b, c and mu from its
        comparison preset; sweep needs no step size.
        """
        algo = self.algorithm
        if self.mode == "theory":
            if algo.name in _LIMIT_PRESETS:
                raise ConfigError(f"theory mode analyses the full RTGA cost shape; "
                                  f"{algo.name!r} is a limit family (use rtga or proposed)")
            unset = {k: v for k, v in _THEORY_PRESET.items() if getattr(algo, k) is None}
            algo = replace(algo, **unset)
        phi = noise_ratio(*(noise or self.noise_pairs()[0]))
        return algo.resolve(self.case_id, phi, require_mu=self.mode != "sweep")

    def validate(self) -> None:
        """Check every field; report all problems in a single error."""
        errors = self.validation_errors()
        if errors:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    def validation_errors(self) -> list[str]:
        """Every problem with this config, one message per field."""
        errors: list[str] = []
        if self.mode not in MODES:
            errors.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.case_id not in CASES:
            errors.append(f"experiment.case must be in 1..5, got {self.case_id}")
        if self.order < 1:
            errors.append(f"experiment.order must be >= 1, got {self.order}")
        if self.n_samples <= self.order:
            errors.append(
                f"experiment.samples ({self.n_samples}) must exceed the "
                f"filter order ({self.order})"
            )
        if self.mc_runs < 1:
            errors.append(f"experiment.runs must be >= 1, got {self.mc_runs}")
        if self.base_seed < 0:
            errors.append(f"experiment.seed must be >= 0, got {self.base_seed}")
        if self.case_id in CASES:
            # the case's pair stands in for theory's, whose fields are checked
            # below: a valid pair's phi is always a valid phi
            try:
                self.resolved_params(case_spec(self.case_id))
            except (ConfigError, ValueError) as exc:
                errors.append(str(exc))
        if self.mode == "tracking":
            if not 0 < self.shift_time < self.n_samples:
                errors.append(
                    f"experiment.shift_time must lie inside the sample range, "
                    f"got {self.shift_time}"
                )
            if not 0 <= self.shift_amount < self.order:
                errors.append(
                    f"experiment.shift_amount must be in [0, order), got {self.shift_amount}"
                )
        if self.mode == "aec":
            for label, path in (
                ("aec.far_end", self.aec.far_end),
                ("aec.echo_path", self.aec.echo_path),
            ):
                if path != "synthetic" and not os.path.isfile(path):
                    errors.append(f"{label}: file not found: {path}")
        if self.mode == "theory":
            if self.order > 64:
                errors.append(f"theory mode requires order <= 64, got {self.order}")
            if any(v <= 0 for v in self.theory.variances):
                errors.append("theory.variances must all be > 0")
            if not all(map(math.isfinite, self.theory.variances)):
                errors.append("theory.variances must all be finite")
            if not self.theory.variances:
                errors.append("theory.variances must be non-empty")
            if self.theory.output_family not in ("gaussian", "laplace"):
                errors.append(
                    f"theory.output_family must be gaussian or laplace, "
                    f"got {self.theory.output_family!r}"
                )
            if self.theory.alpha is not None and not 0 < self.theory.alpha < math.inf:
                errors.append(f"theory.alpha must be finite and > 0, got {self.theory.alpha}")
        if self.mode == "sweep":
            if self.order != 2:
                errors.append(f"sweep mode grids 2-tap weights; set order = 2, got {self.order}")
            if self.sweep.points < 2:
                errors.append(f"sweep.points must be >= 2, got {self.sweep.points}")
            if self.sweep.draws < 1:
                errors.append(f"sweep.draws must be >= 1, got {self.sweep.draws}")
            for key, bound in (("min", self.sweep.grid_min), ("max", self.sweep.grid_max)):
                if not math.isfinite(bound):
                    errors.append(f"sweep.{key} must be finite, got {bound}")
            if not self.sweep.grid_max > self.sweep.grid_min:
                errors.append("sweep.max must exceed sweep.min")
        return errors


_KNOWN_KEYS = {
    "experiment": ("case", "order", "samples", "runs", "seed", "shift_time", "shift_amount"),
    "algorithm": ("name", "a", "b", "c", "mu"),
    "censoring": ("p_ce", "window", "tau", "estimator"),
    "reuse": ("scheme", "count", "window"),
    "aec": ("far_end", "echo_path"),
    "theory": ("variances", "output_family", "alpha"),
    "sweep": ("min", "max", "points", "draws"),
}


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse a strict INI file into raw string values.

    Unknown sections or keys are collected and reported together.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    errors = []
    values: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_KNOWN_KEYS)}"
            )
            continue
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _KNOWN_KEYS[section]:
                errors.append(
                    f"unknown key {key!r} in [{section}]; expected one of "
                    f"{sorted(_KNOWN_KEYS[section])}"
                )
            else:
                values[section][key] = raw
    if errors:
        raise ConfigError("invalid config file:\n  " + "\n  ".join(errors))
    return values


class _Builder:
    """Converts raw strings with per-key error accounting."""

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values
        self.errors: list[str] = []

    def get(self, section: str, key: str, conv, default):
        raw = self.values.get(section, {}).get(key)
        if raw is None:
            return default
        try:
            return conv(raw)
        except ValueError:
            self.errors.append(
                f"{section}.{key}: cannot interpret {raw!r} as {conv.__name__}"
            )
            return default


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def build_config(
    mode: str,
    file_values: dict[str, dict[str, str]] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig.

    file_values comes from read_config_file; overrides (from CLI flags)
    win over file values. Mode-dependent defaults: tracking runs 16000
    samples, AEC uses a 512-tap filter over 200000 samples and 50 runs.
    """
    b = _Builder(file_values or {})
    ov = overrides or {}

    def pick(name, value):
        return ov[name] if ov.get(name) is not None else value

    if mode == "aec":
        default_order, default_samples, default_runs = 512, 200_000, 50
    elif mode == "tracking":
        default_order, default_samples, default_runs = 9, 16_000, 1000
    elif mode == "sweep":
        default_order, default_samples, default_runs = 2, 8000, 1000
    elif mode == "theory":
        default_order, default_samples, default_runs = 9, 30_000, 200
    else:
        default_order, default_samples, default_runs = 9, 8000, 1000

    case_id = pick("case", b.get("experiment", "case", int, 1))
    order = pick("order", b.get("experiment", "order", int, default_order))
    samples = pick("samples", b.get("experiment", "samples", int, default_samples))
    runs = pick("runs", b.get("experiment", "runs", int, default_runs))
    seed = pick("seed", b.get("experiment", "seed", int, 0))
    shift_time = b.get("experiment", "shift_time", int, ExperimentConfig.shift_time)
    shift_amount = b.get("experiment", "shift_amount", int, ExperimentConfig.shift_amount)

    algo = AlgorithmConfig(
        name=pick("algo", b.get("algorithm", "name", str, "rtga")),
        a=b.get("algorithm", "a", float, None),
        b=b.get("algorithm", "b", float, None),
        c=b.get("algorithm", "c", float, None),
        mu=pick("mu", b.get("algorithm", "mu", float, None)),
    )

    p_ce = pick("pce", b.get("censoring", "p_ce", float, 0.0))
    window = b.get("censoring", "window", int, CensorConfig.window)
    tau = b.get("censoring", "tau", float, CensorConfig.tau)
    estimator = b.get("censoring", "estimator", str, "auto")
    if estimator == "auto":
        estimator = "conventional" if case_id == 1 else "robust_median"

    scheme = b.get("reuse", "scheme", str, "none")
    count = pick("reuse", b.get("reuse", "count", int, 0))
    cap = pick("window", b.get("reuse", "window", int, None))
    if count and scheme == "none":
        scheme = "idr"
    if mode in ("tracking", "aec") and scheme != "none" and cap is None:
        cap = 200

    aec = AecConfig(
        far_end=b.get("aec", "far_end", str, AecConfig.far_end),
        echo_path=b.get("aec", "echo_path", str, AecConfig.echo_path),
    )
    theory = TheoryConfig(
        variances=b.get("theory", "variances", _float_list, TheoryConfig.variances),
        output_family=b.get("theory", "output_family", str, TheoryConfig.output_family),
        alpha=b.get("theory", "alpha", float, TheoryConfig.alpha),
    )
    sweep = SweepConfig(
        grid_min=b.get("sweep", "min", float, SweepConfig.grid_min),
        grid_max=b.get("sweep", "max", float, SweepConfig.grid_max),
        points=b.get("sweep", "points", int, SweepConfig.points),
        draws=b.get("sweep", "draws", int, SweepConfig.draws),
    )

    errors = list(b.errors)
    censor = reuse = None
    try:
        censor = CensorConfig(p_ce=p_ce, window=window, tau=tau, estimator=estimator)
    except ValueError as exc:
        errors.append(f"censoring: {exc}")
        censor = CensorConfig(p_ce=0.0)
    try:
        reuse = ReuseConfig(scheme=scheme, l_reused=count, window_cap=cap)
    except ValueError as exc:
        errors.append(f"reuse: {exc}")
        reuse = ReuseConfig()

    cfg = ExperimentConfig(
        mode=mode,
        case_id=case_id,
        order=order,
        n_samples=samples,
        mc_runs=runs,
        base_seed=seed,
        algorithm=algo,
        censoring=censor,
        reuse=reuse,
        shift_time=shift_time,
        shift_amount=shift_amount,
        aec=aec,
        theory=theory,
        sweep=sweep,
        out_path=ov.get("out"),
    )
    errors.extend(cfg.validation_errors())
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg
