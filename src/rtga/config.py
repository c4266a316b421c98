"""Experiment configuration: presets, the settings table, total validation.

Every setting is declared once, as a row of SETTINGS keyed by its INI
(section, key): the config field it sets, the conversion of the file text
and the command-line flag, if any, that wins over the file; each flag's
--help line ends with its [section] key. Override names are those flags'
names, plus ``out`` for the CSV path. build_config rejects unknown
sections, keys and override names and collects every problem, with bad
values and invalid settings, before reporting, so a bad config never
starts a partial run.
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .censoring import CensorConfig
from .dataio import ECHO_PATH_LEN
from .filters import RtgaParams
from .noise import NoiseSpec, case_spec, noise_ratio
from .reuse import ReuseConfig

# Each mode's sizes, which ExperimentConfig takes when unset; a mode takes
# sysid's where its row has none. Tracking runs 16000 samples, AEC a
# 512-tap filter over 200000 samples and 50 runs.
_MODE_DEFAULTS = {
    "sysid": dict(order=9, n_samples=8000, mc_runs=1000),
    "tracking": dict(n_samples=16_000),
    "aec": dict(order=ECHO_PATH_LEN, n_samples=200_000, mc_runs=50),
    "theory": dict(n_samples=30_000, mc_runs=200),
    "sweep": dict(order=2),
}

MODES = tuple(_MODE_DEFAULTS)

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
        """Concrete RtgaParams for one case. One ConfigError lists every
        problem on a line of its own, a field's named by its INI key
        (algorithm.a, algorithm.b, algorithm.c, algorithm.mu)."""
        if self.name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.name!r}; expected one of {ALGORITHMS}")
        preset = dict(_FULL_COST.get((self.name, case_id), {}))
        for key, val in _LIMIT_PRESETS.get(self.name, {}).items():
            preset[key] = val.get(case_id) if isinstance(val, dict) else val
        for key in ("a", "b", "c", "mu"):
            if getattr(self, key) is not None:
                preset[key] = getattr(self, key)
        preset = {key: val for key, val in preset.items() if val is not None}
        problems = []
        mu = preset.get("mu")
        if require_mu and mu is None:
            problems.append(f"algorithm {self.name!r} has no preset step size for case "
                            f"{case_id}; set mu explicitly")
        elif require_mu and mu <= 0:
            problems.append(f"algorithm.mu must be > 0, got {mu}")
        if mu is None or problems:
            preset["mu"] = 0.0  # unset or reported above; RtgaParams checks the rest
        missing = [k for k in ("b", "c") if k not in preset]
        if missing:
            problems.append(f"algorithm {self.name!r} is missing {missing}; set them explicitly")
        else:
            try:
                params = RtgaParams(**preset, phi=phi)
            except ValueError as exc:
                problems += [f"algorithm.{line}" for line in str(exc).splitlines()]
        if problems:
            raise ConfigError("\n".join(problems))
        return params


@dataclass(frozen=True)
class AecConfig:
    far_end: str = "synthetic"
    echo_path: str = "synthetic"


@dataclass(frozen=True)
class TheoryConfig:
    variances: tuple[float, ...] = (0.01, 0.05, 0.1)
    output_family: str = "gaussian"
    # GGD shape attributed to the normalized optimal error, for either output
    # family. The optimal error is output noise minus the input-noise
    # projection, so even for laplace output the convolution with the
    # gaussian projection is gaussian-like near zero, where the
    # negative-order moments concentrate.
    alpha: float = 2.0


@dataclass(frozen=True)
class SweepConfig:
    grid_min: float = -2.0
    grid_max: float = 2.0
    points: int = 41
    draws: int = 2000


@dataclass
class ExperimentConfig:
    """One experiment. Each default has one owner, the setting it belongs
    to, so a library config and build_config resolve the same experiment
    from the same settings: unset sizes (order, n_samples, mc_runs) take
    the mode's (_MODE_DEFAULTS), an unset shift_time means mid-stream
    (truth_shifts), the estimator "auto" is the case's
    (resolved_censoring), and a reuse count alone means idr (ReuseConfig).

    The sizes are written into their fields when the config is made, so
    replace(cfg, mode=...) keeps the old mode's sizes: a config for another
    mode is built new, ExperimentConfig(mode=...), not made with replace."""

    mode: str = "sysid"
    case_id: int = 1
    order: int | None = None
    n_samples: int | None = None
    mc_runs: int | None = None
    base_seed: int = 0
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    censoring: CensorConfig = field(default_factory=lambda: CensorConfig(p_ce=0.0))
    reuse: ReuseConfig = field(default_factory=ReuseConfig)
    shift_time: int | None = None
    shift_amount: int = 3
    aec: AecConfig = field(default_factory=AecConfig)
    theory: TheoryConfig = field(default_factory=TheoryConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_path: str | None = None

    def __post_init__(self) -> None:
        for name, value in {**_MODE_DEFAULTS["sysid"], **_MODE_DEFAULTS.get(self.mode, {})}.items():
            if getattr(self, name) is None:
                setattr(self, name, value)

    def noise_pairs(self) -> list[tuple[NoiseSpec, NoiseSpec]]:
        """The (input, output) noise pair of each group of runs: the case's, or
        per theory variance a gaussian input and theory.output_family output."""
        if self.mode != "theory":
            return [case_spec(self.case_id)]
        family = self.theory.output_family
        return [(NoiseSpec("gaussian", s2), NoiseSpec(family, s2)) for s2 in self.theory.variances]

    def truth_shifts(self) -> list[tuple[int, int]]:
        """The truth's (time, right_shift) schedule: tracking mode's one
        shift, at shift_time, or mid-stream (n_samples // 2) when unset."""
        if self.mode == "tracking" and self.shift_amount:
            time = self.n_samples // 2 if self.shift_time is None else self.shift_time
            return [(time, self.shift_amount)]
        return []

    def resolved_censoring(self) -> CensorConfig:
        """The censoring the engine runs: the estimator "auto" is
        conventional on case 1 and robust_median on the other cases.
        Resolved at use, so replace(cfg, case_id=...) reads no stale choice."""
        auto = "conventional" if self.case_id == 1 else "robust_median"
        estimator = auto if self.censoring.estimator == "auto" else self.censoring.estimator
        return replace(self.censoring, estimator=estimator)

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

    def validate(self, *modes: str) -> None:
        """Check every field; report all problems in a single error. An
        experiment names the modes it runs, and a config of another mode
        is refused first."""
        if modes and self.mode not in modes:
            raise ConfigError(f"the {' or '.join(modes)} experiment cannot run a config "
                              f"of mode {self.mode!r}")
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
            except ValueError as exc:
                errors.extend(str(exc).splitlines())
        if self.mode == "tracking":
            if self.shift_time is not None and not 0 < self.shift_time < self.n_samples:
                errors.append(f"experiment.shift_time must lie inside the sample range, "
                              f"in [1, {self.n_samples - 1}], got {self.shift_time}")
            if not 0 <= self.shift_amount < self.order:
                errors.append(
                    f"experiment.shift_amount must be in [0, order), got {self.shift_amount}"
                )
        if self.mode == "aec":
            if self.order != ECHO_PATH_LEN:
                errors.append(
                    f"experiment.order must be {ECHO_PATH_LEN} in aec mode, which "
                    f"identifies a {ECHO_PATH_LEN}-tap path, got {self.order}"
                )
            if self.reuse.active and self.reuse.window_cap is None:
                errors.append("aec mode streams its history; reuse needs reuse.window set")
            for label, path in (
                ("aec.far_end", self.aec.far_end),
                ("aec.echo_path", self.aec.echo_path),
            ):
                if path != "synthetic" and not os.path.isfile(path):
                    errors.append(f"{label}: file not found: {path}")
        if self.mode == "theory":
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
            if not 0 < self.theory.alpha < math.inf:
                errors.append(f"theory.alpha must be finite and > 0, got {self.theory.alpha}")
            if self.reuse.active:
                errors.append(
                    "theory mode predicts the steady state without data reuse; "
                    "set reuse.count = 0 (--reuse 0)"
                )
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


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


# what a conversion expects, where its name does not say
_KINDS = {_float_list: "a comma-separated list of numbers"}


class Setting(NamedTuple):
    """One INI key: the field it sets, the conversion of its file text, and
    the flag (override name) that wins over the file, with the flag's help,
    metavar and choices."""

    field: str
    conv: Callable[[str], object]
    flag: str | None = None
    help: str | None = None
    metavar: str | None = None
    choices: tuple | None = None


# A section's fields belong to the ExperimentConfig attribute of the same
# name, [experiment]'s to ExperimentConfig itself. --help lists the flags
# in this order.
SETTINGS = {
    ("experiment", "runs"): Setting("mc_runs", int, "runs", "Monte-Carlo trials", "N"),
    ("experiment", "samples"): Setting("n_samples", int, "samples", "stream length", "N"),
    ("experiment", "seed"): Setting("base_seed", int, "seed", "base seed, plus r for trial r", "N"),
    ("experiment", "case"): Setting("case_id", int, "case", "noise case", choices=CASES),
    ("experiment", "order"): Setting("order", int),
    ("experiment", "shift_time"): Setting("shift_time", int),
    ("experiment", "shift_amount"): Setting("shift_amount", int),
    ("algorithm", "name"): Setting("name", str, "algo", "algorithm preset", choices=ALGORITHMS),
    ("algorithm", "mu"): Setting("mu", float, "mu", "step-size override"),
    ("algorithm", "a"): Setting("a", float),
    ("algorithm", "b"): Setting("b", float),
    ("algorithm", "c"): Setting("c", float),
    ("censoring", "p_ce"): Setting("p_ce", float, "pce", "target censoring ratio", "RATIO"),
    ("censoring", "window"): Setting("window", int),
    ("censoring", "tau"): Setting("tau", float),
    ("censoring", "estimator"): Setting("estimator", str),
    ("reuse", "count"): Setting("l_reused", int, "reuse", "reused samples per iteration", "N"),
    ("reuse", "window"): Setting("window_cap", int, "window", "reuse window cap", "N"),
    ("reuse", "scheme"): Setting("scheme", str),
    ("aec", "far_end"): Setting("far_end", str),
    ("aec", "echo_path"): Setting("echo_path", str),
    ("theory", "variances"): Setting("variances", _float_list),
    ("theory", "output_family"): Setting("output_family", str),
    ("theory", "alpha"): Setting("alpha", float),
    ("sweep", "min"): Setting("grid_min", float),
    ("sweep", "max"): Setting("grid_max", float),
    ("sweep", "points"): Setting("points", int),
    ("sweep", "draws"): Setting("draws", int),
}

_FLAGS = {s.flag: (section, s) for (section, _), s in SETTINGS.items() if s.flag}
# the types an override of each flagged row's conversion takes (not bool)
_OVERRIDE_TYPES = {int: int, float: (int, float), str: str}


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse an INI file into raw string values, {section: {key: text}}."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def build_config(
    mode: str,
    file_values: dict[str, dict[str, str]] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig.

    file_values maps INI sections to raw key text, as read_config_file
    returns it. overrides maps flag names (the flags of SETTINGS, and
    ``out``) to values of their row's type (an int row takes an int, a
    float row an int or a float, a str row a str); one that is not None
    wins over the file. An unset setting takes its dataclass default
    (ExperimentConfig names their owners); the one default that only this
    function sets is the stream modes' reuse window. Unknown sections, keys
    and override names, values that do not convert or have the wrong type
    and invalid settings are reported together in one ConfigError.
    """
    errors: list[str] = []
    given: dict[str, dict[str, object]] = {section: {} for section, _ in SETTINGS}
    for section, raws in (file_values or {}).items():
        if section not in given:
            errors.append(f"unknown section [{section}]; expected one of {sorted(given)}")
            continue
        for key, raw in raws.items():
            setting = SETTINGS.get((section, key))
            if setting is None:
                known = sorted(k for s, k in SETTINGS if s == section)
                errors.append(f"unknown key {key!r} in [{section}]; expected one of {known}")
                continue
            try:
                given[section][setting.field] = setting.conv(raw)
            except ValueError:
                kind = _KINDS.get(setting.conv, setting.conv.__name__)
                errors.append(f"{section}.{key}: cannot interpret {raw!r} as {kind}")
    overrides = dict(overrides or {})
    out_path = overrides.pop("out", None)
    if out_path:
        # so an unwritable path fails before the run, not after it
        directory = os.path.dirname(out_path)
        if os.path.isdir(out_path):
            errors.append(f"out: {out_path} is a directory")
        elif directory and not os.path.isdir(directory):
            errors.append(f"out: directory not found: {directory}")
    for name, value in overrides.items():
        if name not in _FLAGS:
            errors.append(
                f"unknown override {name!r}; expected one of {sorted([*_FLAGS, 'out'])}"
            )
        elif value is not None:
            section, setting = _FLAGS[name]
            kind = setting.conv.__name__
            if isinstance(value, bool) or not isinstance(value, _OVERRIDE_TYPES[setting.conv]):
                errors.append(f"override {name!r}: expected {kind}, got {value!r}")
            else:
                given[section][setting.field] = value

    cfg = ExperimentConfig(mode=mode, out_path=out_path, **given.pop("experiment"))
    reuse = given["reuse"]
    # The CLI's one default of its own: a streamed pass that reuses caps its
    # window at 200 samples. A library pass may run uncapped, so the cap is
    # not ReuseConfig's default.
    if mode in ("tracking", "aec") and reuse.get("l_reused") and reuse.get("scheme") != "none":
        reuse.setdefault("window_cap", 200)
    for section, values in given.items():
        try:
            setattr(cfg, section, replace(getattr(cfg, section), **values))
        except ValueError as exc:
            errors.extend(str(exc).splitlines())

    errors.extend(cfg.validation_errors())
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg
