"""Robust total-least-squares adaptive filtering under noisy regressors.

A stochastic-gradient filter family built on a bounded robust cost over
the normalized error, with online censoring of uninformative samples,
historical data reuse, closed-form steady-state predictors, and a
Monte-Carlo experiment harness.
"""

from .censoring import CensorConfig, ScaleState, censor_decision, censor_threshold, update_scale
from .config import (
    AlgorithmConfig,
    ConfigError,
    ExperimentConfig,
    build_config,
    read_config_file,
)
from .dataio import (
    AecAssets,
    AudioClip,
    load_echo_path,
    load_wav,
    save_echo_path,
    save_wav,
    synth_echo_path,
    synth_far_end,
    write_csv,
)
from .filters import RtgaParams, cost, gradient
from .metrics import (
    LearningCurve,
    erle_db,
    iterations_to_level,
    predicted_op_counts,
    tail_mean_db,
    to_db,
)
from .noise import NoiseSpec, case_spec, noise_ratio, sample_ggd, sample_mixture
from .reuse import ReuseConfig, idr_indices, schedule
from .runner import (
    ExperimentResult,
    run_aec,
    run_sweep,
    run_sysid,
    run_theory_compare,
    run_tracking,
)
from .signal_model import delay_line_matrix
from .theory import (
    TheoryInputs,
    empirical_gradient_at_optimum,
    ggd_abs_moment,
    gradient_noise_covariance,
    hessian_at_optimum,
    max_step_size,
    steady_state_msd,
)

__version__ = "0.1.0"

__all__ = [
    "AecAssets",
    "AlgorithmConfig",
    "AudioClip",
    "CensorConfig",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "LearningCurve",
    "NoiseSpec",
    "ReuseConfig",
    "RtgaParams",
    "ScaleState",
    "TheoryInputs",
    "build_config",
    "case_spec",
    "censor_decision",
    "censor_threshold",
    "cost",
    "delay_line_matrix",
    "empirical_gradient_at_optimum",
    "erle_db",
    "ggd_abs_moment",
    "gradient",
    "gradient_noise_covariance",
    "hessian_at_optimum",
    "idr_indices",
    "iterations_to_level",
    "load_echo_path",
    "load_wav",
    "max_step_size",
    "noise_ratio",
    "predicted_op_counts",
    "read_config_file",
    "run_aec",
    "run_sweep",
    "run_sysid",
    "run_theory_compare",
    "run_tracking",
    "sample_ggd",
    "sample_mixture",
    "save_echo_path",
    "save_wav",
    "schedule",
    "steady_state_msd",
    "synth_echo_path",
    "synth_far_end",
    "tail_mean_db",
    "to_db",
    "update_scale",
    "write_csv",
]
