"""Case-1 reuse ablation behind acceptance criterion 4.

Runs the case-1 system-identification setting of the acceptance suite
(order 9, 8000 samples, 100 runs, seed 0) once per arm and prints a
Markdown table: iterations until the mean NMSD curve first reaches -25 dB
(it25) and the steady-state floor (tail, linear mean of the last 10 %).
The README quotes this table.

    PYTHONPATH=src python scripts/ablation_case1.py
"""

from rtga.censoring import CensorConfig
from rtga.config import AlgorithmConfig, ExperimentConfig
from rtga.metrics import iterations_to_level
from rtga.reuse import ReuseConfig
from rtga.runner import run_sysid

PROPOSED_MU = AlgorithmConfig(name="proposed").resolve(1, phi=1.0).mu

ARMS = (
    ("`rtga`", AlgorithmConfig(name="rtga"), 0, 0.0),
    ("`rtga`", AlgorithmConfig(name="rtga"), 3, 0.0),
    ("`proposed`", AlgorithmConfig(name="proposed"), 0, 0.0),
    ("`proposed`, 4 × μ", AlgorithmConfig(name="proposed", mu=4 * PROPOSED_MU), 0, 0.0),
    ("`proposed`", AlgorithmConfig(name="proposed"), 3, 0.0),
    ("`proposed`", AlgorithmConfig(name="proposed"), 3, 0.3),
    ("`proposed`", AlgorithmConfig(name="proposed"), 3, 0.7),
)


def main() -> None:
    print("| preset | μ, c | reuse, p_ce | it25 | tail dB |")
    print("| --- | --- | --- | --- | --- |")
    for label, algorithm, l_reused, p_ce in ARMS:
        cfg = ExperimentConfig(
            mode="sysid", case_id=1, order=9, n_samples=8000, mc_runs=100,
            base_seed=0, algorithm=algorithm,
            censoring=CensorConfig(p_ce=p_ce),
            reuse=ReuseConfig(scheme="idr", l_reused=l_reused) if l_reused
            else ReuseConfig(scheme="none"),
        )
        params = cfg.resolved_params()
        res = run_sysid(cfg)
        reuse = f"idr {l_reused}" if l_reused else "none"
        print(
            f"| {label} | {params.mu:g}, {params.c:g} | {reuse}, {p_ce:g} "
            f"| {iterations_to_level(res.curve, -25.0)} | {res.tail_db:.2f} |"
        )


if __name__ == "__main__":
    main()
