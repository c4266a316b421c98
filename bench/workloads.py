"""Workload definitions shared by the harness and its child.

Each workload is one CLI-equivalent experiment: a mode plus the flag
overrides that ``rtga <mode>`` would pass to ``config.build_config``. The
configurations follow the engine paths of the three slowest acceptance
tests (the case-1 fixture, criterion 11 and criterion 5). Streams are
shortened so that one repetition takes 1-2 s on a 2-core machine: a run
of the benchmark then holds enough repetitions for its medians to stay
steady on a shared host whose speed varies from second to second.
"""

from __future__ import annotations

WORKLOADS = {
    # 4 gradient calls and one robust-median tracker call per iteration;
    # all 150 runs fit in one memory-budget batch, so per-iteration call
    # overhead in filters, censoring and reuse dominates.
    "sysid-reuse-censor": dict(
        mode="sysid",
        overrides=dict(case=2, algo="proposed", pce=0.7, reuse=3,
                       samples=4000, runs=150),
    ),
    # Wide run axis split into 3 batches of materialized (runs, n, L)
    # arrays; no reuse and no tracker, so it bypasses reuse/censoring work.
    "sysid-wide": dict(
        mode="sysid",
        overrides=dict(case=1, algo="rtga", samples=3000, runs=1000),
    ),
    # The only streaming path (StreamProvider with chunked per-run noise
    # draws), 512 taps on a narrow run axis: criterion 11's proposed arm.
    "aec-stream": dict(
        mode="aec",
        overrides=dict(case=1, algo="proposed", mu=0.05, pce=0.3, reuse=3,
                       window=200, samples=4000, runs=10),
    ),
    # The only user of the theory module and of the theory batch driver.
    "theory-compare": dict(
        mode="theory",
        overrides=dict(samples=5000, runs=100),
    ),
}

# Best repetition time (s) and best set-up time (s) of the baseline
# program (bench/baseline, the package as it was when the benchmark was
# defined) on the host the benchmark was defined on: a 2-vCPU Intel Xeon
# VM at 2.1 GHz with Python 3.11.7 and numpy 2.4.6. Reported times are
# expressed in this host's speed; see run.end_to_end.
BASELINE_RUN_S = {
    "sysid-reuse-censor": 1.253,
    "sysid-wide": 1.514,
    "aec-stream": 1.462,
    "theory-compare": 1.066,
}
BASELINE_SETUP_S = {
    "sysid-reuse-censor": 0.103,
    "sysid-wide": 0.099,
    "aec-stream": 0.109,
    "theory-compare": 0.104,
}

# Kept out of development: a claimed gain is confirmed with --seed
# HOLDOUT_SEED after the change is written, never while tuning it.
HOLDOUT_SEED = 2718
