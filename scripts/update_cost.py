"""Microseconds per run_engine update at three shapes (runs, L) of a pass.

Each shape runs the bench's sysid-reuse-censor filter (case 2's proposed
preset, 70 % censoring, idr reuse of 3) on rows drawn before timing and
served by this script's provider, so the time is the engine's alone. An
update is one gated step of the engine: a main or a reuse update. Its
cost is the time of a long pass less that of a short one, over the
updates the long pass adds, so the zero-weight start and the warm-up of
the scale tracker cancel. Each timeit round runs every shape once, and
the printed value is each shape's minimum over the rounds.

    PYTHONPATH=src python scripts/update_cost.py
"""

import timeit

import numpy as np

from rtga.censoring import CensorConfig
from rtga.config import AlgorithmConfig, ExperimentConfig
from rtga.reuse import ReuseConfig
from rtga.runner import run_engine

SHAPES = ((150, 9), (500, 9), (10, 512))
ROUNDS = 15  # timeit rounds
SAMPLES = 400  # samples that the long pass adds to the short one


class RowProvider:
    """Serves pre-drawn (n, runs, L) regressor rows and (n, runs) desired
    outputs; every sample stays stored, so a reuse update reads its row."""

    def __init__(self, x: np.ndarray, d: np.ndarray):
        self.x = x
        self.d = d

    def step(self, i: int):
        return self.x[i], self.d[i]

    past = step


def _pass(cfg: ExperimentConfig, runs: int, L: int, n: int):
    """A no-argument pass over n samples and its count of update calls."""
    rng = np.random.default_rng(runs * L)
    w_o = rng.standard_normal((runs, L)) * np.sqrt(1.44 / L)
    x = rng.standard_normal((n, runs, L))
    d = np.einsum("nrl,rl->nr", x, w_o) + 0.1 * rng.standard_normal((n, runs))
    provider = RowProvider(x, d)
    args = (provider, cfg.resolved_params(), cfg.resolved_censoring(), cfg.reuse,
            [(0, n, w_o)], lambda *block: None)

    def run():
        return run_engine(*args)

    res = run()
    if not np.isfinite(res.weights).all():
        raise ArithmeticError(f"the pass at ({runs}, {L}) diverged")
    return run, (res.main_steps + res.reuse_steps) // runs


def main() -> None:
    cfg = ExperimentConfig(
        mode="sysid", case_id=2, algorithm=AlgorithmConfig(name="proposed"),
        censoring=CensorConfig(p_ce=0.7), reuse=ReuseConfig(l_reused=3),
    )
    passes = {}
    for runs, L in SHAPES:
        short = L + 2 * cfg.censoring.window
        passes[runs, L] = (_pass(cfg, runs, L, short), _pass(cfg, runs, L, short + SAMPLES))
    best = {key: [np.inf, np.inf] for key in passes}
    for _ in range(ROUNDS):
        for key, pair in passes.items():
            for side, (run, _updates) in enumerate(pair):
                best[key][side] = min(best[key][side], timeit.timeit(run, number=1))
    for (runs, L), ((_, short), (_, long)) in passes.items():
        short_s, long_s = best[runs, L]
        us = 1e6 * (long_s - short_s) / (long - short)
        print(f"({runs}, {L}): {us:6.2f} us per update")


if __name__ == "__main__":
    main()
