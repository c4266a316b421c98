"""One repetition of one workload, in a fresh process.

Usage: python3 bench/child.py '<json job>'

The job names the directory holding the rtga package to run (the
program's src/ or the frozen baseline), the mode and flag overrides, the
seed, whether to trace, where to write the CSV (and spans), and the
parent's clock reading taken just before this process was spawned. The
child makes the calls ``rtga.cli.main`` makes (build_config, then
load_aec_assets for AEC, then the experiment, then write_csv) and prints
one JSON line: set-up time, timed run, peak RSS, the outputs the parent
checks against the baseline program's, and per-layer numbers when traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# Every CSV_STRIDE-th CSV row is kept for the value comparison.
CSV_STRIDE = 80


def csv_digest(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = lines[1:]
    sample = [
        [float(v) for v in rows[i].split(",")]
        for i in sorted({*range(0, len(rows), CSV_STRIDE), len(rows) - 1})
    ]
    return {
        "header": lines[0],
        "rows": len(rows),
        "sample": sample,
    }


def outputs(result, csv_path: str) -> dict:
    """What the parent compares against the baseline program's outputs."""
    out = {"counts": result.counts, "csv": csv_digest(csv_path)}
    if result.tail_db is not None:
        out["tail_db"] = result.tail_db
    if result.predicted is not None:
        out["predicted_factor"] = result.predicted["reuse_censor_factor"]
    if result.table is not None:
        out["table"] = [
            {k: row[k] for k in ("sigma2", "theory_db", "sim_db", "gap_db")}
            for row in result.table
        ]
    return out


def run_iterations(cfg) -> int:
    n = cfg.mc_runs * cfg.n_samples
    return n * len(cfg.theory.variances) if cfg.mode == "theory" else n


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from rtga import config, dataio, runner, signal_model

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(config, dataio, runner, signal_model)

    mode = job["mode"]
    overrides = dict(job["overrides"], seed=job["seed"], out=job["csv_path"])
    cfg = config.build_config(mode, None, overrides)
    if mode == "aec":
        assets, _ = runner.load_aec_assets(cfg)
    t_first = time.perf_counter()
    report = {"setup_s": t_first - job["t_spawn"]}
    if job["setup_only"]:
        return report

    if mode == "aec":
        result = runner.run_aec(cfg, assets)
    elif mode == "sysid":
        result = runner.run_sysid(cfg)
    else:
        result = runner.run_theory_compare(cfg)
    dataio.write_csv(result.csv_columns, cfg.out_path)
    run_s = time.perf_counter() - t_first

    report.update(
        run_s=run_s,
        run_iters=run_iterations(cfg),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        outputs=outputs(result, cfg.out_path),
    )
    if tracer is not None:
        from rtga.metrics import predicted_op_counts

        if result.predicted is not None:
            factor = result.predicted["reuse_censor_factor"]
        else:
            factor = predicted_op_counts(
                cfg.order, runner.theory_params(cfg), cfg.censoring.p_ce,
                cfg.reuse.l_reused if cfg.reuse.active else 0,
            )["reuse_censor_factor"]
        tracer.save(job["spans_path"])
        report.update(
            layers=tracer.layers(), counters=tracer.counters, predicted_factor=factor
        )
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
