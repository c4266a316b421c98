"""rtga benchmark: Monte-Carlo workloads timed in fresh single-threaded processes.

Usage (from the repository root):

    python3 bench/run.py --workload sysid-wide --seed 0 --seconds 30 --trace 0

Each repetition is one batch job in a fresh child process (bench/child.py)
with BLAS/OpenMP pinned to one thread. Repetitions of the program (src/)
alternate with repetitions of the baseline (bench/baseline/, a verbatim
copy of the package's modules, less the CLI, as they were when the
benchmark was defined) until --seconds is spent. The baseline serves twice:

- as the correctness reference: every program repetition's outputs
  (executed update counts, tail NMSD or theory rows, the CSV) must match
  the baseline's for the same seed, else the repetition counts as failed,
  as does one that raises;
- as the host-speed reference: other tenants of a shared host slow whole
  minutes of repetitions by up to 40 %, and the baseline, run alternately,
  is slowed alike, so times are measured as ratios to the neighbouring
  baseline repetitions (see end_to_end).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs the baseline once for the reference outputs, then alternates untraced
and traced program repetitions and reports the per-layer metrics, computed
from spans recorded around the calls into each module (bench/spans.py),
plus tracing_overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. The lines before it print every metric with its unit,
the raw times and the environment; the same, with every repetition's raw
numbers, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import SPAN_NAMES
from workloads import BASELINE_RUN_S, BASELINE_SETUP_S, HOLDOUT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
PROGRAM_SRC = ROOT / "src"
BASELINE_SRC = BENCH_DIR / "baseline"

PIN_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# Full cycles of repetitions (baseline then program, or program then
# traced program) run even when --seconds is spent sooner.
MIN_CYCLES = 2
# Set-up-only children per untraced run and side, on top of each
# repetition's own set-up, so the set-up median rests on enough samples.
SETUP_PROBES = 8
# Whole-run limit in seconds; no cycle starts that would likely pass it.
HARD_LIMIT = 160.0

# Output tolerances. dB values come from float64 arithmetic and may move
# by rounding when a later change reorders it; CSV values carry 6
# significant digits, so the last digit may flip.
TOL_DB = 1e-6
TOL_FACTOR = 1e-12
TOL_CSV_REL = 1e-5

END_TO_END_UNITS = {
    "run_iters_per_s": "iter/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "filters.gradient.us_per_call": "us",
        "filters.executed_updates": "count",
        "metrics.predicted_op_factor": "ratio",
        "censoring.update_ratio": "ratio",
        "reuse.update_ratio": "ratio",
        "signal_model.bytes_materialized": "bytes_computed",
        "tracing_overhead": "ratio",
    })
    return units


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    known = per_layer_units() if trace else END_TO_END_UNITS
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    for name, unit in declared:
        if known.get(name) != unit:
            raise BenchError(f"BENCHMARK.json metric {name} [{unit}] is not measured here")
    return declared


def child_env() -> dict[str, str]:
    """The caller's environment with threads pinned and bytecode caching on.

    Caching is forced on, as an installed package has it, so set-up time
    does not depend on whether the caller disabled it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, **PIN_THREADS)


def spawn(job: dict, timeout: float):
    """Run one child; (report, None) on success, (None, reason) otherwise."""
    job = dict(job, t_spawn=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(job)],
            env=child_env(), capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def compare(got: dict, ref: dict) -> list[str]:
    """Every way the outputs differ from the reference beyond tolerance."""
    bad = []
    if got["counts"] != ref["counts"]:
        bad.append(f"update counts {got['counts']} != {ref['counts']}")
    for key, tol in (("tail_db", TOL_DB), ("predicted_factor", TOL_FACTOR)):
        if (key in got) != (key in ref) or (
            key in ref and not _close(got[key], ref[key], tol)
        ):
            bad.append(f"{key} {got.get(key)} != {ref.get(key)}")
    rows, ref_rows = got.get("table", []), ref.get("table", [])
    if len(rows) != len(ref_rows):
        bad.append(f"{len(rows)} theory rows != {len(ref_rows)}")
    for row, want in zip(rows, ref_rows):
        for key in want:
            if not _close(row[key], want[key], TOL_DB):
                bad.append(f"theory row sigma2={want['sigma2']}: {key} {row[key]} != {want[key]}")
    csv, ref_csv = got["csv"], ref["csv"]
    for key in ("header", "rows"):
        if csv[key] != ref_csv[key]:
            bad.append(f"CSV {key} {csv[key]!r} != {ref_csv[key]!r}")
    for row, want in zip(csv["sample"], ref_csv["sample"]):
        if len(row) != len(want) or any(
            not _close(a, b, TOL_CSV_REL * abs(b)) for a, b in zip(row, want)
        ):
            bad.append(f"CSV row {want[0]:.0f}: {row} != {want}")
            break
    return bad


def summary(values: list[float], pick=statistics.median) -> dict:
    """The reported value, picked from the samples, plus their spread."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": pick(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run cycles of repetitions until seconds is spent; return raw samples."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]
    program = dict(
        src=str(PROGRAM_SRC), mode=workload["mode"], overrides=workload["overrides"],
        seed=seed, setup_only=False, trace=False,
        csv_path=str(out_dir / f"{name}.csv"),
        spans_path=str(out_dir / f"spans-{name}.npz"),
    )
    baseline = dict(program, src=str(BASELINE_SRC),
                    csv_path=str(out_dir / f"{name}-baseline.csv"))
    samples = {kind: [] for kind in ("baseline", "plain", "traced")}
    setup_pairs = []
    failures = []
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    def run_baseline(job: dict) -> dict:
        report, err = spawn(job, HARD_LIMIT - elapsed())
        if err:
            raise BenchError(f"baseline program failed: {err}")
        return report

    if trace:
        # Traced times are compared with untraced ones of the same cycle;
        # the baseline only supplies the reference outputs.
        samples["baseline"].append(run_baseline(baseline))
        cycle = [("plain", program), ("traced", dict(program, trace=True))]
    else:
        for _ in range(SETUP_PROBES):
            base_setup = run_baseline(dict(baseline, setup_only=True))["setup_s"]
            report, err = spawn(dict(program, setup_only=True), HARD_LIMIT - elapsed())
            if err:
                failures.append(f"set-up probe: {err}")
            else:
                setup_pairs.append((base_setup, report["setup_s"]))
        cycle = [("baseline", baseline), ("plain", program)]

    attempted = failed = cycles = 0
    cycle_s = []
    while True:
        expected = statistics.median(cycle_s) if cycle_s else 0.0
        if cycles >= MIN_CYCLES and elapsed() + expected > seconds:
            break
        if elapsed() + 1.5 * expected > HARD_LIMIT:
            break
        t0 = time.perf_counter()
        for kind, job in cycle:
            if kind == "baseline":
                report = run_baseline(job)
            else:
                attempted += 1
                report, err = spawn(job, HARD_LIMIT - elapsed())
                if err is None:
                    err = "; ".join(compare(report["outputs"], samples["baseline"][0]["outputs"]))
                if err:
                    failures.append(f"repetition {attempted}: {err}")
                    failed += 1
                    continue
                if kind == "plain" and not trace:
                    setup_pairs.append((samples["baseline"][-1]["setup_s"], report["setup_s"]))
            samples[kind].append(dict(report, cycle=cycles))
        cycle_s.append(time.perf_counter() - t0)
        cycles += 1
    return dict(attempted=attempted, failed=failed, failures=failures,
                setup_pairs=setup_pairs, **samples)


# Each program time is divided by the times of the baseline repetitions
# run just before and just after it, which share its stretch of host
# speed, and the median ratio is scaled by the baseline's time recorded
# on the host the benchmark was defined on (workloads.BASELINE_*). Slow
# stretches of a shared host then cancel, while a change to the program
# moves its times and not the baseline's, and so moves the metric by the
# same ratio.
def run_time_ratios(samples: dict) -> list[float]:
    base = [r["run_s"] for r in samples["baseline"]]
    return [r["run_s"] / b for r in samples["plain"] for b in base[r["cycle"]:r["cycle"] + 2]]


def end_to_end(name: str, samples: dict) -> dict[str, dict]:
    iters = samples["plain"][0]["run_iters"]
    return {
        "run_iters_per_s": summary(
            [iters / (BASELINE_RUN_S[name] * q) for q in run_time_ratios(samples)]),
        "setup_s": summary(
            [BASELINE_SETUP_S[name] * p / b for b, p in samples["setup_pairs"]]),
        "peak_rss_mb": summary([r["maxrss_kb"] * 1024 / 1e6 for r in samples["plain"]]),
    }


def per_layer(samples: dict) -> dict[str, dict]:
    traced, plain = samples["traced"], samples["plain"]
    first = traced[0]
    for r in traced[1:]:
        if r["counters"] != first["counters"] or any(
            r["layers"][span]["calls"] != row["calls"] for span, row in first["layers"].items()
        ):
            raise BenchError("call counts differ between traced repetitions")
    out = {}
    for span, row in first["layers"].items():
        out[f"{span}.calls"] = summary([float(row["calls"])])
        out[f"{span}.self_s"] = summary([r["layers"][span]["self_s"] for r in traced], min)
    grad_calls = first["layers"]["filters.gradient"]["calls"]
    out["filters.gradient.us_per_call"] = summary([
        1e6 * r["layers"]["filters.gradient"]["self_s"] / grad_calls if grad_calls else 0.0
        for r in traced
    ], min)
    c = first["counters"]
    out["filters.executed_updates"] = summary([float(c["main_updates"] + c["reuse_updates"])])
    out["metrics.predicted_op_factor"] = summary([first["predicted_factor"]])
    out["censoring.update_ratio"] = summary(
        [c["main_updates"] / c["main_steps"] if c["main_steps"] else 0.0])
    out["reuse.update_ratio"] = summary(
        [c["reuse_updates"] / c["reuse_steps"] if c["reuse_steps"] else 0.0])
    out["signal_model.bytes_materialized"] = summary([float(c["bytes_materialized"])])
    plain_s = {r["cycle"]: r["run_s"] for r in plain}
    out["tracing_overhead"] = summary(
        [r["run_s"] / plain_s[r["cycle"]] for r in traced if r["cycle"] in plain_s])
    return out


def environment(seed: int) -> dict:
    digests = {}
    for label, src in (("program", PROGRAM_SRC), ("baseline", BASELINE_SRC)):
        digest = hashlib.sha256()
        for path in sorted((src / "rtga").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[f"{label}_sha256"] = digest.hexdigest()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        **digests,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "threads": PIN_THREADS,
    }


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload and return the result object (plus details)."""
    if not (PROGRAM_SRC / "rtga" / "__init__.py").is_file():
        raise BenchError(f"no rtga sources under {PROGRAM_SRC}")
    if seed < 0:
        raise BenchError(f"seed must be >= 0, got {seed}")
    declared = declared_metrics(trace)
    samples = measure(name, seed, seconds, trace, out_dir)
    if not samples["plain"] or (trace and not samples["traced"]):
        raise BenchError("no repetition succeeded: " + "; ".join(samples["failures"]))
    values = per_layer(samples) if trace else end_to_end(name, samples)
    return {
        "workload": name,
        "env": environment(seed),
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "failures": samples["failures"],
        "metrics": {m: dict(values[m], unit=unit) for m, unit in declared},
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = BENCH_DIR / "out"
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for f in res["failures"]:
        print(f"FAILED {f}")
    for m, v in res["metrics"].items():
        print(f"{m} = {v['value']:.6g} {v['unit']} (of {v['n']}: median "
              f"{v['median']:.6g}, q1 {v['q1']:.6g}, q3 {v['q3']:.6g})")
    samples = res["samples"]
    for kind in ("baseline", "plain", "traced"):
        if samples[kind]:
            times = " ".join(f"{r['run_s']:.3f}" for r in samples[kind])
            print(f"{kind} run_s: {times}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']}/{res['attempted']})")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(res, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
