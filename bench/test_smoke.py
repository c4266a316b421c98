"""Smoke check of the benchmark harness at a tiny size.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q

For every workload, shrunk to a few runs and samples, it runs the harness
untraced and traced through its command-line entry point and asserts that
the last stdout line carries every metric BENCHMARK.json names, with its
unit, and no failed repetition.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "sysid": dict(samples=300, runs=3),
    "aec": dict(samples=1200, runs=2),
    "theory": dict(samples=300, runs=3),
}

# Layers that must show calls on a workload, and ones that must not.
CALLED = {
    "sysid-reuse-censor": ("censoring.scale_update", "reuse.schedule", "runner.provider_past"),
    "sysid-wide": ("signal_model.synthesize",),
    "aec-stream": ("noise.sample", "metrics.erle_db", "dataio.synth_far_end"),
    "theory-compare": ("theory.steady_state_msd",),
}
NOT_CALLED = {
    "sysid-wide": ("censoring.scale_update", "runner.provider_past"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_reported(name, monkeypatch, capsys):
    workload = dict(WORKLOADS[name])
    workload["overrides"] = dict(workload["overrides"], **TINY[workload["mode"]])
    monkeypatch.setitem(run.WORKLOADS, name, workload)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= run.MIN_CYCLES
        metrics = result["metrics"]
        assert {m: v["unit"] for m, v in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())

    for layer in CALLED[name] + ("filters.gradient", "runner.run_engine", "dataio.write_csv"):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    for layer in NOT_CALLED.get(name, ()):
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
