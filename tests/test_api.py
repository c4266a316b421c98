"""Each module's import footprint stays small, and the names the benchmark
and the scripts look up resolve in the modules that define them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rtga
from rtga import config, dataio, runner, signal_model
from rtga.censoring import CensorConfig
from rtga.reuse import ReuseConfig


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # bench/spans.py wraps package names where the callers look them up; a
    # rename would break `bench/run.py --trace 1`. Nothing is patched here.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    seen = []

    def check(self, owner, attr, name, after=None):
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        seen.append(name)

    monkeypatch.setattr(spans.Tracer, "patch", check)
    spans.Tracer().install(config, dataio, runner, signal_model)
    assert set(seen) == set(spans.SPAN_NAMES)


def test_benchmark_span_hooks_see_the_draws(monkeypatch):
    # bench/spans.py times the noise draws and the synthesis by wrapping
    # runner.sample_mixture_split and runner.synthesize_eiv_arrays; a draw
    # path that called them under other names would time nothing. Both
    # passes fill inline, so the calls happen in this process.
    calls = {}
    for name in ("sample_mixture_split", "synthesize_eiv_arrays"):
        def counting(*args, _name=name, _fn=getattr(runner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runner, name, counting)
    passes = [
        (runner.run_sysid, config.ExperimentConfig(mode="sysid", n_samples=300, mc_runs=2)),
        (runner.run_theory_compare, config.ExperimentConfig(
            mode="theory", n_samples=300, mc_runs=2,
            theory=config.TheoryConfig(variances=(0.1,)),
        )),
    ]
    for run, cfg in passes:
        calls.update(sample_mixture_split=0, synthesize_eiv_arrays=0)
        run(cfg)
        assert min(calls.values()) > 0, (cfg.mode, calls)


def test_benchmark_gradient_hook_sees_every_update(monkeypatch):
    # bench/spans.py times the engine's per-run coefficient by wrapping
    # runner.gradient before a pass starts, so the engine must look the
    # name up no earlier than the pass's start and call it on every
    # update: each reuse and main update, censored or not. A pass with
    # reuse runs no shards, so every call happens in this process.
    calls = []

    def counting(*args, _fn=runner.gradient, **kwargs):
        calls.append(args[0].shape)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(runner, "gradient", counting)
    cfg = config.ExperimentConfig(
        mode="sysid", case_id=2, n_samples=300, mc_runs=3,
        algorithm=config.AlgorithmConfig(name="proposed"),
        censoring=CensorConfig(p_ce=0.5),
        reuse=ReuseConfig(scheme="idr", l_reused=3),
    )
    c = runner.run_sysid(cfg).counts
    assert 0 < c["main_updates"] < c["main_steps"]
    assert 0 < c["reuse_updates"] < c["reuse_steps"]
    assert len(calls) == (c["main_steps"] + c["reuse_steps"]) // cfg.mc_runs
    assert set(calls) == {(cfg.mc_runs,)}


def test_ablation_script_imports():
    # The README's ablation table comes from this script; it resolves a
    # preset at import time, so an API change would break it unseen.
    path = Path(__file__).resolve().parents[1] / "scripts" / "ablation_case1.py"
    spec = importlib.util.spec_from_file_location("ablation_case1", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.PROPOSED_MU == 0.0098
    assert callable(script.main)


def test_output_digest_configs_build():
    # scripts/output_digests.py checks outputs on its configurations; a
    # renamed key or preset would break it unseen. No experiment runs.
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = script.configs()
    assert len(configs) == 14
    for name, mode, ini, flags in configs:
        assert config.build_config(mode, ini, flags).mode == mode, name


def _python(code: str) -> str:
    """The stdout of code run in a fresh interpreter on this checkout's package."""
    src = str(Path(rtga.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_config_import_leaves_the_drivers_out():
    # The package root imports no module, so building a config loads what
    # its settings need and neither the experiment drivers nor the theory.
    out = _python(
        "import sys, rtga.config; "
        "print(sorted(m for m in sys.modules if m in ('rtga.runner', 'rtga.theory')))"
    )
    assert out.strip() == "[]"


def test_cli_import_leaves_the_producer_out():
    # Set-up pays for every module `rtga.cli` loads; only a provider that
    # forks loads its producer, which needs no multiprocessing.
    out = _python(
        "import sys, rtga.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing' "
        "or m == 'rtga.producer'))"
    )
    assert out.strip() == "[]"


def test_routing_on_one_cpu_leaves_the_producer_out():
    # Routing a pass reads the CPU count, which needs no fork module: on
    # one CPU a pass that would fork on two runs inline and never loads it.
    out = _python(
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from rtga.config import ExperimentConfig\n"
        "from rtga.runner import run_sysid\n"
        "run_sysid(ExperimentConfig(mode='sysid', n_samples=3000, mc_runs=3))\n"
        "print('rtga.producer' in sys.modules)\n"
    )
    assert out.strip() == "False"
