"""Parent-linked spans recorded around the calls into each rtga module.

The tracer replaces module attributes with timing wrappers, at the place
each caller looks the name up (``rtga.runner.gradient``, not
``rtga.filters.gradient``), so the package itself is not modified. Spans
stay in memory; at exit they are written out and each layer's self time
is computed from them: span duration minus the durations of its direct
children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import time

import numpy as np

# Span names, one per layer boundary; each is reported as
# "<name>.calls" and "<name>.self_s".
SPAN_NAMES = (
    "config.build_config",
    "runner.load_aec_assets",
    "runner.experiment",
    "runner.run_engine",
    "runner.provider_step",
    "runner.provider_past",
    "signal_model.synthesize",
    "noise.sample",
    "filters.gradient",
    "reuse.schedule",
    "censoring.scale_update",
    "metrics.erle_db",
    "metrics.other",
    "theory.steady_state_msd",
    "dataio.synth_far_end",
    "dataio.write_csv",
)


class Tracer:
    """Span store plus counters taken at the same boundaries."""

    def __init__(self):
        self._code = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self._stack = [-1]
        self.counters = dict(
            main_steps=0, main_updates=0, reuse_steps=0, reuse_updates=0,
            bytes_materialized=0,
        )

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(result) runs untimed."""
        code = self._code[name]
        names, parents, t0, t1, stack = (
            self.name, self.parent, self.t0, self.t1, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(t0)
            names.append(code)
            parents.append(stack[-1])
            t0.append(0.0)
            t1.append(0.0)
            stack.append(i)
            t0[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def install(self, config, dataio, runner, signal_model) -> None:
        """Wrap every layer boundary that the four workloads cross."""
        self.patch(config, "build_config", "config.build_config")
        self.patch(dataio, "write_csv", "dataio.write_csv")
        self.patch(runner, "load_aec_assets", "runner.load_aec_assets")
        for attr in ("run_sysid", "run_aec", "run_theory_compare"):
            self.patch(runner, attr, "runner.experiment")
        self.patch(runner, "run_engine", "runner.run_engine", self._count_engine)
        for provider in (runner.ArrayProvider, runner.StreamProvider):
            self.patch(provider, "step", "runner.provider_step")
            self.patch(provider, "past", "runner.provider_past")
        self.patch(runner, "synthesize_eiv_arrays", "signal_model.synthesize",
                   self._count_bytes)
        self.patch(runner, "sample_mixture_split", "noise.sample")
        self.patch(signal_model, "sample_mixture_split", "noise.sample")
        self.patch(runner, "gradient", "filters.gradient")
        self.patch(runner, "schedule", "reuse.schedule")
        self.patch(runner._ScaleTracker, "update", "censoring.scale_update")
        self.patch(runner, "erle_db", "metrics.erle_db")
        for attr in ("to_db", "tail_mean_db", "predicted_op_counts"):
            self.patch(runner, attr, "metrics.other")
        self.patch(runner, "steady_state_msd", "theory.steady_state_msd")
        self.patch(runner, "synth_far_end", "dataio.synth_far_end")

    def _count_engine(self, res) -> None:
        c = self.counters
        c["main_steps"] += res.main_steps
        c["main_updates"] += res.main_updates
        c["reuse_steps"] += res.reuse_steps
        c["reuse_updates"] += res.reuse_updates

    def _count_bytes(self, arrays) -> None:
        # Computed from array shapes: the returned arrays that own their
        # memory (the clean regressor matrix is a strided view).
        self.counters["bytes_materialized"] += sum(
            a.nbytes for a in arrays if a.base is None
        )

    def layers(self) -> dict[str, dict]:
        """calls and self time (s) per span name, computed from the spans."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        linked = parent >= 0
        child = np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)
        self_s = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=self_s, minlength=k)
        return {
            span: {"calls": int(calls[j]), "self_s": float(total[j])}
            for j, span in enumerate(SPAN_NAMES)
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.asarray(self.name, dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int64),
            t0=np.asarray(self.t0),
            t1=np.asarray(self.t1),
        )
