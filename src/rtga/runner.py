"""Monte-Carlo engine and the five experiment drivers.

The engine runs every Monte-Carlo trial of one experiment in lockstep:
state arrays carry a leading run axis and each iteration applies the
reuse pass, the gated main update, and the error-scale update to all
runs at once. Trial r derives every random stream from
SeedSequence(base_seed + r), so results are independent of chunking and
of the groups merged into one pass, and rerunning a config reproduces
identical output bytes.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .censoring import MAD_FACTOR, CensorConfig
from .config import ExperimentConfig
from .dataio import (
    AecAssets,
    load_echo_path,
    load_wav,
    synth_echo_path,
    synth_far_end,
)
from .filters import RtgaParams, cost
# bench/spans.py times the engine's per-run coefficient by this name
from .filters import gradient_coefficient as gradient
from .metrics import (
    LearningCurve,
    erle_db,
    predicted_op_counts,
    tail_mean_db,
    to_db,
)
from .noise import NoiseSpec, case_spec, sample_mixture_split, unit_scale
from .reuse import ReuseConfig, reach, schedule
from .signal_model import delay_line_matrix, synthesize_eiv_arrays, wo_segments
from .theory import TheoryInputs, steady_state_msd

# Calibrated squared norm of the randomly drawn true weight vectors.
TRUE_WEIGHT_NORM2 = 1.44

# A run whose squared deviation exceeds this multiple of its largest
# squared truth norm is reported as divergent.
DIVERGENCE_FACTOR = 1e6

# Columns of the engine's (runs, _BLOCK) per-run output buffers; a pass
# that merges G groups of runs fills _BLOCK // G columns.
_BLOCK = 512

def run_streams(base_seed: int, r: int, noise: tuple[NoiseSpec, NoiseSpec]):
    """Random generators for trial r: (system, source, (input, output)).

    The per-trial seed tree is part of the output contract: trial r roots
    at SeedSequence(base_seed + r), splits into a system stream (true
    weights) and a data stream, and the data stream splits into the source
    and the (base, mask, amplitude) substreams of the input noise, then of
    the output noise. Each side's triple is what sample_mixture_split reads
    for that side of the trial's (input, output) noise pair. A side without
    impulses never reads its mask and amplitude, so they are None; the
    tree, and with it every stream, is the same either way. Only the
    streams the trial reads are built, each straight from its spawn key.
    Every group of runs in a pass reads trial r's streams for its run r,
    and the stream provider draws them once for all groups.
    """
    entropy = base_seed + r

    def rng(*spawn_key: int) -> np.random.Generator:
        # the child that SeedSequence(entropy).spawn gives at spawn_key
        return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))

    # system (0,) and data (1,); data's children are the source (1, 0), then
    # each side's base, mask and amplitude at (1, 1 + 3 side + part)
    sides = []
    for side, spec in enumerate(noise):
        key = 1 + 3 * side
        impulse = [rng(1, key + part) if spec.impulsive else None for part in (1, 2)]
        sides.append((rng(1, key), *impulse))
    return rng(0), rng(1, 0), tuple(sides)


def draw_true_weights(system_rng, order: int):
    """Random direction scaled to the calibrated squared norm."""
    w = system_rng.standard_normal(order)
    nrm = np.linalg.norm(w)
    if nrm == 0:
        raise ArithmeticError("degenerate zero draw for the true weights")
    return w * (math.sqrt(TRUE_WEIGHT_NORM2) / nrm)


class _ScaleTracker:
    """Vectorized port of censoring.update_scale across the run axis."""

    def __init__(self, runs: int, cfg: CensorConfig):
        self.cfg = cfg
        self.ring = np.zeros((runs, cfg.window))
        self.count = 0
        self.sigma = np.zeros(runs)
        self.ready = False
        half = cfg.window // 2
        self._mid = half if cfg.window % 2 else (half - 1, half)

    def _median(self) -> np.ndarray:
        # np.median's own selection: the middle element, or the mean of the
        # two middle elements of an even window, so the result is identical
        part = np.partition(self.ring, self._mid, axis=1)
        if isinstance(self._mid, int):
            return part[:, self._mid]
        lo, hi = self._mid
        return (part[:, lo] + part[:, hi]) / 2.0

    def update(self, e: np.ndarray) -> None:
        cfg = self.cfg
        self.ring[:, self.count % cfg.window] = np.abs(e)
        self.count += 1
        if not self.ready:
            if self.count >= cfg.window:
                self.sigma = MAD_FACTOR * self._median()
                self.ready = True
            return
        if cfg.estimator == "robust_median":
            med = self._median()
            self.sigma = cfg.tau * self.sigma + MAD_FACTOR * (1.0 - cfg.tau) * med
        else:
            var = cfg.tau * self.sigma**2 + (1.0 - cfg.tau) * e * e
            self.sigma = np.sqrt(var)


class ArrayProvider:
    """Serves current and past samples from hand-made (runs, n, L) arrays.

    The engine's test seam; the experiments stream through StreamProvider.
    """

    def __init__(self, x_tilde: np.ndarray, d_tilde: np.ndarray):
        self.x = x_tilde
        self.d = d_tilde

    def step(self, i: int):
        return self.x[:, i, :], self.d[:, i]

    past = step  # the arrays hold the whole stream


class _TrialCursor:
    """Draws the noisy samples of the trials `trials` of streams, in order.

    streams holds each trial's (source, (input, output)) generators from
    run_streams, and noise one (input, output) pair per group. Several
    groups draw each trial's noise once, as the unit pair that
    noise.unit_scale finds for every group's pair, and scale it by each
    group's (s_in, s_out); pairs that do not scale one unit pair raise
    ValueError. shared, the clean (n, L) regressors and (n,) output of a
    source and truth that every run shares, replaces the source draws, the
    delay line and the clean-output einsum. The draws go into a
    trial-major scratch of span samples, batch trials at a time, whose
    delay line and clean output are computed once. Consecutive writes
    reproduce the one-shot sequence, so the samples depend neither on how
    the stream is split nor on the batch; a family whose draws would
    (ggd) raises ValueError.
    """

    def __init__(
        self,
        noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
        streams: list[tuple[np.random.Generator, tuple]],
        order: int,
        span: int,
        batch: int,
        shared: tuple[np.ndarray, np.ndarray] | None = None,
        trials: slice = slice(None),
    ):
        for spec in (s for pair in noise for s in pair if s.family == "ggd"):
            raise ValueError(
                f"the stream provider cannot draw {spec}: the ggd family draws a "
                "span's gamma magnitudes, then its signs, from one generator, so "
                "its samples would depend on how the stream is split into pieces"
            )
        units, scales = zip(*(zip(*map(unit_scale, pair)) for pair in noise))
        if len(set(units)) > 1:
            raise ValueError(
                "groups that share their trials' draws need noise pairs that scale "
                "one unit pair; these do not: "
                + "; ".join(f"{s_in} and {s_out}" for s_in, s_out in noise)
            )
        self.unit, self.scales = (units[0], scales) if len(noise) > 1 else (noise[0], [(1.0, 1.0)])
        self.trials = trials
        self.streams = streams[trials]
        self.shared = shared
        self.batch = min(len(self.streams), batch)
        # np.empty: a producer's scratch, made before the fork, is the producer's to touch
        self.u = np.empty((self.batch, span, order))
        self.v = np.empty((self.batch, span))
        self.scaled = (np.empty_like(self.u), np.empty_like(self.v)) if len(noise) > 1 else None
        # per-trial delay lines: the newest L-1 source samples, then the new ones
        self.carry = np.zeros((len(self.streams), order - 1))
        self.line = np.empty((self.batch, order - 1 + span))
        self.windows = sliding_window_view(self.line, order, axis=1)[:, :, ::-1]

    def write(self, start: int, end: int, w: np.ndarray, outs) -> None:
        """Draw the trials' next m = end - start samples, at most a span, of truth
        w into outs: (x~, d~) views, (trials, m, L) and (trials, m), one pair per group."""
        lag = self.carry.shape[1]
        m = end - start
        x, shared_d = (a[start:end] for a in self.shared) if self.shared is not None else (None, None)
        for r0 in range(0, len(self.streams), self.batch):
            r1 = min(r0 + self.batch, len(self.streams))
            k = r1 - r0
            if self.shared is None:
                self.line[:k, :lag] = self.carry[r0:r1]
                for b, (source_rng, _) in enumerate(self.streams[r0:r1]):
                    source_rng.standard_normal(out=self.line[b, lag:lag + m])
                self.carry[r0:r1] = self.line[:k, m:m + lag]
                x = self.windows[:k, :m]
            for b, (_, (u_rngs, v_rngs)) in enumerate(self.streams[r0:r1]):
                sample_mixture_split(self.unit[0], *u_rngs, out=self.u[b, :m])
                sample_mixture_split(self.unit[1], *v_rngs, out=self.v[b, :m])
            d = shared_d
            for (x_out, d_out), scale in zip(outs, self.scales):
                u, v = self.u[:k, :m], self.v[:k, :m]
                if self.scaled is not None:
                    u, v = (
                        np.multiply(a, s, out=c[:k, :m])
                        for a, s, c in zip((u, v), scale, self.scaled)
                    )
                # the first group's clean output serves every group
                _, _, d, _ = synthesize_eiv_arrays(
                    w[r0:r1], x, u, v, d, out=(x_out[r0:r1], d_out[r0:r1])
                )


class StreamProvider:
    """Streams every run's noisy samples through a ring of time-major rows.

    segments is the piecewise truth [(start, end, (trials, L))]; noise,
    streams and shared are _TrialCursor's. Every group holds a run of each
    trial, so the G groups share the trial's source and truth, and group
    g's run k is column g * trials + k of the ring; the provider's own
    segments repeat the trial truths once per group, for the engine.
    updates is the engine's updates of a run per sample: 1, and one per
    reused sample.

    The ring holds sample i in row i % rows of (rows, G * trials, L)
    regressors and (rows, G * trials) outputs, rows = min(n, capacity - 1
    + chunk); the latest `capacity` samples stay available to past(). A
    span is the most samples whose draws of one trial fit _SCRATCH bytes,
    and a cursor draws as many trials at a time as fit them. A chunk is
    max(1, _CHUNK // G) samples, but at most n and at most two spans: a
    longer one would only widen a long filter's ring. The ring is filled
    piece by piece, and a piece is at most a span long and ends at a
    segment boundary (so it has one truth per trial) and at the ring's end.

    When a trial draws at least _FORKED values per half chunk, forked
    producer processes (rtga.producer) fill the ring, which then lives in
    an anonymous shared mapping, in half-chunk pieces. Each producer fills
    the columns of a contiguous range of trials, in every group, through
    its own cursor. A pass without reuse and with one group forks
    _PRODUCERS of them, and every other pass one, but no more than one per
    trial or one per CPU the process may run on. The rule is measured:
    in-process on a 2-vCPU host, the fill took 1.50-1.60 times the
    engine's time on sysid-wide (no reuse, one group) and 0.23-0.69 times
    on the other benchmark workloads (each with reuse or several groups),
    where a second producer would take CPU time from the engine. Entering
    a piece, the engine asks every producer for the pieces that end within
    a chunk of its start, so none overwrites a row that past() may still
    serve. Each producer answers each piece with None or the exception it
    caught, and the engine takes one answer from every producer before it
    serves the piece, raising the first exception in producer order. A
    trial's draws do not depend on the process that makes them, so neither
    do the rows. Smaller fills, and every fill where os.fork is missing,
    run inline through one cursor in pieces of up to a chunk: for a short
    pass the fork costs more than the overlap saves. close(), or leaving a
    with-block, kills and reaps the producers, and a later fill raises.
    """

    _CHUNK = 1024
    _SCRATCH = 1 << 19
    _FORKED = 4096
    # the most producers measured: two, on a 2-vCPU host
    _PRODUCERS = 2

    def __init__(
        self,
        segments: list[tuple[int, int, np.ndarray]],
        noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
        streams: list[tuple[np.random.Generator, tuple]],
        capacity: int,
        shared: tuple[np.ndarray, np.ndarray] | None = None,
        updates: int = 1,
    ):
        groups = len(noise)
        self.segments = [(a, b, np.tile(w, (groups, 1))) for a, b, w in segments]
        self.cap = capacity
        trials, L = segments[0][2].shape
        n = segments[-1][1]
        # values a trial draws per sample: input and output noise, and source
        per_sample = L + 1 + (shared is None)
        values = self._SCRATCH // 8
        # a trial's span of scratch; a chunk holds at most two, one per half
        span = max(1, values // per_sample)
        self.chunk = min(max(1, self._CHUNK // groups), 2 * span, n)
        self.rows = min(n, capacity - 1 + self.chunk)
        half = max(1, self.chunk // 2)
        self.forks = half * per_sample >= self._FORKED and hasattr(os, "fork")
        shapes = (self.rows, groups * trials, L), (self.rows, groups * trials)
        count = 1
        if self.forks:
            # imported here, so that setting up an experiment does not pay for it
            from .producer import cpu_count, shared_arrays

            self.x, self.d = shared_arrays(*shapes)
            # the producer count (see the class docstring)
            count = min(trials, cpu_count(), self._PRODUCERS if groups * updates == 1 else 1)
        else:
            self.x, self.d = map(np.empty, shapes)
        piece = min(half if self.forks else self.chunk, span)
        batch = max(1, values // (piece * per_sample))
        bounds = [trials * k // count for k in range(count + 1)]
        self._cursors = [
            _TrialCursor(noise, streams, L, piece, batch, shared, slice(*ends))
            for ends in zip(bounds, bounds[1:])
        ]
        # the ring as the (G, trials, rows[, L]) views that the cursors write
        self._views = [
            np.moveaxis(a.reshape(self.rows, groups, trials, *a.shape[2:]), 0, 2)
            for a in (self.x, self.d)
        ]
        self.pieces = []
        for seg_start, seg_end, w_seg in segments:
            a = seg_start
            while a < seg_end:
                b = min(a + piece, seg_end, (a // self.rows + 1) * self.rows)
                self.pieces.append((a, b, w_seg))
                a = b
        self._next = 0  # the next piece the engine enters
        self._mark = 0  # one past the last sample of the engine's piece
        self._latest = -1
        self._closed = False
        self._asked = 0  # pieces asked of the producers
        self._producers = []

    def _fill(self, cursor: _TrialCursor, start: int, end: int, w_seg: np.ndarray) -> None:
        """Write the piece [start, end) of cursor's trials into the ring."""
        rows = slice(start % self.rows, start % self.rows + end - start)
        x, d = (view[:, cursor.trials, rows] for view in self._views)
        cursor.write(start, end, w_seg[cursor.trials], list(zip(x, d)))

    def _enter_piece(self) -> None:
        """Make the engine's next piece ready: fill it, or take the producers' answers."""
        if self._closed:
            raise RuntimeError("the stream provider is closed")
        start, end, w_seg = self.pieces[self._next]
        self._next += 1
        self._mark = end
        if not self.forks:
            self._fill(self._cursors[0], start, end, w_seg)
            return
        try:
            if not self._producers:
                from .producer import Producer

                for c in self._cursors:
                    self._producers.append(Producer(lambda k, c=c: self._fill(c, *self.pieces[k])))
            asked = self._asked
            while self._asked < len(self.pieces) and self.pieces[self._asked][1] <= start + self.chunk:
                self._asked += 1
            if self._asked > asked:
                for producer in self._producers:
                    producer.ask(self._asked - asked)
            for producer in self._producers:
                error = producer.answer()
                if error is not None:
                    raise error
        except BaseException:
            self.close()
            raise

    def step(self, i: int):
        while i >= self._mark:
            self._enter_piece()
        self._latest = i
        row = i % self.rows
        return self.x[row], self.d[row]

    def past(self, idx: int):
        if not max(0, self._latest - self.cap + 1) <= idx <= self._latest:
            raise LookupError(
                f"history gap: index {idx} outside the stored history "
                f"(latest {self._latest}, capacity {self.cap})"
            )
        row = idx % self.rows
        return self.x[row], self.d[row]

    def close(self) -> None:
        """Kill and reap the producers, if any were forked."""
        self._closed = True
        while self._producers:
            self._producers.pop().close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class EngineResult:
    """The engine's final weights and update counts; per-run curves go to the sink."""

    weights: np.ndarray
    main_steps: int
    main_updates: int
    reuse_steps: int
    reuse_updates: int


def run_engine(
    provider,
    n: int,
    params: RtgaParams,
    censor: CensorConfig,
    reuse_cfg: ReuseConfig,
    segments: list[tuple[int, int, np.ndarray]],
    sink,
    groups: Sequence[str] = (),
) -> EngineResult:
    """Run all trials in lockstep for n iterations.

    segments is the piecewise-constant truth [(start, end, (runs, L))]
    covering [0, n). Updates begin once the delay line is full (i >= L);
    earlier iterations only record the zero-weight deviation. Per
    iteration: scheduled reuse updates (each individually censored), then
    the gated main update, then the scale update on the main error.

    groups labels the G equal groups of runs that a merged pass holds, in
    run order (none: one group). Per-run output fills (runs, _BLOCK // G)
    buffers, so they hold what one group's pass holds; a block ends when
    they are full, at a segment end and at n. A run whose squared deviation
    then is non-finite or exceeds DIVERGENCE_FACTOR times its largest
    squared truth norm raises ArithmeticError, which names the run by its
    group's label and its index in the group; otherwise sink(start, ratio,
    censored, e) receives the block's (runs, end - start) views, which the
    next block overwrites.
    """
    runs, L = segments[0][2].shape
    W = np.zeros((runs, L))
    tracker = _ScaleTracker(runs, censor) if censor.active else None
    kappa = censor.kappa if censor.active else 0.0
    width = max(1, _BLOCK // max(1, len(groups)))
    ratio = np.empty((runs, width))
    cen_mask = np.empty((runs, width), dtype=bool)
    errors = np.empty((runs, width))
    mu, phi = params.mu, params.phi
    main_steps = main_censored = reuse_steps = reuse_censored = 0
    # Per-run scalars of one update: the two step coefficients, n2 and e^2.
    # Rows of one array, so one copyto zeroes a censored run's steps.
    scalars = np.empty((4, runs))
    step_x, step_w, n2, e2 = scalars

    def update(W: np.ndarray, x: np.ndarray, d: np.ndarray, thr):
        """Gated step of every run on (x, d); W is updated in place.

        With k the per-run gradient coefficient the step is
        W <- W (1 + mu k e^2/n2) + (mu k e) x; a censored run (|e| < thr)
        takes a zero step. Returns the error and the censored mask (None
        when ungated).
        """
        e = d - np.einsum("rl,rl->r", W, x)
        np.add(np.einsum("rl,rl->r", W, W), phi, out=n2)
        np.multiply(e, e, out=e2)
        np.divide(e2, n2, out=step_w)  # |e~|^2, scaled by k below
        k = mu * gradient(e, n2, params, step_w)
        np.multiply(k, e, out=step_x)
        np.multiply(step_w, k, out=step_w)
        cen = None
        if thr is not None:
            cen = np.abs(e) < thr
            np.copyto(scalars[:2], 0.0, where=cen)
        W *= (step_w + 1.0)[:, None]
        W += step_x[:, None] * x
        return e, cen

    # |W - w_o|^2 (ratio times the segment's |w_o|^2) is compared with the
    # run's largest |w_o|^2, since a shift may leave a tiny truth
    dens = [np.sum(w * w, axis=1) for _, _, w in segments]
    limit = DIVERGENCE_FACTOR * np.max(dens, axis=0)
    # One errstate per pass, not per update: the divergence check names the
    # runs that overflow, so numpy's warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (seg_start, seg_end, seg_w), seg_den in zip(segments, dens):
            blown = limit / seg_den
            for start in range(seg_start, min(seg_end, n), width):
                end = min(start + width, seg_end, n)
                cen_mask.fill(False)
                for j, i in enumerate(range(start, end)):
                    x_i, d_i = provider.step(i)
                    if i >= L:
                        gated = censor.active and tracker.ready
                        thr = kappa * tracker.sigma if gated else None
                        for idx in schedule(reuse_cfg, i, L):
                            x_r, d_r = provider.past(idx)
                            _, cen = update(W, x_r, d_r, thr)
                            reuse_steps += runs
                            if gated:
                                reuse_censored += int(np.count_nonzero(cen))
                        e, cen = update(W, x_i, d_i, thr)
                        main_steps += runs
                        if gated:
                            cen_mask[:, j] = cen
                        if censor.active:
                            tracker.update(e)
                    else:
                        e = d_i - np.einsum("rl,rl->r", W, x_i)
                    errors[:, j] = e
                    dev = W - seg_w
                    ratio[:, j] = np.einsum("rl,rl->r", dev, dev) / seg_den
                block = slice(0, end - start)
                _check_divergence(ratio[:, block], blown, start, mu, groups)
                main_censored += int(np.count_nonzero(cen_mask[:, block]))
                sink(start, ratio[:, block], cen_mask[:, block], errors[:, block])
    return EngineResult(
        weights=W,
        main_steps=main_steps,
        main_updates=main_steps - main_censored,
        reuse_steps=reuse_steps,
        reuse_updates=reuse_steps - reuse_censored,
    )


def _check_divergence(
    ratio: np.ndarray, blown: np.ndarray, start: int, mu: float, groups: Sequence[str]
) -> None:
    """Name the runs whose ratio in the block from `start` is not within blown.

    A non-finite ratio counts: a non-finite step makes W non-finite in the
    same update. A finite one counts too, since the n2 = phi + |w|^2
    normalization can keep a blown-up run finite.
    """
    within = ratio <= blown[:, None]
    if not within.all():
        over = ~within
        first = start + int(np.argmax(over.any(axis=0)))
        bad = np.nonzero(over.any(axis=1))[0]
        if groups:
            group, run = np.divmod(bad, len(ratio) // len(groups))
            named = ", ".join(
                f"{groups[g]} run(s) {run[group == g].tolist()}" for g in np.unique(group)
            )
        else:
            named = f"run(s) {bad.tolist()}"
        raise ArithmeticError(
            f"divergence at iteration {first} in {named}; |W - w_o|^2 is non-finite "
            f"or exceeds {DIVERGENCE_FACTOR:g} times the run's largest |w_o|^2, "
            f"the step size is likely beyond the stable range (mu={mu})"
        )


class RunSums:
    """An experiment's sink: per-iteration run sums of the ratio (and e^2).

    Rows are added one run after another, the order of mean(axis=0) on a
    (runs, n) array, so the means are bit-identical; censored counts the
    censored runs per iteration. The e^2 sums are kept only with errors
    (e2 is None otherwise).
    """

    def __init__(self, runs: int, n: int, errors: bool = False):
        self.runs = runs
        self.ratio = np.zeros(n)
        self.e2 = np.zeros(n) if errors else None
        self.censored = np.zeros(n, dtype=np.int64)

    def __call__(self, start: int, ratio, censored, e) -> None:
        cols = slice(start, start + ratio.shape[1])
        ratio_sum = self.ratio[cols]
        for ratio_row in ratio:
            ratio_sum += ratio_row
        if self.e2 is not None:
            e2_sum = self.e2[cols]
            for e_row in e:
                e2_sum += e_row * e_row
        self.censored[cols] = np.count_nonzero(censored, axis=0)


@dataclass
class ExperimentResult:
    """Aggregated curves, measured ratios, and count bookkeeping."""

    mode: str
    curve: LearningCurve | None = None
    erle: LearningCurve | None = None
    tail_db: float | None = None
    censor_overall: float | None = None
    censor_steady: float | None = None
    reuse_censor: float | None = None
    counts: dict = field(default_factory=dict)
    predicted: dict | None = None
    table: list[dict] | None = None
    csv_columns: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"mode: {self.mode}"]
        if self.tail_db is not None:
            lines.append(f"tail NMSD: {self.tail_db:.4f} dB (linear mean of last 10%)")
        if self.censor_overall is not None:
            lines.append(
                f"measured censoring ratio: {100 * self.censor_overall:.2f}% overall, "
                f"{100 * self.censor_steady:.2f}% steady-state half"
            )
        if self.reuse_censor is not None:
            lines.append(f"reuse-pass censoring ratio: {100 * self.reuse_censor:.2f}%")
        if self.counts:
            c = self.counts
            lines.append(
                f"executed updates: {c['main_updates']}/{c['main_steps']} main, "
                f"{c['reuse_updates']}/{c['reuse_steps']} reuse"
            )
        if self.predicted is not None:
            p = self.predicted
            lines.append(
                "predicted per-iteration cost: "
                f"{p['additions']:.1f} additions, {p['multiplications']:.1f} "
                f"multiplications, {p['nonlinear']:.0f} nonlinear "
                f"(reuse/censor factor {p['reuse_censor_factor']:.3f})"
            )
        if self.table is not None:
            for row in self.table:
                lines.append(
                    f"setting {row['label']}: theory {row['theory_db']:.3f} dB, "
                    f"simulated {row['sim_db']:.3f} dB, gap {row['gap_db']:.3f} dB"
                )
        lines.extend(self.notes)
        return "\n".join(lines)


def _aggregate(
    cfg: ExperimentConfig, params: RtgaParams, res: EngineResult, sums: RunSums
) -> ExperimentResult:
    mean_ratio = sums.ratio / sums.runs
    keys = ("main_steps", "main_updates", "reuse_steps", "reuse_updates")
    counts = {k: getattr(res, k) for k in keys}
    curve = LearningCurve(to_db(mean_ratio), runs=sums.runs)
    out = ExperimentResult(
        mode=cfg.mode,
        curve=curve,
        tail_db=tail_mean_db(mean_ratio),
        counts=counts,
        predicted=predicted_op_counts(
            cfg.order, params, cfg.censoring.p_ce,
            cfg.reuse.l_reused if cfg.reuse.active else 0,
        ),
        csv_columns={"nmsd_db": curve.values_db},
    )
    if cfg.censoring.active:
        steps = counts["main_steps"]
        out.censor_overall = (steps - counts["main_updates"]) / steps
        steady = sums.censored[max(cfg.n_samples // 2, cfg.order):]
        out.censor_steady = int(steady.sum()) / (sums.runs * steady.size)
    if counts["reuse_steps"]:
        out.reuse_censor = 1.0 - counts["reuse_updates"] / counts["reuse_steps"]
    return out


def _trial_provider(
    cfg: ExperimentConfig,
    noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
    w_o: np.ndarray | None = None,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
) -> StreamProvider:
    """The provider of every trial, holding the reuse schedule's reach.

    noise holds one (input, output) pair per group of cfg.mc_runs runs.
    Run r of every group is trial r, rooted at SeedSequence(base_seed + r),
    so the groups share the trial's generators, which one cursor draws
    once. Trial r draws its truth from its system stream unless w_o is
    given, and its source from its source stream unless shared, the clean
    regressors and clean output (through w_o) of a source every run shares,
    is given. The truth follows cfg.truth_shifts().
    """
    n, L, runs = cfg.n_samples, cfg.order, cfg.mc_runs
    WO = np.empty((runs, L))
    streams = []
    for r in range(runs):
        # groups that share draws build the same generators (see _TrialCursor)
        system_rng, *trial_streams = run_streams(cfg.base_seed, r, noise[0])
        WO[r] = draw_true_weights(system_rng, L) if w_o is None else w_o
        streams.append(trial_streams)
    capacity = reach(cfg.reuse, n, L) + 1
    segments = wo_segments(WO, cfg.truth_shifts(), n)
    updates = 1 + (cfg.reuse.l_reused if cfg.reuse.active else 0)
    return StreamProvider(segments, noise, streams, capacity, shared, updates)


def _run_trials(
    cfg: ExperimentConfig,
    params: RtgaParams,
    noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
    w_o: np.ndarray | None = None,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
    labels: Sequence[str] = (),
    errors: bool = False,
) -> tuple[EngineResult, list[RunSums]]:
    """The one driver of every engine mode: all trials in one time-major batch.

    noise holds one (input, output) pair per group of cfg.mc_runs runs,
    all run in this one engine pass on the same cfg.mc_runs trials, whose
    draws the groups share; labels names each group when there are
    several. errors asks for the run sums of e^2. See _trial_provider for
    the rest. Returns the engine result, whose counts cover every group,
    and one RunSums per group.
    """
    if len(noise) > 1 and len(labels) != len(noise):
        raise ValueError("a merged pass needs one label per noise group")
    runs = cfg.mc_runs
    sums = [RunSums(runs, cfg.n_samples, errors) for _ in noise]

    def sink(start: int, ratio, censored, e) -> None:
        for g, group_sums in enumerate(sums):
            rows = slice(g * runs, (g + 1) * runs)
            group_sums(start, ratio[rows], censored[rows], e[rows])

    with _trial_provider(cfg, noise, w_o, shared) as provider:
        res = run_engine(
            provider, cfg.n_samples, params, cfg.censoring, cfg.reuse,
            provider.segments, sink, labels,
        )
    return res, sums


def run_sysid(cfg: ExperimentConfig) -> ExperimentResult:
    """System identification under the configured case.

    In tracking mode the truth shifts right mid-run (cfg.truth_shifts()).
    """
    cfg.validate()
    params = cfg.resolved_params()
    res, (sums,) = _run_trials(cfg, params, cfg.noise_pairs())
    return _aggregate(cfg, params, res, sums)


run_tracking = run_sysid


def load_aec_assets(cfg: ExperimentConfig) -> tuple[AecAssets, list[str]]:
    """Resolve configured assets; synthetic substitutions are labeled."""
    notes = []
    if cfg.aec.far_end == "synthetic":
        far = synth_far_end(cfg.n_samples)
        notes.append("far end: synthetic AR(1) process (pole 0.9), peak-normalized")
    else:
        far = load_wav(cfg.aec.far_end).samples[: cfg.n_samples]
    if cfg.aec.echo_path == "synthetic":
        echo = synth_echo_path()
        notes.append("echo path: synthetic exponential-decay taps, unit norm")
    else:
        echo = load_echo_path(cfg.aec.echo_path)
    return AecAssets(far_end=far, echo_path=echo), notes


def run_aec(
    cfg: ExperimentConfig,
    assets: AecAssets | None = None,
    noise: tuple[NoiseSpec, NoiseSpec] | None = None,
) -> ExperimentResult:
    """Echo cancellation against a 512-tap path driven by the far end.

    The benchmark-case variances are calibrated for a unit-power source,
    so they are rescaled here by the measured far-end power (input side)
    and clean-echo power (output side); the in/out ratio and the impulse
    structure of the case are preserved. Pass an explicit (input, output)
    noise pair to bypass the case table, taken as absolute variances.
    """
    cfg.validate()
    notes: list[str] = []
    if assets is None:
        assets, notes = load_aec_assets(cfg)
    far = assets.far_end[: cfg.n_samples]
    if far.size < cfg.n_samples:
        raise ValueError(
            f"far-end audio has {far.size} samples; {cfg.n_samples} requested"
        )
    if np.abs(far).max() == 0:
        warnings.warn("far-end audio is silent; results are degenerate")
    echo = assets.echo_path
    x_far = delay_line_matrix(far, cfg.order)
    d_clean = x_far @ echo
    if noise is None:
        p_x = float(np.mean(far**2))
        p_d = float(np.mean(d_clean**2))
        noise = tuple(
            replace(s, variance=s.variance * p, impulse_variance=s.impulse_variance * p)
            for s, p in zip(case_spec(cfg.case_id), (p_x, p_d))
        )
        notes.append(
            f"case noises scaled by scene power: input x{p_x:.4g}, output x{p_d:.4g}"
        )
    params = cfg.resolved_params(noise)
    res, (sums,) = _run_trials(
        cfg, params, [noise], w_o=echo, shared=(x_far, d_clean), errors=True
    )
    out = _aggregate(cfg, params, res, sums)
    out.mode = "aec"
    out.erle = erle_db(d_clean * d_clean, sums.e2 / sums.runs, sums.runs)
    out.csv_columns = {"nmsd_db": out.curve.values_db, "erle_db": out.erle.values_db}
    out.notes.extend(notes)
    return out


# bench/child.py reads theory mode's filter by this name
def theory_params(cfg: ExperimentConfig) -> RtgaParams:
    return cfg.resolved_params()


def run_theory_compare(cfg: ExperimentConfig) -> ExperimentResult:
    """Steady-state MSD: closed-form prediction next to simulation.

    Each configured variance is evaluated with equal input and output
    noise power (the input side is always Gaussian; the output side
    follows theory.output_family). The simulated value is the tail
    average of a fixed-truth run with a unit-norm truth vector, so the
    normalized deviation coincides with the MSD. Every variance's runs
    are one group of a single engine pass, and the groups share each
    trial's source and unit noise draws, scaled per variance.
    """
    cfg.validate()
    params = cfg.resolved_params()
    L = cfg.order
    w_o = np.ones(L) / math.sqrt(L)
    variances = cfg.theory.variances
    theory = []
    for s2 in variances:
        t = TheoryInputs(
            R=np.eye(L),
            w_o=w_o,
            sigma_i2=s2,
            sigma_o2=s2,
            alpha=cfg.theory.alpha,
            params=params,
            p_t=1.0 - cfg.censoring.p_ce,
        )
        theory.append(float(to_db(steady_state_msd(t, params.mu))))
    labels = [f"variance {s2:g}" for s2 in variances]
    _, sums = _run_trials(cfg, params, cfg.noise_pairs(), w_o, labels=labels)
    rows = []
    for s2, theory_db, group in zip(variances, theory, sums):
        sim_db = tail_mean_db(group.ratio / group.runs)
        rows.append(
            {
                "label": f"{cfg.theory.output_family}, variance {s2:g}",
                "sigma2": s2,
                "theory_db": theory_db,
                "sim_db": sim_db,
                "gap_db": theory_db - sim_db,
            }
        )
    return ExperimentResult(
        mode="theory",
        table=rows,
        csv_columns={
            "sigma2": [r["sigma2"] for r in rows],
            "theory_db": [r["theory_db"] for r in rows],
            "sim_db": [r["sim_db"] for r in rows],
            "gap_db": [r["gap_db"] for r in rows],
        },
    )


# Fixed truth for the two-tap cost-surface grid.
SWEEP_TRUTH = np.array([-0.6, 0.8])


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte-Carlo mean cost over a two-tap weight grid."""
    cfg.validate()
    params = cfg.resolved_params()
    pair = case_spec(cfg.case_id)
    n = cfg.sweep.draws
    x_tilde, d_tilde = np.empty((1, n, SWEEP_TRUTH.size)), np.empty((1, n))
    cursor = _TrialCursor([pair], [run_streams(cfg.base_seed, 0, pair)[1:]], SWEEP_TRUTH.size, n, 1)
    cursor.write(0, n, SWEEP_TRUTH[None], [(x_tilde, d_tilde)])
    del cursor  # its whole-stream scratch, before the grid's larger arrays
    axis = np.linspace(cfg.sweep.grid_min, cfg.sweep.grid_max, cfg.sweep.points)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    Wg = np.column_stack([g1.ravel(), g2.ravel()])
    e = d_tilde - Wg @ x_tilde[0].T
    mean_cost = np.asarray(cost(e, Wg[:, None, :], params)).mean(axis=1)
    return ExperimentResult(
        mode="sweep",
        csv_columns={"w1": Wg[:, 0], "w2": Wg[:, 1], "mean_cost": mean_cost},
        notes=[
            f"grid {cfg.sweep.points}x{cfg.sweep.points} over "
            f"[{cfg.sweep.grid_min:g}, {cfg.sweep.grid_max:g}]^2, "
            f"{n} draws per point, truth {SWEEP_TRUTH.tolist()}"
        ],
    )
