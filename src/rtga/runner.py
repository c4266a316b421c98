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
from dataclasses import dataclass, field, fields, replace

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
from .filters import ONE, ZERO, RtgaParams, cost, operand
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
from .signal_model import clean_output, delay_line_matrix, synthesize_eiv_arrays, wo_segments
from .theory import TheoryInputs, steady_state_msd

# Calibrated squared norm of the randomly drawn true weight vectors.
TRUE_WEIGHT_NORM2 = 1.44

# A run whose squared deviation exceeds this multiple of its largest
# squared truth norm is reported as divergent.
DIVERGENCE_FACTOR = 1e6

# Columns of the engine's (runs, _BLOCK) per-run output buffers; a pass
# that merges G groups of runs fills _BLOCK // G columns.
_BLOCK = 512

try:
    # np.einsum without optimize only forwards to this entry; calling it
    # skips the array-function dispatch and einsum's Python wrapper
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


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
    """Vectorized port of censoring.update_scale across the run axis.

    sigma is updated in place, so a caller's reference stays current. The
    update's float operands (tau, 1 - tau, MAD (1 - tau)) are read-only
    0-d arrays made here, by the engine's operand rule (the _engine
    docstring).
    """

    def __init__(self, runs: int, cfg: CensorConfig):
        self.cfg = cfg
        self.ring = np.zeros((runs, cfg.window))
        self.count = 0
        self.sigma = np.zeros(runs)
        self.ready = False
        half = cfg.window // 2
        self._mid = half if cfg.window % 2 else (half - 1, half)
        self._row = np.empty(runs)  # the conventional estimator's (1 - tau) e^2
        self._part = np.empty_like(self.ring)  # the ring's copy that _median partitions
        self._tau = operand(cfg.tau)
        self._rest = operand(1.0 - cfg.tau)
        self._mad_rest = operand(MAD_FACTOR * (1.0 - cfg.tau))

    def _median(self) -> np.ndarray:
        # np.median's own selection: the middle element, or the mean of the
        # two middle elements of an even window, so the result is identical;
        # np.partition would partition a fresh copy of the ring the same way
        part = self._part
        part[...] = self.ring
        part.partition(self._mid, axis=1)
        if isinstance(self._mid, int):
            return part[:, self._mid]
        lo, hi = self._mid
        return (part[:, lo] + part[:, hi]) / 2.0

    def update(self, e: np.ndarray) -> None:
        cfg = self.cfg
        sigma = self.sigma
        np.abs(e, self.ring[:, self.count % cfg.window])
        self.count += 1
        if not self.ready:
            if self.count >= cfg.window:
                np.multiply(self._median(), MAD_FACTOR, sigma)
                self.ready = True
            return
        # sqrt(tau sigma^2 + (1 - tau) e^2), or tau sigma + MAD (1 - tau) med
        if cfg.estimator == "conventional":
            np.multiply(sigma, sigma, sigma)
            np.multiply(sigma, self._tau, sigma)
            row = np.multiply(e, self._rest, self._row)
            np.multiply(row, e, row)
            np.add(sigma, row, sigma)
            np.sqrt(sigma, sigma)
        else:
            med = self._median()  # a view of the partitioned copy, ours to overwrite
            np.multiply(sigma, self._tau, sigma)
            np.add(sigma, np.multiply(med, self._mad_rest, med), sigma)


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
    """Draws the noisy samples of the trials of streams, in order.

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
        self.streams = streams
        self.shared = shared
        self.batch = min(len(self.streams), batch)
        # np.empty: a forked process's scratch, made before the fork, is its own to touch
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
    trial, so the G groups share the trial's source and truth. The runs
    of a pass are in trial-major order, which every consumer of its rows
    follows: run k * G + g is trial k's run in group g, so a trial's G
    runs, and a shard's trials, are contiguous rows. The provider's own
    segments repeat each trial truth G times, for the engine. inline
    keeps the fill in this process, as a shard's provider does.

    The ring holds sample i in row i % rows of (rows, trials * G, L)
    regressors and (rows, trials * G) outputs, rows = min(n, capacity - 1
    + chunk); the latest `capacity` samples stay available to past(). A
    span is the most samples whose draws of one trial fit _SCRATCH bytes,
    and the cursor draws as many trials at a time as fit them. A chunk is
    max(2, _CHUNK // G) samples, but at most n and at most two spans: a
    longer one would only widen a long filter's ring. The ring is filled
    piece by piece, and a piece is at most a span long and ends at a
    segment boundary (so it has one truth per trial) and at the ring's end.

    A pass runs in one of three ways, by a rule that reads only its reuse,
    its rows, its fill and the CPUs the process may run on (_cpus: the
    affinity mask, which a cgroup CPU quota does not narrow):
    - Shards (shards()). A pass without reuse of at least _SHARDED rows,
      G * trials, splits its trials into min(trials, CPUs) contiguous
      shards. Each draws and runs its own trials on an inline provider
      in a forked child, and the pass's process only checks and sums
      their blocks (_run_shards).
    - One producer. Any other pass on more than one CPU, where a trial
      draws at least _FORKED values per half chunk, has one forked
      producer process (rtga.producer) fill the ring, which then lives in
      an anonymous shared mapping, in half-chunk pieces.
    - Inline, otherwise, and wherever os.fork is missing: one cursor fills
      the ring in pieces of up to a chunk, in the engine's process.
    So no pass forks more than one process per CPU or per trial, and a
    one-CPU pass forks none. The rule is measured on a 2-vCPU host. A
    shard makes as many numpy calls as the whole pass, so shards pay only
    where rows, not calls, bound the engine; elsewhere the engine beside
    one producer is faster. Without reuse, sysid at 8000 samples took
    0.59-0.77 s with a producer and 0.71-0.93 s in shards at 100-200
    rows, 0.96-1.10 against 1.13-1.18 s at 300, and shards won at 1000
    rows (sysid-wide); a theory comparison of three variances, whose
    170-sample half chunks stay inline, took 1.21-1.25 s inline and
    0.96-0.98 s in shards at 300 rows (theory-compare's). Where the rule
    picks one producer, each way still wins on some pass (one fresh
    process per run, shards forced by patching shards(), outputs
    identical):
    - aec-stream's config: shards took a median 0.666 s against 0.698 s
      and were faster in 5 of 6 pairs, but their children spent
      1.25-1.41 s of CPU against the producer's 0.41-0.49 s;
    - AEC rtga, 5 runs x 8000 samples: the producer took 0.36-0.42 s and
      shards 0.45-0.56 s, the producer faster in 4 of 4 pairs;
    - sysid case 2 proposed, idr 3 at 70 %, 300 runs x 4000 samples: even,
      shards 0.73-0.86 s and the producer 0.84-0.86 s, each faster in 2
      of 4 pairs.
    So a rule that counted the update's size (G * trials * L >= 2304)
    would send the 5-run AEC pass to shards and lose about 30 % there.

    A producer fills half-chunk pieces, and 2 * half <= chunk wherever a
    pass has more than one piece, so the piece that rtga.producer's
    look-ahead fills beside the engine's ends within a chunk of the start
    of the engine's piece, and overwrites no row that past() may still
    serve. Entering a piece, the engine takes the producer's answer,
    which raises what the fill raised, before it serves the piece. A
    trial's draws do not depend on the process that makes them, so
    neither do the rows. close(), or leaving a with-block, kills and
    reaps the producer, and a later fill raises.
    """

    _CHUNK = 1024
    _SCRATCH = 1 << 19
    _FORKED = 4096
    _SHARDED = 256

    def __init__(
        self,
        segments: list[tuple[int, int, np.ndarray]],
        noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
        streams: list[tuple[np.random.Generator, tuple]],
        capacity: int,
        shared: tuple[np.ndarray, np.ndarray] | None = None,
        inline: bool = False,
    ):
        groups = len(noise)
        self.segments = [(a, b, np.repeat(w, groups, axis=0)) for a, b, w in segments]
        self.cap = capacity
        trials, L = segments[0][2].shape
        n = segments[-1][1]
        # values a trial draws per sample: input and output noise, and source
        per_sample = L + 1 + (shared is None)
        values = self._SCRATCH // 8
        # a trial's span of scratch; a chunk holds at most two, one per half
        span = max(1, values // per_sample)
        self.chunk = min(max(2, self._CHUNK // groups), 2 * span, n)
        self.rows = min(n, capacity - 1 + self.chunk)
        half = max(1, self.chunk // 2)
        self.forks = not inline and half * per_sample >= self._FORKED and _cpus() > 1
        shapes = (self.rows, trials * groups, L), (self.rows, trials * groups)
        if self.forks:
            from .producer import shared_arrays

            self.x, self.d = shared_arrays(*shapes)
        else:
            self.x, self.d = map(np.empty, shapes)
        piece = min(half if self.forks else self.chunk, span)
        batch = max(1, values // (piece * per_sample))
        self._cursor = _TrialCursor(noise, streams, L, piece, batch, shared)
        # the ring as the (G, trials, rows[, L]) views that the cursor writes
        self._views = [
            a.reshape(self.rows, trials, groups, *a.shape[2:]).swapaxes(0, 2)
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
        self._producer = None

    @classmethod
    def shards(cls, groups: int, trials: int, reused: bool) -> int:
        """The number of shards of a pass, by the rule in the class docstring."""
        if reused or groups * trials < cls._SHARDED:
            return 1
        return min(trials, _cpus())

    def _fill(self, start: int, end: int, w_seg: np.ndarray) -> None:
        """Write the piece [start, end) of every trial into the ring."""
        rows = slice(start % self.rows, start % self.rows + end - start)
        x, d = (view[:, :, rows] for view in self._views)
        self._cursor.write(start, end, w_seg, list(zip(x, d)))

    def _enter_piece(self) -> None:
        """Make the engine's next piece ready: fill it, or take the producer's answer."""
        if self._closed:
            raise RuntimeError("the stream provider is closed")
        start, end, w_seg = self.pieces[self._next]
        self._next += 1
        self._mark = end
        if not self.forks:
            self._fill(start, end, w_seg)
            return
        try:
            if self._producer is None:
                from .producer import Producer

                self._producer = Producer(lambda k: self._fill(*self.pieces[k]))
                self._producer.ask(1)
            if self._next < len(self.pieces):
                self._producer.ask(1)
            self._producer.answer()
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
        """Kill and reap the producer, if one was forked."""
        self._closed = True
        if self._producer is not None:
            self._producer.close()
            self._producer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cpus() -> int:
    """The CPUs a forked process could run on: 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@dataclass
class EngineResult:
    """The engine's final weights and update counts; per-run curves go to the sink."""

    weights: np.ndarray
    main_steps: int
    main_updates: int
    reuse_steps: int
    reuse_updates: int


# the names of EngineResult's update counts: every field after the weights
_COUNTS = tuple(f.name for f in fields(EngineResult)[1:])


def run_engine(
    provider,
    params: RtgaParams,
    censor: CensorConfig,
    reuse_cfg: ReuseConfig,
    segments: list[tuple[int, int, np.ndarray]],
    sink,
    groups: Sequence[str] = (),
) -> EngineResult:
    """Run all trials in lockstep over the samples that segments cover.

    segments is the piecewise-constant truth [(start, end, (runs, L))]
    covering the stream's n samples, [0, n), so n is segments[-1][1].
    Updates begin once the delay line is full (i >= L); earlier
    iterations only record the zero-weight deviation. Per
    iteration: scheduled reuse updates (each individually censored), then
    the gated main update, then the scale update on the main error.

    groups labels the G equal groups of runs that a merged pass holds,
    whose rows are in StreamProvider's trial-major run order (none: one
    group). Per-run output fills (runs, _BLOCK // G) buffers, so they hold
    what one group's pass holds, one block of _blocks at a time. After
    each block, sink(start, ratio, censored, e) receives its (runs,
    end - start) views, which the next block overwrites; _checked puts
    the divergence check in front of a sink.
    """
    blocks = _engine(provider, params, censor, reuse_cfg, segments, _width(groups))
    while True:
        try:
            start, ratio, censored, e = next(blocks)
        except StopIteration as done:
            return done.value
        sink(start, ratio, censored, e)


def _width(groups: Sequence) -> int:
    """The columns of a block of a pass of the given groups."""
    return max(1, _BLOCK // max(1, len(groups)))


def _blocks(segments: list[tuple[int, int, np.ndarray]], width: int):
    """The engine's blocks of a pass, as (start, end, truths): width columns,
    ending early at a segment end."""
    for seg_start, seg_end, seg_w in segments:
        for start in range(seg_start, seg_end, width):
            yield start, min(start + width, seg_end), seg_w


def _engine(
    provider,
    params: RtgaParams,
    censor: CensorConfig,
    reuse_cfg: ReuseConfig,
    segments: list[tuple[int, int, np.ndarray]],
    width: int,
):
    """run_engine's pass, one block at a time: yields each block's (start,
    ratio, censored, e) and returns the EngineResult.

    An update allocates no array data (gradient_coefficient does, at
    b != 2 only). Every per-run row of an update (e, n2, k, the two step
    coefficients and the threshold kappa sigma) and one (runs, L) scratch,
    for the product (mu k e) x and for the deviation W - w_o, are made
    once per pass. Each operation writes into them, the same operations
    in the same order as the plain numpy expressions, so the bits are
    theirs. The rl,rl->r einsums call numpy's C entry c_einsum.

    The operand rule: every operand and callable of the hot loop is made
    before the loop. The float operands are read-only 0-d float64 arrays
    (filters.operand): mu, phi and kappa made once per pass, 0 and 1 the
    module constants filters.ZERO and filters.ONE. The ufuncs are bound
    to local names and each takes out by position. A multiply of a (150,) row into out took 590 ns with a
    Python float operand, which numpy converts on every call, 410 ns with
    a 0-d array and 330 ns with the local name and a positional out; the
    arithmetic on 150 values is about 10 ns of that (timeit, min of 15,
    numpy 2.4.6 on a 2-vCPU x86-64 host). gradient_coefficient keeps
    the rule with the operands of its params (RtgaParams.operands), and
    the scale tracker with operands it makes when the pass makes it.
    gradient itself is looked up on each update, so a caller that
    replaces runner.gradient sees every call.

    A censor mask goes straight to its destination: the main update's
    column of the block's censor buffer, or a reuse update's row of the
    (width, l, runs) flags, which are counted and cleared at the block
    end. The scale tracker writes |e| into its ring and updates sigma in
    place.
    """
    runs, L = segments[0][2].shape
    W = np.zeros((runs, L))
    active = censor.active
    tracker = _ScaleTracker(runs, censor) if active else None
    ratio = np.empty((runs, width))
    cen_mask = np.empty((runs, width), dtype=bool)
    errors = np.empty((runs, width))
    # the censored flags of each column's reuse updates, counted at block end
    slots = reuse_cfg.l_reused if reuse_cfg.active else 0
    reuse_cen = np.zeros((width, slots, runs), dtype=bool)
    mu, phi, kappa = operand(params.mu), operand(params.phi), operand(censor.kappa)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, less, copyto, einsum = np.absolute, np.less, np.copyto, _einsum
    main_steps = main_censored = reuse_steps = reuse_censored = 0
    # step_x and step_w are the first two rows, so one copyto zeroes a
    # censored run's steps
    rows = np.empty((7, runs))
    step_x, step_w, n2, k, e, thr, dot = rows
    steps, step_x_col, step_w_col = rows[:2], step_x[:, None], step_w[:, None]
    scratch = np.empty((runs, L))

    def update(x: np.ndarray, d: np.ndarray, cen) -> None:
        """Gated step of every run on (x, d); W and e are updated in place.

        With k the per-run gradient coefficient the step is
        W <- W (1 + mu k e^2/n2) + (mu k e) x; a censored run (|e| < thr)
        takes a zero step. cen receives the censored mask (None when ungated).
        """
        subtract(d, einsum("rl,rl->r", W, x, out=e), e)
        add(einsum("rl,rl->r", W, W, out=n2), phi, n2)
        multiply(e, e, step_w)
        divide(step_w, n2, step_w)  # |e~|^2, scaled by k below
        gradient(e, n2, params, step_w, out=k)
        multiply(k, mu, k)
        multiply(k, e, step_x)
        multiply(step_w, k, step_w)
        if cen is not None:
            less(absolute(e, k), thr, cen)  # k is spent
            copyto(steps, ZERO, where=cen)
        add(step_w, ONE, step_w)
        multiply(W, step_w_col, W)
        add(W, multiply(step_x_col, x, scratch), W)

    for start, end, seg_w in _blocks(segments, width):
        seg_den = np.sum(seg_w * seg_w, axis=1)
        cen_mask.fill(False)
        # One errstate per block, not per update: the divergence check
        # names the runs that overflow, so numpy's warnings stay quiet
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j, i in enumerate(range(start, end)):
                x_i, d_i = provider.step(i)
                if i >= L:
                    gated = active and tracker.ready
                    if gated:
                        multiply(tracker.sigma, kappa, thr)
                    for slot, idx in enumerate(schedule(reuse_cfg, i, L)):
                        x_r, d_r = provider.past(idx)
                        update(x_r, d_r, reuse_cen[j, slot] if gated else None)
                        reuse_steps += runs
                    update(x_i, d_i, cen_mask[:, j] if gated else None)
                    main_steps += runs
                    if active:
                        tracker.update(e)
                else:
                    subtract(d_i, einsum("rl,rl->r", W, x_i, out=e), e)
                errors[:, j] = e
                subtract(W, seg_w, scratch)
                einsum("rl,rl->r", scratch, scratch, out=dot)
                divide(dot, seg_den, ratio[:, j])
        block = slice(0, end - start)
        main_censored += int(np.count_nonzero(cen_mask[:, block]))
        reuse_censored += int(np.count_nonzero(reuse_cen))
        reuse_cen.fill(False)
        yield start, ratio[:, block], cen_mask[:, block], errors[:, block]
    return EngineResult(
        W, main_steps, main_steps - main_censored, reuse_steps, reuse_steps - reuse_censored
    )


def _checked(
    sink, segments: list[tuple[int, int, np.ndarray]], mu: float, groups: Sequence[str] = ()
):
    """sink behind the one divergence check, at each block end.

    A run whose ratio in a block (|W - w_o|^2 over its segment's |w_o|^2)
    is non-finite or puts |W - w_o|^2 above DIVERGENCE_FACTOR times its
    largest |w_o|^2 raises ArithmeticError, which names row r as run
    r // G of the group labelled groups[r % G] (segments and groups are
    those of run_engine's whole pass), before sink sees the block, so no
    non-finite value reaches the run sums, the CSV or the counts. A
    non-finite ratio counts, since a non-finite step makes W non-finite in
    the same update; a finite one counts too, since the n2 = phi + |w|^2
    normalization can keep a blown-up run finite. The largest truth norm
    is the bound because a shift may leave a tiny truth.
    """
    dens = [np.sum(w * w, axis=1) for _, _, w in segments]
    limit = DIVERGENCE_FACTOR * np.max(dens, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        blown = [(a, limit / den) for (a, _, _), den in zip(segments, dens)]

    def checked(start: int, ratio, censored, e) -> None:
        bound = next(b for a, b in reversed(blown) if a <= start)
        within = ratio <= bound[:, None]
        if not within.all():
            over = ~within
            first = start + int(np.argmax(over.any(axis=0)))
            bad = np.nonzero(over.any(axis=1))[0]
            if groups:
                run, group = np.divmod(bad, len(groups))
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
        sink(start, ratio, censored, e)

    return checked


class RunSums:
    """An experiment's sink: per-iteration run sums of the ratio (and e^2)
    of each of the groups of runs that a pass holds, in run order.

    ratio, censored and e2 are (groups, n). A block's rows, in the pass's
    trial-major run order (StreamProvider), are viewed as (runs, groups,
    m) with no copy, and each group's rows are added one run after
    another, the order of mean(axis=0) on a (runs, n) array, so the means
    are bit-identical and each group's sums equal those of a pass of that
    group alone; censored counts the censored runs per iteration. The e^2
    sums are kept only with errors (e2 is None otherwise). The NMSD curve,
    the censoring ratios and AEC's ERLE come from these sums.
    """

    def __init__(self, groups: int, runs: int, n: int, errors: bool = False):
        self.runs = runs
        self.ratio = np.zeros((groups, n))
        self.e2 = np.zeros((groups, n)) if errors else None
        self.censored = np.zeros((groups, n), dtype=np.int64)

    def _runs(self, a: np.ndarray) -> np.ndarray:
        """A block's (runs * groups, m) rows as (runs, groups, m): item k
        holds run k of every group."""
        return a.reshape(self.runs, len(self.ratio), a.shape[1])

    def __call__(self, start: int, ratio, censored, e) -> None:
        cols = slice(start, start + ratio.shape[1])
        ratio_sum = self.ratio[:, cols]
        for rows in self._runs(ratio):
            ratio_sum += rows
        if self.e2 is not None:
            e2_sum = self.e2[:, cols]
            for rows in self._runs(e):
                e2_sum += rows * rows
        self.censored[:, cols] = np.count_nonzero(self._runs(censored), axis=0)


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
    mean_ratio = sums.ratio[0] / sums.runs
    counts = {k: getattr(res, k) for k in _COUNTS}
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
        steady = sums.censored[0, max(cfg.n_samples // 2, cfg.order):]
        out.censor_steady = int(steady.sum()) / (sums.runs * steady.size)
    if counts["reuse_steps"]:
        out.reuse_censor = 1.0 - counts["reuse_updates"] / counts["reuse_steps"]
    return out


def _trial_provider(
    cfg: ExperimentConfig,
    noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
    w_o: np.ndarray | None = None,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
    trials: slice = slice(None),
    inline: bool = False,
) -> StreamProvider:
    """The provider of the trials `trials` (every trial by default),
    holding the reuse schedule's reach; inline is StreamProvider's.

    noise holds one (input, output) pair per group of cfg.mc_runs runs.
    Run r of every group is trial r, rooted at SeedSequence(base_seed + r),
    so the groups share the trial's generators, which one cursor draws
    once. Trial r draws its truth from its system stream unless w_o is
    given, and its source from its source stream unless shared, the clean
    regressors and clean output (through w_o) of a source every run shares,
    is given. The truth follows cfg.truth_shifts().
    """
    n, L = cfg.n_samples, cfg.order
    WO = []
    streams = []
    for r in range(cfg.mc_runs)[trials]:
        # groups that share draws build the same generators (see _TrialCursor)
        system_rng, *trial_streams = run_streams(cfg.base_seed, r, noise[0])
        WO.append(draw_true_weights(system_rng, L) if w_o is None else w_o)
        streams.append(trial_streams)
    capacity = reach(cfg.reuse, n, L) + 1
    segments = wo_segments(np.array(WO), cfg.truth_shifts(), n)
    return StreamProvider(segments, noise, streams, capacity, shared, inline)


def _run_pass(
    cfg: ExperimentConfig,
    params: RtgaParams,
    noise: Sequence[tuple[NoiseSpec, NoiseSpec]],
    sink,
    w_o: np.ndarray | None = None,
    shared: tuple[np.ndarray, np.ndarray] | None = None,
    labels: Sequence[str] = (),
) -> EngineResult:
    """The one driver of every engine mode: every trial (see
    _trial_provider) in one time-major pass, inline, in shards or with one
    producer, by StreamProvider's rule.

    noise holds one (input, output) pair per group of cfg.mc_runs runs,
    all run in this pass on the same cfg.mc_runs trials, whose draws the
    groups share; labels names each group when there are several. sink
    sees each block of every run, in run order, behind the divergence
    check (_checked), whatever the way; the result's counts and weights
    cover every run.
    """
    n, L, trials = cfg.n_samples, cfg.order, cfg.mc_runs
    groups = len(noise)
    if groups > 1 and len(labels) != groups:
        raise ValueError("a merged pass needs one label per noise group")
    # a pass reuses when the reuse schedule gives its last sample an index
    reused = bool(schedule(cfg.reuse, n - 1, L))
    count = StreamProvider.shards(groups, trials, reused)
    bounds = [trials * k // count for k in range(count + 1)]
    providers = [
        _trial_provider(cfg, noise, w_o, shared, slice(lo, hi), count > 1)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    # every run's truths, in run order, whose norms bound the check
    segments = [
        (a, b, np.concatenate([provider.segments[j][2] for provider in providers]))
        for j, (a, b, _) in enumerate(providers[0].segments)
    ]
    checked = _checked(sink, segments, params.mu, labels)
    args = params, cfg.resolved_censoring(), cfg.reuse
    if count == 1:
        with providers[0] as provider:
            return run_engine(provider, *args, provider.segments, checked, labels)
    return _run_shards(providers, segments, args, checked, _width(labels))


def _run_shards(
    providers, segments: list[tuple[int, int, np.ndarray]], args, sink, width: int
) -> EngineResult:
    """Run each shard's provider in a forked child (rtga.producer), and
    hand sink each block of every run, in run order.

    The providers hold consecutive trials, so by StreamProvider's
    trial-major run order each shard's runs are one contiguous row range
    of the pass. A child's k-th piece is its engine's k-th block of the
    pass's segments: it writes its block into its row range of slot k % 2
    of shared (2, rows, width) buffers of the ratio, the censored mask and
    e. Its piece after the last block returns its shard's EngineResult,
    and the pass's result joins their weights and sums their counts. This
    process only waits, checks and sums: for each block it takes every
    child's answer for the block and hands the whole block to sink, so by
    rtga.producer's look-ahead no child writes a slot that sink may still
    read. Every child is killed and reaped when the pass ends or fails.
    """
    from .producer import Producer, shared_arrays

    params, censor, reuse_cfg = args
    rows = len(segments[0][2])
    ratio, errors = shared_arrays((2, rows, width), (2, rows, width))
    (censored,) = shared_arrays((2, rows, width), dtype=bool)
    buffers = ratio, censored, errors

    def child(provider, rows: slice):
        blocks = _engine(provider, params, censor, reuse_cfg, provider.segments, width)

        def fill(k: int) -> EngineResult | None:
            try:
                block = next(blocks)[1:]
            except StopIteration as done:
                return done.value
            for a, part in zip(buffers, block):
                a[k % 2, rows, :part.shape[1]] = part

        return fill

    children = []
    try:
        hi = 0
        for provider in providers:
            lo, hi = hi, hi + len(provider.segments[0][2])
            children.append(Producer(child(provider, slice(lo, hi))))
            children[-1].ask(1)
        for k, (start, end, _) in enumerate(_blocks(segments, width)):
            for producer in children:
                producer.ask(1)
            for producer in children:
                producer.answer()
            sink(start, *(a[k % 2, :, :end - start] for a in buffers))
        results = [producer.answer() for producer in children]
    finally:
        while children:
            children.pop().close()
    counts = {k: sum(getattr(res, k) for res in results) for k in _COUNTS}
    return EngineResult(np.concatenate([res.weights for res in results]), **counts)


def run_sysid(cfg: ExperimentConfig) -> ExperimentResult:
    """System identification under the configured case.

    In tracking mode the truth shifts right mid-run (cfg.truth_shifts()).
    """
    cfg.validate("sysid", "tracking")
    params = cfg.resolved_params()
    sums = RunSums(1, cfg.mc_runs, cfg.n_samples)
    res = _run_pass(cfg, params, cfg.noise_pairs(), sums)
    return _aggregate(cfg, params, res, sums)


run_tracking = run_sysid


def load_aec_assets(cfg: ExperimentConfig) -> tuple[AecAssets, list[str]]:
    """Resolve configured assets; synthetic substitutions are labeled."""
    notes = []
    names = ["far-end audio", "echo path"]
    if cfg.aec.far_end == "synthetic":
        far = synth_far_end(cfg.n_samples)
        notes.append("far end: synthetic AR(1) process (pole 0.9), peak-normalized")
    else:
        far = load_wav(cfg.aec.far_end).samples[: cfg.n_samples]
        names[0] = f"{cfg.aec.far_end}: far-end audio"
    if cfg.aec.echo_path == "synthetic":
        echo = synth_echo_path()
        notes.append("echo path: synthetic exponential-decay taps, unit norm")
    else:
        echo = load_echo_path(cfg.aec.echo_path)
        names[1] = f"{cfg.aec.echo_path}: echo path"
    return AecAssets(far_end=far, echo_path=echo, names=tuple(names)), notes


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
    cfg.validate("aec")
    notes: list[str] = []
    if assets is None:
        assets, notes = load_aec_assets(cfg)
    far = assets.far_end[: cfg.n_samples]
    if far.size < cfg.n_samples:
        raise ValueError(
            f"{assets.names[0]} has {far.size} samples; {cfg.n_samples} requested"
        )
    if np.abs(far).max() == 0:
        warnings.warn("far-end audio is silent; results are degenerate")
    echo = assets.echo_path
    x_far = delay_line_matrix(far, cfg.order)
    d_clean = clean_output(x_far, echo)
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
    sums = RunSums(1, cfg.mc_runs, cfg.n_samples, errors=True)
    res = _run_pass(cfg, params, [noise], sums, w_o=echo, shared=(x_far, d_clean))
    out = _aggregate(cfg, params, res, sums)
    out.erle = erle_db(d_clean * d_clean, sums.e2[0] / sums.runs, sums.runs)
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
    cfg.validate("theory")
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
        )
        theory.append(float(to_db(steady_state_msd(t, params.mu))))
    labels = [f"variance {s2:g}" for s2 in variances]
    sums = RunSums(len(variances), cfg.mc_runs, cfg.n_samples)
    _run_pass(cfg, params, cfg.noise_pairs(), sums, w_o, labels=labels)
    rows = []
    for s2, theory_db, ratio in zip(variances, theory, sums.ratio):
        sim_db = tail_mean_db(ratio / sums.runs)
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
        csv_columns={k: [r[k] for r in rows] for k in ("sigma2", "theory_db", "sim_db", "gap_db")},
    )


# Fixed truth for the two-tap cost-surface grid.
SWEEP_TRUTH = np.array([-0.6, 0.8])


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte-Carlo mean cost over a two-tap weight grid.

    The draws are trial 0's whole stream, written by a one-trial cursor in
    one call, with no ring.
    """
    cfg.validate("sweep")
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
    # a large b overflows |e~|^b to inf, whose cost is the shape's finite ceiling
    with np.errstate(over="ignore"):
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
