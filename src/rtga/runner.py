"""Monte-Carlo engine and the five experiment drivers.

The engine runs every Monte-Carlo trial of one experiment in lockstep:
state arrays carry a leading run axis and each iteration applies the
reuse pass, the gated main update, and the error-scale update to all
runs at once. Trial r derives every random stream from
SeedSequence(base_seed + r), so results are independent of batching and
rerunning a config reproduces identical output bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .censoring import MAD_FACTOR, CensorConfig
from .config import ExperimentConfig
from .dataio import (
    ECHO_PATH_LEN,
    AecAssets,
    load_echo_path,
    load_wav,
    synth_echo_path,
    synth_far_end,
)
from .filters import RtgaParams, limit_cost, rtga_cost
# bench/spans.py times the engine's per-run coefficient by this name
from .filters import gradient_coefficient as gradient
from .metrics import (
    LearningCurve,
    erle_db,
    predicted_op_counts,
    tail_mean_db,
    to_db,
)
from .noise import NoiseSpec, case_spec, sample_mixture_split
from .reuse import ReuseConfig, schedule
from .signal_model import delay_line_matrix, synthesize_eiv_arrays
from .theory import TheoryInputs, steady_state_msd

# Calibrated squared norm of the randomly drawn true weight vectors.
TRUE_WEIGHT_NORM2 = 1.44

# Step size for the theory-vs-simulation comparison (no published value;
# chosen inside the predicted stability bound for every shipped setting).
THEORY_MU = 0.05

# GGD shape attributed to the normalized optimal error per output family.
# The optimal error is output noise minus the input-noise projection, so
# even for laplace output the convolution with the gaussian projection is
# gaussian-like near zero, where the negative-order moments concentrate.
THEORY_ALPHA = {"gaussian": 2.0, "laplace": 2.0}

_STREAM_KEYS = ("u_base", "u_mask", "u_amp", "v_base", "v_mask", "v_amp")

_MEMORY_BUDGET = 2.8e8  # bytes of synthesis arrays per run batch


def run_streams(base_seed: int, r: int):
    """Random generators for trial r: (system, source, noise streams).

    The per-run seed tree is part of the output contract: trial r roots at
    SeedSequence(base_seed + r), splits into a system stream (true weights)
    and a data stream, and the data stream splits into the source plus six
    noise substreams.
    """
    ss = np.random.SeedSequence(base_seed + r)
    system_ss, data_ss = ss.spawn(2)
    kids = data_ss.spawn(1 + len(_STREAM_KEYS))
    return (
        np.random.default_rng(system_ss),
        np.random.default_rng(kids[0]),
        dict(zip(_STREAM_KEYS, map(np.random.default_rng, kids[1:]))),
    )


def draw_true_weights(system_rng, order: int, norm2: float | None = None):
    """Random direction scaled to the calibrated squared norm."""
    if norm2 is None:
        norm2 = TRUE_WEIGHT_NORM2
    w = system_rng.standard_normal(order)
    nrm = np.linalg.norm(w)
    if nrm == 0:
        raise ArithmeticError("degenerate zero draw for the true weights")
    return w * (math.sqrt(norm2) / nrm)


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
        if not np.isfinite(e).all():
            raise ArithmeticError("non-finite error fed to scale tracker")
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
    """Serves current and past samples from fully materialized arrays."""

    def __init__(self, x_tilde: np.ndarray, d_tilde: np.ndarray):
        self.x = x_tilde
        self.d = d_tilde

    def step(self, i: int):
        return self.x[:, i, :], self.d[:, i]

    def past(self, idx: int):
        return self.x[:, idx, :], self.d[:, idx]


class StreamProvider:
    """Streams a long shared-scene run without materializing history.

    The clean regressors and echo are shared across runs; per-run input
    noise is drawn in fixed-size time chunks from each run's dedicated
    streams (chunked draws reproduce the one-shot sequence because every
    mixture component owns its own generator). Past samples live in a ring
    sized by the reuse window.
    """

    _CHUNK = 1024

    def __init__(
        self,
        x_clean: np.ndarray,
        d_clean: np.ndarray,
        in_spec: NoiseSpec,
        out_spec: NoiseSpec,
        stream_list: list[dict],
        capacity: int,
    ):
        self.x_clean = x_clean
        self.d_clean = d_clean
        self.in_spec = in_spec
        self.out_spec = out_spec
        self.streams = stream_list
        runs = len(stream_list)
        order = x_clean.shape[-1]
        self.cap = max(2, capacity)
        self.ring_x = np.zeros((runs, self.cap, order))
        self.ring_d = np.zeros((runs, self.cap))
        self._block = -1
        self._latest = -1
        self._u = None
        self._v = None

    def _load_block(self, blk: int) -> None:
        order = self.x_clean.shape[-1]
        u_rows = []
        v_rows = []
        for s in self.streams:
            u_rows.append(
                sample_mixture_split(
                    self.in_spec, s["u_base"], s["u_mask"], s["u_amp"],
                    (self._CHUNK, order),
                )
            )
            v_rows.append(
                sample_mixture_split(
                    self.out_spec, s["v_base"], s["v_mask"], s["v_amp"], self._CHUNK
                )
            )
        self._u = np.stack(u_rows)
        self._v = np.stack(v_rows)
        self._block = blk

    def step(self, i: int):
        blk, off = divmod(i, self._CHUNK)
        if blk != self._block:
            self._load_block(blk)
        x = self.x_clean[i][None, :] + self._u[:, off, :]
        d = self.d_clean[i] + self._v[:, off]
        slot = i % self.cap
        self.ring_x[:, slot, :] = x
        self.ring_d[:, slot] = d
        self._latest = i
        return self.ring_x[:, slot, :], self.ring_d[:, slot]

    def past(self, idx: int):
        if idx > self._latest or idx <= self._latest - self.cap:
            raise LookupError(
                f"history gap: index {idx} outside the stored ring "
                f"(latest {self._latest}, capacity {self.cap})"
            )
        slot = idx % self.cap
        return self.ring_x[:, slot, :], self.ring_d[:, slot]


@dataclass
class EngineResult:
    """Raw per-batch engine output (run axis preserved)."""

    ratio: np.ndarray
    censored: np.ndarray
    errors: np.ndarray | None
    weights: np.ndarray
    main_steps: int
    main_updates: int
    reuse_steps: int
    reuse_updates: int


def run_engine(
    provider,
    n: int,
    params: RtgaParams,
    family: str | None,
    censor: CensorConfig,
    reuse_cfg: ReuseConfig,
    segments: list[tuple[int, int, np.ndarray]],
    keep_errors: bool = False,
    run_offset: int = 0,
) -> EngineResult:
    """Run all trials of one batch in lockstep for n iterations.

    segments is the piecewise-constant truth [(start, end, (runs, L))]
    covering [0, n). Updates begin once the delay line is full (i >= L);
    earlier iterations only record the zero-weight deviation. Per
    iteration: scheduled reuse updates (each individually censored), then
    the gated main update, then the scale update on the main error.
    """
    L = segments[0][2].shape[1]
    runs = segments[0][2].shape[0]
    W = np.zeros((runs, L))
    tracker = _ScaleTracker(runs, censor) if censor.active else None
    kappa = censor.kappa if censor.active else 0.0
    ratio = np.empty((runs, n))
    cen_mask = np.zeros((runs, n), dtype=bool)
    errors = np.empty((runs, n)) if keep_errors else None
    mu, phi = params.mu, params.phi
    main_steps = reuse_steps = reuse_censored = 0
    # Per-run scalars of one update: the two step coefficients, n2 and e^2.
    # Rows of one array, so one finiteness check covers all four.
    scalars = np.empty((4, runs))
    step_x, step_w, n2, e2 = scalars

    def update(W: np.ndarray, x: np.ndarray, d: np.ndarray, thr, i: int):
        """Gated step of every run on (x, d); W is updated in place.

        With k the per-run gradient coefficient the step is
        W <- W (1 + mu k e^2/n2) + (mu k e) x; a censored run (|e| < thr)
        takes a zero step. Returns the error and the censored mask (None
        when ungated).
        """
        e = d - np.einsum("rl,rl->r", W, x)
        np.add(np.einsum("rl,rl->r", W, W), phi, out=n2)
        np.multiply(e, e, out=e2)
        k = mu * gradient(e, n2, params, family)
        np.multiply(k, e, out=step_x)
        np.multiply(np.divide(e2, n2, out=step_w), k, out=step_w)
        if not np.isfinite(scalars).all():
            bad = np.nonzero(~np.isfinite(scalars).all(axis=0))[0] + run_offset
            raise ArithmeticError(
                f"non-finite gradient at iteration {i} in run(s) {bad.tolist()}; "
                f"the step size is likely beyond the stable range (mu={mu})"
            )
        cen = None
        if thr is not None:
            cen = np.abs(e) < thr
            np.copyto(scalars[:2], 0.0, where=cen)
        W *= (step_w + 1.0)[:, None]
        W += step_x[:, None] * x
        return e, cen

    seg_idx = 0
    seg_start, seg_end, seg_w = segments[0]
    seg_den = np.sum(seg_w * seg_w, axis=1)

    for i in range(n):
        x_i, d_i = provider.step(i)
        if i >= L:
            gated = censor.active and tracker.ready
            thr = kappa * tracker.sigma if gated else None
            for idx in schedule(reuse_cfg, i, L):
                x_r, d_r = provider.past(idx)
                _, cen = update(W, x_r, d_r, thr, i)
                reuse_steps += runs
                if gated:
                    reuse_censored += int(np.count_nonzero(cen))
            e, cen = update(W, x_i, d_i, thr, i)
            main_steps += runs
            if gated:
                cen_mask[:, i] = cen
            if censor.active:
                tracker.update(e)
        else:
            e = d_i - np.einsum("rl,rl->r", W, x_i)
        if keep_errors:
            errors[:, i] = e
        while i >= seg_end:
            seg_idx += 1
            seg_start, seg_end, seg_w = segments[seg_idx]
            seg_den = np.sum(seg_w * seg_w, axis=1)
        dev = W - seg_w
        ratio[:, i] = np.einsum("rl,rl->r", dev, dev) / seg_den
    return EngineResult(
        ratio=ratio,
        censored=cen_mask,
        errors=errors,
        weights=W,
        main_steps=main_steps,
        main_updates=main_steps - int(np.count_nonzero(cen_mask)),
        reuse_steps=reuse_steps,
        reuse_updates=reuse_steps - reuse_censored,
    )


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


def _batch_size(runs: int, n: int, order: int) -> int:
    per_run = n * (order * 16 + 48)
    return max(1, min(runs, int(_MEMORY_BUDGET // per_run)))


def _aggregate(cfg: ExperimentConfig, results: list[EngineResult], n: int) -> ExperimentResult:
    ratio_sum = np.zeros(n)
    runs = 0
    cen_all = cen_steady = 0
    counts = dict(main_steps=0, main_updates=0, reuse_steps=0, reuse_updates=0)
    steady_start = max(n // 2, cfg.order)
    for r in results:
        ratio_sum += r.ratio.sum(axis=0)
        runs += r.ratio.shape[0]
        cen_all += int(r.censored.sum())
        cen_steady += int(r.censored[:, steady_start:].sum())
        counts["main_steps"] += r.main_steps
        counts["main_updates"] += r.main_updates
        counts["reuse_steps"] += r.reuse_steps
        counts["reuse_updates"] += r.reuse_updates
    mean_ratio = ratio_sum / runs
    curve = LearningCurve(to_db(mean_ratio), runs=runs)
    params, _ = cfg.resolved_params()
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
        out.censor_overall = cen_all / counts["main_steps"]
        out.censor_steady = cen_steady / (runs * (n - steady_start))
    if counts["reuse_steps"]:
        out.reuse_censor = 1.0 - counts["reuse_updates"] / counts["reuse_steps"]
    return out


def _sysid_engine(cfg: ExperimentConfig,
                  shifts: list[tuple[int, int]] | None = None) -> list[EngineResult]:
    """Batched delay-line experiment (sysid and tracking)."""
    params, family = cfg.resolved_params()
    in_spec, out_spec = case_spec(cfg.case_id)
    n, L = cfg.n_samples, cfg.order
    batch = _batch_size(cfg.mc_runs, n, L)
    results = []
    for lo in range(0, cfg.mc_runs, batch):
        hi = min(lo + batch, cfg.mc_runs)
        B = hi - lo
        xt = np.empty((B, n, L))
        dt = np.empty((B, n))
        WO = np.empty((B, L))
        v_store = np.empty((B, n)) if shifts else None
        x_store = [] if shifts else None
        for j, r in enumerate(range(lo, hi)):
            system_rng, source_rng, streams = run_streams(cfg.base_seed, r)
            wo = draw_true_weights(system_rng, L)
            src = source_rng.standard_normal(n)
            x, x_tilde, d, d_tilde = synthesize_eiv_arrays(
                wo, src, in_spec, out_spec, streams
            )
            xt[j] = x_tilde
            dt[j] = d_tilde
            WO[j] = wo
            if shifts:
                v_store[j] = d_tilde - d
                x_store.append(x)
        if shifts:
            segments = []
            w_cur = WO
            start = 0
            for t, amount in [*shifts, (n, 0)]:
                if t > start:
                    segments.append((start, t, w_cur))
                if t >= n:
                    break
                shifted = np.zeros_like(w_cur)
                if amount < L:
                    shifted[:, amount:] = w_cur[:, : L - amount] if amount else w_cur
                w_cur = shifted
                start = t
            for j in range(B):
                d = np.empty(n)
                for s, e, w_seg in segments:
                    d[s:e] = x_store[j][s:e] @ w_seg[j]
                dt[j] = d + v_store[j]
        else:
            segments = [(0, n, WO)]
        provider = ArrayProvider(xt, dt)
        results.append(
            run_engine(
                provider, n, params, family, cfg.censoring, cfg.reuse,
                segments, run_offset=lo,
            )
        )
    return results


def run_sysid(cfg: ExperimentConfig) -> ExperimentResult:
    """Stationary system identification under the configured case."""
    cfg.validate()
    return _aggregate(cfg, _sysid_engine(cfg), cfg.n_samples)


def run_tracking(cfg: ExperimentConfig) -> ExperimentResult:
    """System identification with a mid-run right shift of the truth."""
    cfg.validate()
    shifts = [(cfg.shift_time, cfg.shift_amount)] if cfg.shift_amount else []
    return _aggregate(cfg, _sysid_engine(cfg, shifts=shifts), cfg.n_samples)


def load_aec_assets(cfg: ExperimentConfig) -> tuple[AecAssets, list[str]]:
    """Resolve configured assets; synthetic substitutions are labeled."""
    notes = []
    if cfg.aec.far_end == "synthetic":
        far = synth_far_end(cfg.n_samples)
        notes.append("far end: synthetic AR(1) process (pole 0.9), peak-normalized")
    else:
        clip = load_wav(cfg.aec.far_end)
        if clip.samples.size < cfg.n_samples:
            raise ValueError(
                f"far-end audio has {clip.samples.size} samples; "
                f"{cfg.n_samples} requested"
            )
        far = clip.samples[: cfg.n_samples]
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
    if cfg.order != ECHO_PATH_LEN:
        raise ValueError(
            f"aec mode identifies a {ECHO_PATH_LEN}-tap path; set order = {ECHO_PATH_LEN}"
        )
    if assets is None:
        assets, notes = load_aec_assets(cfg)
    far = assets.far_end[: cfg.n_samples]
    if far.size < cfg.n_samples:
        raise ValueError(
            f"far-end audio has {far.size} samples; {cfg.n_samples} requested"
        )
    if np.abs(far).max() == 0:
        warnings.warn("far-end audio is silent; results are degenerate")
    n, L = cfg.n_samples, cfg.order
    echo = assets.echo_path
    d_clean = np.convolve(far, echo)[:n]
    x_clean = delay_line_matrix(far, L)
    if noise is None:
        in_spec, out_spec = case_spec(cfg.case_id)
        p_x = float(np.mean(far**2))
        p_d = float(np.mean(d_clean**2))
        in_spec = replace(
            in_spec,
            variance=in_spec.variance * p_x,
            impulse_variance=in_spec.impulse_variance * p_x,
        )
        out_spec = replace(
            out_spec,
            variance=out_spec.variance * p_d,
            impulse_variance=out_spec.impulse_variance * p_d,
        )
        notes.append(
            f"case noises scaled by scene power: input x{p_x:.4g}, output x{p_d:.4g}"
        )
    else:
        in_spec, out_spec = noise
    if in_spec.variance > 0 and out_spec.variance > 0:
        phi = out_spec.variance / in_spec.variance
    else:
        phi = 1.0  # neutral normalization when a side is noiseless
    params, family = cfg.algorithm.resolve(cfg.case_id, phi)
    if cfg.reuse.active and cfg.reuse.window_cap is None:
        raise ValueError("aec mode streams its history; reuse needs reuse.window set")
    cap = (cfg.reuse.window_cap + 1) if cfg.reuse.active else 2
    stream_list = []
    for r in range(cfg.mc_runs):
        _, _, streams = run_streams(cfg.base_seed, r)
        stream_list.append(streams)
    provider = StreamProvider(x_clean, d_clean, in_spec, out_spec, stream_list, cap)
    WO = np.broadcast_to(echo, (cfg.mc_runs, L))
    res = run_engine(
        provider, n, params, family, cfg.censoring, cfg.reuse,
        [(0, n, WO)], keep_errors=True,
    )
    out = _aggregate(cfg, [res], n)
    out.mode = "aec"
    out.erle = erle_db(d_clean, res.errors)
    out.csv_columns = {"nmsd_db": out.curve.values_db, "erle_db": out.erle.values_db}
    out.notes.extend(notes)
    return out


def theory_params(cfg: ExperimentConfig) -> RtgaParams:
    """Cost parameters for theory mode with comparison defaults filled in."""
    alg = cfg.algorithm
    return RtgaParams(
        a=alg.a if alg.a is not None else -100.0,
        b=alg.b if alg.b is not None else 2.0,
        c=alg.c if alg.c is not None else 0.1,
        mu=alg.mu if alg.mu is not None else THEORY_MU,
        phi=1.0,
    )


def run_theory_compare(cfg: ExperimentConfig) -> ExperimentResult:
    """Steady-state MSD: closed-form prediction next to simulation.

    Each configured variance is evaluated with equal input and output
    noise power (the input side is always Gaussian; the output side
    follows theory.output_family). The simulated value is the tail
    average of a fixed-truth run with a unit-norm truth vector, so the
    normalized deviation coincides with the MSD.
    """
    cfg.validate()
    params = theory_params(cfg)
    L = cfg.order
    w_o = np.ones(L) / math.sqrt(L)
    alpha = cfg.theory.alpha
    if alpha is None:
        alpha = THEORY_ALPHA[cfg.theory.output_family]
    rows = []
    for s2 in cfg.theory.variances:
        t = TheoryInputs(
            R=np.eye(L),
            w_o=w_o,
            sigma_i2=s2,
            sigma_o2=s2,
            alpha=alpha,
            params=params,
            p_t=1.0 - cfg.censoring.p_ce,
        )
        theory_db = float(to_db(steady_state_msd(t, params.mu)))
        sim_cfg = ExperimentConfig(
            mode="sysid",
            case_id=cfg.case_id,
            order=L,
            n_samples=cfg.n_samples,
            mc_runs=cfg.mc_runs,
            base_seed=cfg.base_seed,
            algorithm=cfg.algorithm,
            censoring=cfg.censoring,
            reuse=cfg.reuse,
        )
        noise = (
            NoiseSpec("gaussian", s2),
            NoiseSpec(
                "laplace" if cfg.theory.output_family == "laplace" else "gaussian", s2
            ),
        )
        sim_results = _theory_sim(sim_cfg, params, w_o, noise)
        ratio_sum = np.zeros(cfg.n_samples)
        runs = 0
        for r in sim_results:
            ratio_sum += r.ratio.sum(axis=0)
            runs += r.ratio.shape[0]
        sim_db = tail_mean_db(ratio_sum / runs)
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


def _theory_sim(cfg: ExperimentConfig, params: RtgaParams, w_o: np.ndarray,
                noise: tuple[NoiseSpec, NoiseSpec]) -> list[EngineResult]:
    """Fixed-truth simulation batches for the theory comparison."""
    n, L = cfg.n_samples, cfg.order
    batch = _batch_size(cfg.mc_runs, n, L)
    results = []
    for lo in range(0, cfg.mc_runs, batch):
        hi = min(lo + batch, cfg.mc_runs)
        B = hi - lo
        xt = np.empty((B, n, L))
        dt = np.empty((B, n))
        for j, r in enumerate(range(lo, hi)):
            _, source_rng, streams = run_streams(cfg.base_seed, r)
            src = source_rng.standard_normal(n)
            _, x_tilde, _, d_tilde = synthesize_eiv_arrays(
                w_o, src, noise[0], noise[1], streams
            )
            xt[j] = x_tilde
            dt[j] = d_tilde
        WO = np.broadcast_to(w_o, (B, L))
        provider = ArrayProvider(xt, dt)
        results.append(
            run_engine(
                provider, n, params, None, cfg.censoring, cfg.reuse,
                [(0, n, WO)], run_offset=lo,
            )
        )
    return results


# Fixed truth for the two-tap cost-surface grid.
SWEEP_TRUTH = np.array([-0.6, 0.8])


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte-Carlo mean cost over a two-tap weight grid."""
    cfg.validate()
    params, family = cfg.resolved_params(require_mu=False)
    in_spec, out_spec = case_spec(cfg.case_id)
    n = cfg.sweep.draws
    _, source_rng, streams = run_streams(cfg.base_seed, 0)
    src = source_rng.standard_normal(n)
    _, x_tilde, _, d_tilde = synthesize_eiv_arrays(
        SWEEP_TRUTH, src, in_spec, out_spec, streams
    )
    axis = np.linspace(cfg.sweep.grid_min, cfg.sweep.grid_max, cfg.sweep.points)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    Wg = np.column_stack([g1.ravel(), g2.ravel()])
    e = d_tilde[None, :] - Wg @ x_tilde.T
    if family is None:
        cost = rtga_cost(e, Wg[:, None, :], params)
    else:
        cost = limit_cost(e, Wg[:, None, :], family, params)
    mean_cost = np.asarray(cost).mean(axis=1)
    return ExperimentResult(
        mode="sweep",
        csv_columns={"w1": Wg[:, 0], "w2": Wg[:, 1], "mean_cost": mean_cost},
        notes=[
            f"grid {cfg.sweep.points}x{cfg.sweep.points} over "
            f"[{cfg.sweep.grid_min:g}, {cfg.sweep.grid_max:g}]^2, "
            f"{n} draws per point, truth {SWEEP_TRUTH.tolist()}"
        ],
    )
