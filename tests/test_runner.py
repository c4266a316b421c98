"""Experiment runner: engine semantics, seed layout, and the mode drivers."""

import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtga import producer, runner, signal_model
from rtga.censoring import CensorConfig, ScaleState, censor_decision, update_scale
from rtga.config import AlgorithmConfig, ConfigError, ExperimentConfig, TheoryConfig
from rtga.dataio import AecAssets, synth_echo_path
from rtga.filters import RtgaParams, gradient
from rtga.metrics import iterations_to_level
from rtga.noise import NoiseSpec, case_spec, sample_mixture_split, unit_scale
from rtga.reuse import ReuseConfig, schedule
from rtga.runner import (
    DIVERGENCE_FACTOR,
    SWEEP_TRUTH,
    ArrayProvider,
    RunSums,
    StreamProvider,
    _ScaleTracker,
    draw_true_weights,
    load_aec_assets,
    run_aec,
    run_engine,
    run_streams,
    run_sweep,
    run_sysid,
    run_theory_compare,
    run_tracking,
)
from rtga.signal_model import clean_output, delay_line_matrix, synthesize_eiv_arrays

from fills import assert_reaped, drawn_trials, fill_pids, record_fills
from keep_all import KeepAll, run_kept

NO_CENSOR = CensorConfig(p_ce=0.0)
NO_REUSE = ReuseConfig(scheme="none")


def _synth_run(seed, run, wo_order, n, in_spec, out_spec):
    system_rng, source_rng, (u_rngs, v_rngs) = run_streams(seed, run, (in_spec, out_spec))
    wo = draw_true_weights(system_rng, wo_order)
    x = delay_line_matrix(source_rng.standard_normal(n), wo_order)
    u = sample_mixture_split(in_spec, *u_rngs, x.shape)
    v = sample_mixture_split(out_spec, *v_rngs, n)
    _, x_tilde, _, d_tilde = synthesize_eiv_arrays(wo, x, u, v)
    return wo, x_tilde, d_tilde


def _per_sample_run(x_tilde, d_tilde, wo, params, censor, reuse):
    """One run through a per-sample loop on filters.gradient.

    Contract order per iteration: scheduled reuse steps, each censored on
    its own error, then the gated main step, then the scale update.
    """
    n, L = x_tilde.shape
    w = np.zeros(L)
    scale = ScaleState()
    den = float(wo @ wo)
    ratio = np.empty(n)
    cen_mask = np.zeros(n, dtype=bool)
    counts = dict(main_updates=0, reuse_steps=0, reuse_updates=0)

    def step(w, idx):
        e = float(d_tilde[idx]) - float(w @ x_tilde[idx])
        censored = (
            censor.active
            and scale.ready
            and censor_decision(e, censor.kappa, scale.sigma_e)
        )
        if not censored:
            w = w - params.mu * gradient(e, x_tilde[idx], w, params)
        return w, e, censored

    for i in range(n):
        if i >= L:
            for idx in schedule(reuse, i, L):
                w, _, censored = step(w, idx)
                counts["reuse_steps"] += 1
                counts["reuse_updates"] += not censored
            w, e, censored = step(w, i)
            cen_mask[i] = censored
            counts["main_updates"] += not censored
            scale = update_scale(scale, e, censor)
        dev = w - wo
        ratio[i] = float(dev @ dev) / den
    return w, ratio, cen_mask, counts


class TestEngineEquivalence:
    """run_engine must be an exact vectorization of the contract operations."""

    def test_matches_scalar_update_sequence(self):
        n, L = 300, 5
        in_spec = NoiseSpec("gaussian", 0.1)
        out_spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=10.0)
        wo, x_tilde, d_tilde = _synth_run(17, 0, L, n, in_spec, out_spec)
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0)
        censor = CensorConfig(p_ce=0.5, estimator="robust_median")
        reuse = ReuseConfig(scheme="idr", l_reused=2)

        res, kept = run_kept(
            ArrayProvider(x_tilde[None], d_tilde[None]), params,
            censor, reuse, [(0, n, wo[None])],
        )

        w, ratio, cen_mask, counts = _per_sample_run(
            x_tilde, d_tilde, wo, params, censor, reuse
        )

        assert np.allclose(res.weights[0], w, rtol=0.0, atol=1e-13)
        assert np.allclose(kept.ratio[0], ratio, rtol=0.0, atol=1e-13)
        assert np.array_equal(kept.censored[0], cen_mask)
        assert res.main_steps == n - L
        assert res.main_updates == counts["main_updates"]
        assert res.reuse_steps == counts["reuse_steps"]
        assert res.reuse_updates == counts["reuse_updates"]

    @pytest.mark.parametrize(
        "params",
        [
            # b < 2, case-3 shape
            RtgaParams(a=-100.0, b=1.5, c=0.1, mu=0.155),
            # b > 2, case-4 shape
            RtgaParams(a=-1000.0, b=8.0, c=0.6, mu=0.025),
            RtgaParams(b=4.0, c=1.0, mu=0.01, family="tlmp"),
            RtgaParams(b=2.0, c=1.0, mu=0.01, family="ltls"),
            RtgaParams(b=1.56, c=1.0, mu=0.05, family="exp"),
        ],
        ids=["b1.5-guard", "b8", "tlmp-b4", "ltls-b2", "exp-b1.56"],
    )
    def test_specialised_branches_match_per_sample_loop(self, params):
        n, L, runs = 300, 5, 3
        in_spec = NoiseSpec("gaussian", 0.1)
        out_spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=10.0)
        synth = [_synth_run(29, r, L, n, in_spec, out_spec) for r in range(runs)]
        WO = np.stack([s[0] for s in synth])
        X = np.stack([s[1] for s in synth])
        D = np.stack([s[2] for s in synth])
        # zero-error samples before the tracker is ready, where no gate
        # hides them: e = 0 exactly, so b < 2 must take the guard path
        X[1, [L + 1, L + 3]] = 0.0
        D[1, [L + 1, L + 3]] = 0.0
        censor = CensorConfig(p_ce=0.5, estimator="robust_median")
        reuse = ReuseConfig(scheme="idr", l_reused=2)

        res, kept = run_kept(
            ArrayProvider(X, D), params, censor, reuse, [(0, n, WO)],
        )

        main_updates = reuse_steps = reuse_updates = 0
        for r in range(runs):
            w, ratio, cen_mask, counts = _per_sample_run(
                X[r], D[r], WO[r], params, censor, reuse
            )
            assert np.allclose(res.weights[r], w, rtol=0.0, atol=1e-13)
            assert np.allclose(kept.ratio[r], ratio, rtol=0.0, atol=1e-13)
            assert np.array_equal(kept.censored[r], cen_mask)
            main_updates += counts["main_updates"]
            reuse_steps += counts["reuse_steps"]
            reuse_updates += counts["reuse_updates"]
        assert res.main_steps == runs * (n - L)
        assert res.main_updates == main_updates
        assert res.reuse_steps == reuse_steps
        assert res.reuse_updates == reuse_updates
        assert 0 < reuse_updates < reuse_steps

    @pytest.mark.parametrize(
        "reuse",
        [
            ReuseConfig(scheme="idr", l_reused=3),
            ReuseConfig(scheme="idr", l_reused=3, window_cap=20),
            ReuseConfig(scheme="dr", l_reused=2),
            ReuseConfig(scheme="undr", l_reused=3),
        ],
        ids=["idr", "idr-window", "dr", "undr"],
    )
    def test_reuse_schemes_match_per_sample_loop_across_blocks(self, monkeypatch, reuse):
        # Blocks of 64 columns end four times within the pass, so every
        # reuse scheme's censored updates are counted across block ends.
        monkeypatch.setattr(runner, "_BLOCK", 64)
        n, L, runs = 300, 5, 3
        in_spec = NoiseSpec("gaussian", 0.1)
        out_spec = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=10.0)
        synth = [_synth_run(31, r, L, n, in_spec, out_spec) for r in range(runs)]
        WO, X, D = (np.stack(a) for a in zip(*synth))
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01)
        censor = CensorConfig(p_ce=0.5)

        res, kept = run_kept(ArrayProvider(X, D), params, censor, reuse, [(0, n, WO)])

        totals = dict(main_updates=0, reuse_steps=0, reuse_updates=0)
        for r in range(runs):
            w, ratio, cen_mask, counts = _per_sample_run(
                X[r], D[r], WO[r], params, censor, reuse
            )
            assert np.allclose(res.weights[r], w, rtol=0.0, atol=1e-13)
            assert np.allclose(kept.ratio[r], ratio, rtol=0.0, atol=1e-13)
            assert np.array_equal(kept.censored[r], cen_mask)
            for key in totals:
                totals[key] += counts[key]
        assert res.main_steps == runs * (n - L)
        assert res.main_updates == totals["main_updates"]
        assert res.reuse_steps == totals["reuse_steps"]
        assert res.reuse_updates == totals["reuse_updates"]
        assert 0 < res.reuse_updates < res.reuse_steps

    @pytest.mark.parametrize("shape", [(150, 9), (600, 9), (10, 512)])
    def test_bound_einsum_is_numpy_einsum(self, shape):
        # The engine calls einsum's C entry without np.einsum's dispatch;
        # the two must give the same bits, into a new array or into out.
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, *shape))
        want = np.einsum("rl,rl->r", a, b)
        out = np.empty(shape[0])
        assert runner._einsum("rl,rl->r", a, b).tobytes() == want.tobytes()
        assert runner._einsum("rl,rl->r", a, b, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_divergence_error_names_runs(self):
        n, L = 200, 4
        spec = NoiseSpec("gaussian", 0.1)
        wo, x_tilde, d_tilde = _synth_run(3, 0, L, n, spec, spec)
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=1e300, phi=1.0)
        with pytest.raises(ArithmeticError, match=r"run\(s\) \[0\].*mu=1e\+300"):
            run_kept(
                ArrayProvider(x_tilde[None], d_tilde[None]), params,
                NO_CENSOR, NO_REUSE, [(0, n, wo[None])],
            )

    def test_divergence_named_among_several_runs(self):
        n, L = 400, 4
        spec = NoiseSpec("gaussian", 0.1)
        synth = [_synth_run(23, r, L, n, spec, spec) for r in range(3)]
        WO = np.stack([s[0] for s in synth])
        X = np.stack([s[1] for s in synth])
        D = np.stack([s[2] for s in synth])
        # a > b: the cost grows faster than quadratically in the error, so
        # a run whose data are 1e3 times larger overflows at this step size
        params = RtgaParams(a=100.0, b=2.0, c=0.5, mu=0.01, phi=1.0)
        censor = CensorConfig(p_ce=0.5)
        reuse = ReuseConfig(scheme="idr", l_reused=2)
        args = (params, censor, reuse, [(0, n, WO)])
        _, calm = run_kept(ArrayProvider(X, D), *args)
        assert np.all(calm.ratio[:, -1] < 0.05)

        X[1] *= 1e3
        D[1] *= 1e3
        with pytest.raises(ArithmeticError, match=r"at iteration \d+ in run\(s\) \[1\];"):
            run_kept(ArrayProvider(X, D), *args)

    def test_finite_divergence_named_among_several_runs(self):
        # The n2 = phi + |w|^2 normalization keeps this blown-up run finite
        # (it ends near a ratio of 7e10), so only the deviation names it.
        n, L = 300, 4
        spec = NoiseSpec("gaussian", 0.1)
        synth = [_synth_run(23, r, L, n, spec, spec) for r in range(3)]
        WO = np.stack([s[0] for s in synth])
        X = np.stack([s[1] for s in synth])
        D = np.stack([s[2] for s in synth])
        params = RtgaParams(b=2.0, c=1.0, mu=0.05, phi=1.0, family="tlmp")
        reuse = ReuseConfig(scheme="idr", l_reused=2)
        args = (params, NO_CENSOR, reuse, [(0, n, WO)])
        _, calm = run_kept(ArrayProvider(X, D), *args)
        assert np.all(calm.ratio[:, -1] < 0.05)

        X[1] *= 1e3
        D[1] *= 1e3
        with pytest.raises(
            ArithmeticError, match=r"^divergence at iteration \d+ in run\(s\) \[1\];"
        ):
            run_kept(ArrayProvider(X, D), *args)

    def test_divergence_fails_fast(self, monkeypatch):
        # The finite blow-up above, from sample 100 of a stream of ten
        # 30-sample blocks: the engine raises at the end of the block in
        # which run 1 first crosses the limit, naming the iteration that
        # the whole curve names.
        monkeypatch.setattr(runner, "_BLOCK", 30)
        n, L = 300, 4
        spec = NoiseSpec("gaussian", 0.1)
        synth = [_synth_run(23, r, L, n, spec, spec) for r in range(3)]
        WO = np.stack([s[0] for s in synth])
        X = np.stack([s[1] for s in synth])
        D = np.stack([s[2] for s in synth])
        X[1, 100:] *= 1e3
        D[1, 100:] *= 1e3
        params = RtgaParams(b=2.0, c=1.0, mu=0.05, phi=1.0, family="tlmp")
        reuse = ReuseConfig(scheme="idr", l_reused=2)
        _, ratio, _, _ = _per_sample_run(X[1], D[1], WO[1], params, NO_CENSOR, reuse)
        den = WO[1] @ WO[1]
        over = ratio > DIVERGENCE_FACTOR * den / den
        first = int(np.argmax(over))
        assert over[first] and 90 <= first < 120

        class Recording(ArrayProvider):
            latest = -1

            def step(self, i):
                self.latest = i
                return super().step(i)

        provider = Recording(X, D)
        with pytest.raises(
            ArithmeticError, match=rf"^divergence at iteration {first} in run\(s\) \[1\];"
        ):
            run_kept(provider, params, NO_CENSOR, reuse, [(0, n, WO)])
        assert provider.latest == (first // 30 + 1) * 30 - 1 < n - 1

    @pytest.mark.parametrize(
        "params, censor",
        [
            # a > b overflows the gradient; the finite blow-up of the test above
            (RtgaParams(a=100.0, b=2.0, c=0.5, mu=0.01), CensorConfig(p_ce=0.5)),
            (RtgaParams(b=2.0, c=1.0, mu=0.05, family="tlmp"), NO_CENSOR),
        ],
        ids=["non-finite", "finite"],
    )
    def test_merged_divergence_named_by_group(self, params, censor):
        # Two groups of 3 runs share one pass, in trial-major rows (row
        # 2 k + g is run k of group g), and only run 1 of the second blows
        # up: the merged pass names it by its group's label and its index
        # in the group, at the iteration its own pass names.
        n, L = 300, 4
        spec = NoiseSpec("gaussian", 0.1)
        synth = [_synth_run(23, r, L, n, spec, spec) for r in range(3)]
        WO = np.stack([s[0] for s in synth])
        X = np.stack([s[1] for s in synth])
        D = np.stack([s[2] for s in synth])
        wild_X, wild_D = X.copy(), D.copy()
        wild_X[1] *= 1e3
        wild_D[1] *= 1e3
        args = (params, censor, ReuseConfig(scheme="idr", l_reused=2))
        with pytest.raises(ArithmeticError, match=r" in run\(s\) \[1\];") as alone:
            run_kept(ArrayProvider(wild_X, wild_D), *args, [(0, n, WO)])
        first = re.search(r"at iteration (\d+) in", str(alone.value)).group(1)
        merged = ArrayProvider(
            np.stack([X, wild_X], axis=1).reshape(6, n, L),
            np.stack([D, wild_D], axis=1).reshape(6, n),
        )
        with pytest.raises(
            ArithmeticError, match=rf"at iteration {first} in wild run\(s\) \[1\];"
        ):
            run_kept(merged, *args, [(0, n, np.repeat(WO, 2, axis=0))], ("calm", "wild"))

    def test_nan_sample_named_by_group(self):
        # A NaN in one run's x~ mid-block makes that run's W NaN in the same
        # update, and so its ratio, which no bound comparison passes: the
        # block-end check names the run and the sample, and the block with
        # the NaN never reaches the sink.
        n, L = 600, 4
        spec = NoiseSpec("gaussian", 0.1)
        synth = [_synth_run(23, r, L, n, spec, spec) for r in range(3)]
        # two groups of the same 3 runs, in trial-major rows: row 2 k + g
        WO = np.repeat(np.stack([s[0] for s in synth]), 2, axis=0)
        X = np.repeat(np.stack([s[1] for s in synth]), 2, axis=0)
        D = np.repeat(np.stack([s[2] for s in synth]), 2, axis=0)
        X[3, 300, 2] = np.nan  # run 1 of the second group
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0)
        kept = KeepAll()
        groups = ("calm", "wild")
        with pytest.raises(
            ArithmeticError,
            match=r"^divergence at iteration 300 in wild run\(s\) \[1\]; "
            r"\|W - w_o\|\^2 is non-finite or exceeds",
        ):
            run_engine(
                ArrayProvider(X, D), params, CensorConfig(p_ce=0.5),
                ReuseConfig(scheme="idr", l_reused=2), [(0, n, WO)],
                runner._checked(kept, [(0, n, WO)], params.mu, groups), groups,
            )
        assert kept.n == 256 and np.isfinite(kept.ratio).all()

    def test_noiseless_limit_filter_converges_monotonically(self):
        n, L = 800, 4
        zero = NoiseSpec("gaussian", 0.0)
        wo, x_tilde, d_tilde = _synth_run(11, 0, L, n, zero, zero)
        params = RtgaParams(b=2.0, c=1.0, mu=0.05, phi=1.0, family="tlmp")
        _, kept = run_kept(
            ArrayProvider(x_tilde[None], d_tilde[None]), params,
            NO_CENSOR, NO_REUSE, [(0, n, wo[None])],
        )
        curve = kept.ratio[0]
        upticks = np.diff(curve[L:])
        assert np.all(upticks <= 1e-12)
        assert curve[-1] < 1e-3 * curve[L]

    def test_identifies_dominant_first_tap(self):
        n, L = 3000, 8
        rng = np.random.default_rng(2)
        src = rng.standard_normal(n)
        wo = np.zeros(L)
        wo[0] = 1.0
        x = delay_line_matrix(src, L)
        noise = 0.1 * rng.standard_normal((2, n))
        x_tilde = x + 0.1 * rng.standard_normal((n, L))
        d_tilde = x @ wo + noise[0]
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.05, phi=1.0)
        res, _ = run_kept(
            ArrayProvider(x_tilde[None], d_tilde[None]), params,
            NO_CENSOR, NO_REUSE, [(0, n, wo[None])],
        )
        w = res.weights[0]
        assert abs(w[0] - 1.0) < 0.15
        assert np.all(np.abs(w[1:]) < 0.15)


class TestEngineBlocks:
    """Block-wise engine output and the experiments' reduction of it."""

    @pytest.mark.parametrize(
        "block, widths", [(16, [16, 8, 16, 1]), (1, [1] * 41)], ids=["16", "1"]
    )
    def test_run_sums_add_in_mean_order(self, monkeypatch, block, widths):
        # 12 runs; at width 16 the truth shifts inside the second block and
        # the last block is one column wide. A one-column block is where a
        # sum over the run axis leaves the order of mean(axis=0) (numpy
        # sums a contiguous axis pairwise), so width 1 has only those. The
        # run sums must equal the kept curves' means exactly, both as one
        # group of 12 runs and as a merged input of 3 groups of 4 runs.
        monkeypatch.setattr(runner, "_BLOCK", block)
        n, L, runs, shift = 41, 4, 12, 24
        groups = 3
        rng = np.random.default_rng(8)
        X = rng.standard_normal((runs, n, L))
        D = rng.standard_normal((runs, n))
        WO = rng.standard_normal((runs, L))
        segments = [(0, shift, WO), (shift, n, np.roll(WO, 1, axis=1))]
        kept, sums, plain = KeepAll(), RunSums(1, runs, n, errors=True), RunSums(1, runs, n)
        merged = RunSums(groups, runs // groups, n, errors=True)

        def both(*out):
            kept(*out)
            sums(*out)
            plain(*out)
            merged(*out)

        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.05, phi=1.0)
        censor = CensorConfig(p_ce=0.5)
        reuse = ReuseConfig(scheme="idr", l_reused=2)
        run_engine(ArrayProvider(X, D), params, censor, reuse, segments, both)

        assert [b[0].shape[1] for b in kept.blocks] == widths
        assert np.array_equal(sums.ratio[0] / runs, kept.ratio.mean(axis=0))
        e = kept.errors
        assert np.array_equal(sums.e2[0] / runs, (e * e).mean(axis=0))
        assert np.array_equal(sums.censored[0], kept.censored.sum(axis=0))
        assert sums.censored[0, -1] > 0
        # without errors the sink keeps no e^2 sums and the same ratio sums
        assert plain.e2 is None
        assert np.array_equal(plain.ratio, sums.ratio)
        # in trial-major rows, group g of the merged input is rows g, g + 3, ...
        for g in range(groups):
            rows = np.arange(g, runs, groups)
            assert np.array_equal(merged.ratio[g] / merged.runs, kept.ratio[rows].mean(axis=0))
            e = kept.errors[rows]
            assert np.array_equal(merged.e2[g] / merged.runs, (e * e).mean(axis=0))
            assert np.array_equal(merged.censored[g], kept.censored[rows].sum(axis=0))

    def test_merged_pass_divides_the_block_width(self, monkeypatch):
        # A pass of G groups fills _BLOCK // G columns (at least one), so
        # its buffers hold what one group's pass holds.
        monkeypatch.setattr(runner, "_BLOCK", 16)
        n, L, runs = 30, 3, 6
        rng = np.random.default_rng(9)
        provider = ArrayProvider(
            rng.standard_normal((runs, n, L)), rng.standard_normal((runs, n))
        )
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.05, phi=1.0)
        segments = [(0, n, rng.standard_normal((runs, L)))]
        for groups, widths in (((), [16, 14]), (("a", "b", "c"), [5] * 6), (("a",) * 6, [2] * 15)):
            kept = KeepAll()
            run_engine(provider, params, NO_CENSOR, NO_REUSE, segments, kept, groups)
            assert [b[0].shape[1] for b in kept.blocks] == widths

    def test_memory_flat_in_stream_length(self, monkeypatch):
        # The engine holds one block of per-run output whatever n is.
        block, runs, L = 64, 8, 4
        monkeypatch.setattr(runner, "_BLOCK", block)
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=0.01, phi=1.0)
        censor = CensorConfig(p_ce=0.5)
        reuse = ReuseConfig(scheme="idr", l_reused=2)
        peaks = []
        for n in (4 * block, 16 * block):
            rng = np.random.default_rng(n)
            provider = ArrayProvider(
                rng.standard_normal((runs, n, L)), rng.standard_normal((runs, n))
            )
            segments = [(0, n, rng.standard_normal((runs, L)))]
            tracemalloc.start()
            try:
                run_engine(provider, params, censor, reuse, segments, lambda *b: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_block = runs * block * (8 + 1 + 8)  # ratio, censor mask, error
        assert peaks[1] - peaks[0] < one_block


class TestScaleTracker:
    @pytest.mark.parametrize("estimator", ["robust_median", "conventional"])
    @pytest.mark.parametrize("window", range(7, 16))
    def test_matches_per_run_update_scale(self, window, estimator):
        runs, steps = 4, 60
        rng = np.random.default_rng(window)
        errors = rng.standard_normal((steps, runs)) * rng.uniform(0.1, 3.0, runs)
        errors[rng.random((steps, runs)) < 0.05] *= 50.0  # impulses
        for tau in (0.5, 0.99, 1.0):
            cfg = CensorConfig(p_ce=0.5, window=window, tau=tau, estimator=estimator)
            tracker = _ScaleTracker(runs, cfg)
            if tau == 1.0:
                # the tracker's 0-d (1 - tau) operands are exactly 0, so past
                # the warm-up no new error moves sigma
                assert tracker._rest == 0.0 and tracker._mad_rest == 0.0
            states = [ScaleState() for _ in range(runs)]
            for e in errors:
                tracker.update(e)
                states = [update_scale(s, float(v), cfg) for s, v in zip(states, e)]
                assert [s.ready for s in states] == [tracker.ready] * runs
                assert tracker.sigma.tolist() == [s.sigma_e for s in states]
            assert tracker.ready

    def test_update_allocates_no_ring_copy(self):
        # The median partitions a copy of the ring made with the tracker, so
        # 100 updates at (150, 9) allocate no (runs, window) array.
        runs, window = 150, 9
        tracker = _ScaleTracker(runs, CensorConfig(p_ce=0.5, window=window))
        errors = np.random.default_rng(0).standard_normal((window + 100, runs))
        for e in errors[:window]:
            tracker.update(e)
        assert tracker.ready
        tracemalloc.start()
        try:
            for e in errors[window:]:
                tracker.update(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < runs * window * 8


class TestReuse:
    def test_idr_reuse_converges_like_scaled_step(self):
        # l uncensored reuse steps per sample make l + 1 updates at step mu,
        # so the transient should run like a single update at (l + 1) * mu.
        # A reuse pass that lost part of its step would cross -25 dB later.
        common = dict(mode="sysid", case_id=1, order=9, n_samples=3000, mc_runs=30)
        mu = AlgorithmConfig(name="proposed").resolve(1, phi=1.0).mu
        reused = run_sysid(ExperimentConfig(
            algorithm=AlgorithmConfig(name="proposed"),
            reuse=ReuseConfig(scheme="idr", l_reused=3), **common,
        ))
        scaled = run_sysid(ExperimentConfig(
            algorithm=AlgorithmConfig(name="proposed", mu=4 * mu), **common,
        ))
        it_reused = iterations_to_level(reused.curve, -25.0)
        it_scaled = iterations_to_level(scaled.curve, -25.0)
        assert it_scaled > 0
        assert abs(it_reused / it_scaled - 1.0) <= 0.1


class TestSeedLayout:
    def test_runs_combine_like_shifted_base_seeds(self):
        common = dict(mode="sysid", case_id=1, order=9, n_samples=1200)
        two = run_sysid(ExperimentConfig(mc_runs=2, base_seed=5, **common))
        one_a = run_sysid(ExperimentConfig(mc_runs=1, base_seed=5, **common))
        one_b = run_sysid(ExperimentConfig(mc_runs=1, base_seed=6, **common))
        lin_a = 10.0 ** (one_a.curve.values_db / 10.0)
        lin_b = 10.0 ** (one_b.curve.values_db / 10.0)
        expect = 10.0 * np.log10((lin_a + lin_b) / 2.0)
        assert np.allclose(two.curve.values_db, expect, atol=1e-9)

    def test_curve_starts_at_zero_db(self):
        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=600, mc_runs=2)
        res = run_sysid(cfg)
        assert res.curve.values_db.shape == (600,)
        assert np.all(res.curve.values_db[:9] == 0.0)

    def test_chunk_size_is_transparent(self, monkeypatch):
        # Provider chunks and engine blocks of 1 and 37 samples cut across
        # the delay line, the reuse window and the shift, in every mode the
        # one driver serves. With 100-sample chunks AEC's 40-sample window
        # makes a 140-row ring, so the chunk from sample 100 wraps past the
        # ring's end into row 0.
        common = dict(order=9, n_samples=500, mc_runs=3)
        proposed = dict(
            algorithm=AlgorithmConfig(name="proposed"),
            censoring=CensorConfig(p_ce=0.5),
        )
        far = np.random.default_rng(4).uniform(-0.9, 0.9, 1200)
        assets = AecAssets(far_end=far, echo_path=synth_echo_path())
        cases = [
            (run_sysid, ExperimentConfig(mode="sysid", **common)),
            (run_tracking, ExperimentConfig(
                mode="tracking", shift_time=250, shift_amount=2,
                reuse=ReuseConfig(scheme="idr", l_reused=2), **proposed, **common,
            )),
            (_theory_rows, ExperimentConfig(
                mode="theory", theory=TheoryConfig(variances=(0.1,)), **common,
            )),
            # two variances in one pass: chunk 2 and block 1 hit their floors
            (_theory_rows, ExperimentConfig(
                mode="theory", theory=TheoryConfig(variances=(0.1, 0.02)),
                reuse=ReuseConfig(scheme="idr", l_reused=2), **proposed, **common,
            )),
            (lambda cfg: run_aec(cfg, assets), ExperimentConfig(
                mode="aec", order=512, n_samples=1200, mc_runs=2,
                reuse=ReuseConfig(scheme="idr", l_reused=2, window_cap=40), **proposed,
            )),
        ]
        whole = [run(cfg) for run, cfg in cases]
        for chunk, block in ((1, 37), (37, 1), (100, 64)):
            monkeypatch.setattr(StreamProvider, "_CHUNK", chunk)
            monkeypatch.setattr(runner, "_BLOCK", block)
            for (run, cfg), ref in zip(cases, whole):
                split = run(cfg)
                if cfg.mode == "theory":
                    assert split == ref
                else:
                    assert np.allclose(ref.curve.values_db, split.curve.values_db, atol=1e-10)
                    assert ref.counts == split.counts
                if cfg.mode == "aec":
                    assert np.allclose(ref.erle.values_db, split.erle.values_db, atol=1e-10)


class TestStreamProvider:
    """The provider behind every mode; its history is tested in test_reuse."""

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5])
    def test_chunked_steps_match_one_shot_draws(self, case_id):
        # 2600 samples cross two 1024-sample chunk boundaries, with per-run
        # sources drawn from the source streams and with one shared source
        n, L, runs, seed = 2600, 4, 2, 13
        in_spec, out_spec = case_spec(case_id)
        rng = np.random.default_rng(case_id)
        shared = rng.standard_normal(n)
        truths = rng.standard_normal((runs, L))
        # a shared source and truth (as in AEC) come with their clean output
        one_truth = np.repeat(truths[:1], runs, axis=0)
        x_shared = delay_line_matrix(shared, L)
        echo = clean_output(x_shared, truths[0])
        for source, WO, stream in ((None, truths, None), (shared, one_truth, (x_shared, echo))):
            provider = StreamProvider(
                [(0, n, WO)], [(in_spec, out_spec)],
                [run_streams(seed, r, (in_spec, out_spec))[1:] for r in range(runs)],
                capacity=2, shared=stream,
            )
            x, u, d, v = [], [], [], []
            for r in range(runs):
                _, source_rng, (u_rngs, v_rngs) = run_streams(seed, r, (in_spec, out_spec))
                src = source_rng.standard_normal(n) if source is None else source
                x.append(delay_line_matrix(src, L))
                u.append(sample_mixture_split(in_spec, *u_rngs, (n, L)))
                v.append(sample_mixture_split(out_spec, *v_rngs, n))
                d.append(clean_output(x[-1], WO[r]))
            x_tilde = np.stack(x) + np.stack(u)
            d_tilde = np.stack(d) + np.stack(v)
            with provider:
                for i in range(n):
                    x_i, d_i = provider.step(i)
                    np.testing.assert_array_equal(x_i, x_tilde[:, i])
                    np.testing.assert_array_equal(d_i, d_tilde[:, i])

    def test_shared_clean_output_is_not_recomputed(self, monkeypatch):
        # With one source and one truth for every run, the caller hands the
        # provider their clean output and the provider computes none.
        calls = []

        def counting(x, w_o):
            out = clean_output(x, w_o)
            calls.append(out.size)
            return out

        monkeypatch.setattr(signal_model, "clean_output", counting)
        n, L, runs = 2600, 4, 3
        rng = np.random.default_rng(2)
        WO = np.repeat(rng.standard_normal((1, L)), runs, axis=0)
        x = delay_line_matrix(rng.standard_normal(n), L)
        clean = clean_output(x, WO[0])
        zero = NoiseSpec("gaussian", 0.0)
        with StreamProvider(
            [(0, n, WO)], [(zero, zero)],
            [run_streams(0, r, (zero, zero))[1:] for r in range(runs)], capacity=1,
            shared=(x, clean),
        ) as provider:
            for i in range(n):
                provider.step(i)
        assert sum(calls) == 0

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    @pytest.mark.parametrize("forked", [False, True])
    @pytest.mark.parametrize(
        ("order", "chunk"), [(4, 1), (4, 37), (4, 64), (512, 1024)],
        ids=["1", "37", "64", "long"],
    )
    def test_groups_serve_one_group_rows(self, monkeypatch, family, forked, order, chunk):
        # Three groups scale each trial's draws: group g's rows, served by
        # step and past, equal those of a provider of g's pair alone. The
        # idr window keeps 27 samples, so every ring wraps within the 300
        # samples: at order 4 it has at most 27 + 64 rows; at order 512 a
        # trial's 514 values a sample fit 127 samples into the scratch, so
        # the chunk is two such spans, not 1024 // 3 samples, the ring has
        # 27 + 254 rows and every piece, forked or inline, is one span.
        monkeypatch.setattr(StreamProvider, "_FORKED", 1 if forked else sys.maxsize)
        monkeypatch.setattr(StreamProvider, "_CHUNK", chunk)
        cfg = ExperimentConfig(
            mode="sysid", order=order, n_samples=300, mc_runs=3, base_seed=5,
            reuse=ReuseConfig(scheme="idr", l_reused=2, window_cap=40),
        )
        pairs = [(NoiseSpec("gaussian", s2), NoiseSpec(family, s2)) for s2 in (0.01, 0.3, 2.0)]
        grouped = runner._trial_provider(cfg, pairs)
        alone = [runner._trial_provider(cfg, [pair]) for pair in pairs]
        assert grouped.rows < cfg.n_samples
        assert grouped.forks == forked
        span = StreamProvider._SCRATCH // 8 // (order + 2)
        assert max(b - a for a, b, _ in grouped.pieces) <= span
        if order == 512:
            assert grouped.chunk == 2 * (StreamProvider._SCRATCH // 8 // 514) < chunk // 3
        runs = cfg.mc_runs
        with grouped, alone[0], alone[1], alone[2]:
            for (_, _, w), (_, _, w_alone) in zip(grouped.segments, alone[0].segments):
                np.testing.assert_array_equal(w, np.repeat(w_alone, 3, axis=0))
            for i in range(cfg.n_samples):
                oldest = max(0, i - grouped.cap + 1)
                rows = [grouped.step(i), grouped.past(oldest)]
                for g, provider in enumerate(alone):
                    cols = slice(g, 3 * runs, 3)  # trial-major: run k of group g is 3 k + g
                    for (x, d), (x_g, d_g) in zip(rows, (provider.step(i), provider.past(oldest))):
                        np.testing.assert_array_equal(x[cols], x_g)
                        np.testing.assert_array_equal(d[cols], d_g)

    def test_long_filter_chunk_is_two_scratch_spans(self):
        # An aec-stream-shaped pass (512 taps, a shared source, 10 runs, idr
        # 3 with window 200) draws 513 values per trial and sample, so its
        # fill draws at most a span of _SCRATCH // 8 // 513 = 127 samples
        # at a time, and its chunk is two spans: a 404-row ring, not 1174.
        # Order-9 passes, whose spans are longer than 1024 samples, keep
        # chunks of 1024 // G samples with one group and with three.
        n, L = 4000, 512
        cfg = ExperimentConfig(
            mode="aec", order=L, n_samples=n, mc_runs=10,
            algorithm=AlgorithmConfig(name="proposed"), censoring=CensorConfig(p_ce=0.3),
            reuse=ReuseConfig(scheme="idr", l_reused=3, window_cap=200),
        )
        x = delay_line_matrix(np.random.default_rng(0).uniform(-0.9, 0.9, n), L)
        echo = synth_echo_path()
        with runner._trial_provider(cfg, [case_spec(1)], echo, (x, x @ echo)) as provider:
            span = StreamProvider._SCRATCH // 8 // 513
            assert provider.rows == provider.cap - 1 + 2 * span == 404
        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=3000, mc_runs=2)
        pairs = [(NoiseSpec("gaussian", s2), NoiseSpec("gaussian", s2)) for s2 in (0.01, 0.05, 0.1)]
        for groups in (1, 3):
            with runner._trial_provider(cfg, pairs[:groups]) as provider:
                assert provider.chunk == 1024 // groups

    @pytest.mark.parametrize("other", [
        (NoiseSpec("gaussian", 0.1), NoiseSpec("laplace", 0.1)),
        (NoiseSpec("gaussian", 0.2), NoiseSpec("gaussian", 0.2, impulse_prob=0.01,
                                                impulse_variance=100.0)),
        (NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 1.0)),
    ])
    def test_groups_that_share_trials_need_one_unit_pair(self, other):
        cfg = ExperimentConfig(mode="sysid", order=4, n_samples=50, mc_runs=2)
        pairs = [(NoiseSpec("gaussian", 0.1), NoiseSpec("gaussian", 0.1)), other]
        with pytest.raises(ValueError, match="scale one unit pair") as info:
            runner._trial_provider(cfg, pairs)
        for spec in (*pairs[0], *other):
            assert str(spec) in str(info.value)


def _scaled_pairs(pair, groups):
    """groups pairs that scale pair's unit pair: each side that factors
    (noise.unit_scale) takes a per-group variance, the others stay."""
    factors = (1.0, 0.3, 2.0)[:groups]
    return [
        tuple(replace(s, variance=s.variance * f) if unit_scale(s)[0] != s else s for s in pair)
        for f in factors
    ]


@settings(max_examples=30, deadline=None)
@given(
    case_id=st.integers(1, 5),
    groups=st.sampled_from([1, 3]),
    shared=st.booleans(),
    span=st.integers(1, 70),
    batch=st.integers(1, 3),
    data=st.data(),
)
def test_cursor_writes_do_not_depend_on_the_split(case_id, groups, shared, span, batch, data):
    # Trial cursors over any split of the trials, writing consecutive
    # pieces of at most a span of [0, n), give the rows of one one-trial-
    # batch cursor that writes [0, n) at once, as the sweep does.
    n, L, trials, seed = 150, 4, 3, 7
    pairs = _scaled_pairs(case_spec(case_id), groups)
    rng = np.random.default_rng(case_id)
    truths = rng.standard_normal((trials, L))
    source = None
    if shared:
        truths[:] = truths[0]
        x = delay_line_matrix(rng.standard_normal(n), L)
        source = (x, clean_output(x, truths[0]))

    def cursor(span, batch, cut=slice(None)):
        streams = [run_streams(seed, r, pairs[0])[1:] for r in range(trials)]
        return runner._TrialCursor(pairs, streams[cut], L, span, batch, source)

    def rows():
        return [(np.empty((trials, n, L)), np.empty((trials, n))) for _ in pairs]

    whole = rows()
    cursor(n, 1).write(0, n, truths, whole)
    split = rows()
    cut = data.draw(st.integers(0, trials), label="trial cut")
    for part in (slice(0, cut), slice(cut, trials)):
        if part.start == part.stop:
            continue
        piecewise = cursor(span, batch, part)
        a = 0
        while a < n:
            b = a + data.draw(st.integers(1, min(span, n - a)), label="piece")
            piecewise.write(a, b, truths[part], [(x[part, a:b], d[part, a:b]) for x, d in split])
            a = b
    for (x, d), (x_split, d_split) in zip(whole, split):
        np.testing.assert_array_equal(x_split, x)
        np.testing.assert_array_equal(d_split, d)


def _theory_rows(cfg):
    """A theory comparison's table rows, or, with reuse, which theory mode
    rejects, each group's ratio sums and censored counts from the pass."""
    if not cfg.reuse.active:
        return run_theory_compare(cfg).table
    L = cfg.order
    labels = [f"variance {s2:g}" for s2 in cfg.theory.variances]
    sums = RunSums(len(labels), cfg.mc_runs, cfg.n_samples)
    runner._run_pass(
        cfg, cfg.resolved_params(), cfg.noise_pairs(), sums, np.ones(L) / np.sqrt(L),
        labels=labels,
    )
    return [(ratio.tolist(), counts.tolist()) for ratio, counts in zip(sums.ratio, sums.censored)]


def _shard(monkeypatch, cpus):
    """Let a pass without reuse split into shards, one per CPU on cpus of
    them and at most one per trial, whatever its rows."""
    monkeypatch.setattr(runner, "_cpus", lambda: cpus)
    monkeypatch.setattr(StreamProvider, "_SHARDED", 0)


def _kept(cfg, noise=None, w_o=None, labels=()):
    """The engine result and the KeepAll sink of a pass of cfg's case, or
    of the given (input, output) pairs, run as the experiments run it."""
    kept = KeepAll()
    res = runner._run_pass(
        cfg, cfg.resolved_params(), noise or [case_spec(cfg.case_id)], kept, w_o, labels=labels
    )
    return res, kept


def _kept_rows(cfg, noise=None):
    """Each run's ratio row and the update counts of a sysid or tracking
    pass, of cfg's case or of the given (input, output) pairs."""
    res, kept = _kept(cfg, noise)
    counts = (res.main_steps, res.main_updates, res.reuse_steps, res.reuse_updates)
    return kept.ratio, counts


def _counting_forks(monkeypatch, most=None):
    """The list that gets one entry per os.fork; a fork past most raises
    in place of starting a process."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(None)
        if most is not None and len(forks) > most:
            raise OSError(f"fork {len(forks)} of a pass that needs {most}")
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


class TestProducer:
    """The forked producer and shards do their share, and they end with their pass."""

    @pytest.mark.parametrize("ending", ["normal", "divergence", "fault"])
    def test_pass_leaves_no_producer_behind(self, monkeypatch, tmp_path, ending):
        # A pass with reuse and its one producer, then a pass without reuse
        # in three shards, all three forked. Divergence comes from noise
        # of variance 1e6 on both sides, at iteration 9 while the children
        # wait; the fault hits the third fill of the process whose cursor
        # draws trial 2: the producer, or the last shard. The pass's own
        # process makes no cursor write either way.
        _shard(monkeypatch, 3)
        params = RtgaParams(b=2.0, c=1.0, mu=0.05, phi=1.0, family="tlmp")
        spec = NoiseSpec("gaussian", 1e6 if ending == "divergence" else 0.1)
        for l_reused, children in ((2, 1), (0, 3)):
            cfg = ExperimentConfig(
                mode="sysid", order=9, n_samples=3000, mc_runs=3,
                reuse=ReuseConfig(scheme="idr", l_reused=l_reused),
            )
            log = tmp_path / f"fills{l_reused}"
            with pytest.MonkeyPatch.context() as mp:
                record_fills(mp, log, fault_at=3 if ending == "fault" else None, trial=2)
                forks = _counting_forks(mp)
                before = threading.active_count()
                sums = RunSums(1, cfg.mc_runs, cfg.n_samples)
                run = lambda: runner._run_pass(cfg, params, [(spec, spec)], sums)  # noqa: E731
                if ending == "normal":
                    run()
                else:
                    error = ArithmeticError if ending == "divergence" else MemoryError
                    with pytest.raises(error):
                        run()
            assert threading.active_count() == before
            assert len(forks) == children
            pids = fill_pids(log)
            assert os.getpid() not in pids
            assert len(pids) == children
            assert_reaped(pids)

    @pytest.mark.parametrize(
        ("cpus", "runs", "l_reused", "groups", "want"),
        [
            (2, 3, 0, 1, 2),
            (64, 3, 2, 1, 1),
            (2, 3, 0, 2, 2),
            (1, 3, 0, 1, 0),
            (1, 3, 2, 1, 0),
            (64, 1, 0, 1, 1),
            (64, 2, 0, 1, 1),
            (64, 3, 0, 1, 3),
        ],
        ids=[
            "fill_heavy", "engine_heavy", "two_groups", "one_cpu", "one_cpu_reuse",
            "one_trial", "few_rows", "one_per_trial",
        ],
    )
    def test_forks_are_bounded(self, monkeypatch, cpus, runs, l_reused, groups, want):
        # With shards from 3 rows on, a pass without reuse, of one group or
        # two, splits into one shard per CPU, at most one per trial, and
        # forks every shard. A pass with reuse, or with fewer rows,
        # forks one producer; so does a one-trial pass, one shard. One CPU
        # forks nothing, and no pass forks a process per CPU or per trial.
        # A fork past the count raises in place of starting a process.
        forks = _counting_forks(monkeypatch, want)
        monkeypatch.setattr(runner, "_cpus", lambda: cpus)
        monkeypatch.setattr(StreamProvider, "_FORKED", 0)
        monkeypatch.setattr(StreamProvider, "_SHARDED", 3)
        cfg = ExperimentConfig(
            mode="sysid", order=4, n_samples=600, mc_runs=runs, case_id=2,
            reuse=ReuseConfig(scheme="idr", l_reused=l_reused),
        )
        pairs = [(NoiseSpec("gaussian", s2),) * 2 for s2 in (0.1, 0.2)]
        _kept(cfg, pairs if groups == 2 else None, labels=("a", "b") if groups == 2 else ())
        assert len(forks) == want

    @settings(max_examples=12, deadline=None)
    @given(
        mode=st.sampled_from(["sysid", "tracking"]),
        chunk=st.integers(1, 1100),
        runs=st.integers(1, 3),
        more=st.integers(1, 3),
        l_reused=st.integers(1, 3),
        window=st.integers(5, 300),
    )
    def test_rows_invariant_to_chunk_and_run_count(
        self, mode, chunk, runs, more, l_reused, window
    ):
        # Through the forked producer, each run's ratio row and the
        # counts do not depend on the chunk size, and run r's row does not
        # depend on how many runs share its pass.
        cfg = ExperimentConfig(
            mode=mode, order=4, n_samples=800, mc_runs=runs, case_id=2,
            base_seed=chunk, shift_time=400, shift_amount=1,
            algorithm=AlgorithmConfig(name="proposed"), censoring=CensorConfig(p_ce=0.3),
            reuse=ReuseConfig(scheme="idr", l_reused=l_reused, window_cap=window),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreamProvider, "_FORKED", 0)
            rows, counts = _kept_rows(cfg)
            wide, _ = _kept_rows(replace(cfg, mc_runs=runs + more))
            mp.setattr(StreamProvider, "_CHUNK", chunk)
            chunked, chunked_counts = _kept_rows(cfg)
        assert np.array_equal(chunked, rows)
        assert chunked_counts == counts
        assert np.array_equal(wide[:runs], rows)

    @settings(max_examples=10, deadline=None)
    @given(
        mode=st.sampled_from(["sysid", "tracking"]),
        runs=st.integers(1, 5),
        cpus=st.integers(0, 3),
        chunk=st.integers(16, 600),
    )
    @example(mode="sysid", runs=2, cpus=3, chunk=64)
    @example(mode="tracking", runs=5, cpus=1, chunk=100)
    @example(mode="tracking", runs=3, cpus=0, chunk=100)
    def test_rows_invariant_to_cpu_count(self, mode, runs, cpus, chunk):
        # A pass with reuse, above _FORKED, forks one producer on 2 or 3
        # CPUs and none on one, and each run's ratio row and the counts
        # equal those of the inline fill. No CPU count stands for a host
        # without os.fork: the pass fills inline, with the same rows.
        cfg = ExperimentConfig(
            mode=mode, order=4, n_samples=800, mc_runs=runs, case_id=2,
            base_seed=chunk, shift_time=400, shift_amount=1,
            algorithm=AlgorithmConfig(name="proposed"), censoring=CensorConfig(p_ce=0.3),
            reuse=ReuseConfig(scheme="idr", l_reused=2, window_cap=50),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreamProvider, "_CHUNK", chunk)
            inline, inline_counts = _kept_rows(cfg)
            mp.setattr(StreamProvider, "_FORKED", 0)
            if cpus:
                mp.setattr(runner, "_cpus", lambda: cpus)
                forks = _counting_forks(mp)
            else:
                forks = []
                mp.delattr(os, "fork")
            with runner._trial_provider(cfg, [case_spec(cfg.case_id)]) as provider:
                assert provider.forks == (cpus > 1)
            rows, counts = _kept_rows(cfg)
        assert len(forks) == (cpus > 1)
        assert np.array_equal(rows, inline)
        assert counts == inline_counts

    def test_rows_hold_under_fast_thread_switching(self, monkeypatch):
        # Four passes at once on four threads, each with its own producer,
        # with the interpreter switching threads every microsecond: a piece
        # filled too far ahead, or served before it is filled, changes a row.
        cfg = ExperimentConfig(
            mode="sysid", order=4, n_samples=600, mc_runs=2, case_id=2,
            algorithm=AlgorithmConfig(name="proposed"), censoring=CensorConfig(p_ce=0.3),
            reuse=ReuseConfig(scheme="idr", l_reused=2, window_cap=40),
        )
        monkeypatch.setattr(StreamProvider, "_CHUNK", 16)
        inline, _ = _kept_rows(cfg)
        monkeypatch.setattr(StreamProvider, "_FORKED", 0)
        results = {}

        def work(k):
            results[k] = _kept_rows(cfg)[0]

        passes = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in passes:
                t.start()
            for t in passes:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in passes)
        assert len(results) == 4
        for rows in results.values():
            assert np.array_equal(rows, inline)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert runner._cpus() == os.cpu_count()

    @staticmethod
    def _forked_provider(monkeypatch):
        monkeypatch.setattr(StreamProvider, "_FORKED", 0)
        cfg = ExperimentConfig(mode="sysid", order=4, n_samples=3000, mc_runs=2)
        return runner._trial_provider(cfg, [case_spec(1)])

    def test_step_after_close_raises(self, monkeypatch):
        # The producer has filled pieces ahead; an inline fill of the next
        # piece would draw the runs' generators a second time.
        provider = self._forked_provider(monkeypatch)
        provider.step(0)
        provider.close()
        with pytest.raises(RuntimeError, match="closed"):
            for i in range(3000):
                provider.step(i)

    def test_close_before_first_step_forks_nothing(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        before = threading.active_count()
        provider = self._forked_provider(monkeypatch)
        provider.close()
        with pytest.raises(RuntimeError, match="closed"):
            provider.step(0)
        assert threading.active_count() == before
        assert forks == []

    def test_answer_is_what_the_fill_returned(self):
        # Each answer carries its piece's fill result, None included.
        child = producer.Producer(lambda k: (k, np.arange(3.0) * k) if k else None)
        try:
            child.ask(3)
            answers = [child.answer() for _ in range(3)]
        finally:
            child.close()
        assert answers[0] is None
        for k, (piece, values) in enumerate(answers[1:], start=1):
            assert piece == k
            np.testing.assert_array_equal(values, np.arange(3.0) * k)
        assert_reaped([child.pid])

    def test_answer_raises_what_the_fill_raised(self):
        # The fill's exception crosses with its type and message, and the
        # child answers nothing after it.
        def fill(k):
            if k == 1:
                raise LookupError(f"piece {k} has no rows")
            return k

        child = producer.Producer(fill)
        try:
            child.ask(3)
            assert child.answer() == 0
            with pytest.raises(LookupError, match=r"^piece 1 has no rows$"):
                child.answer()
            with pytest.raises(ChildProcessError, match=r"without answering \(exit status 0\)"):
                child.answer()
        finally:
            child.close()
        assert_reaped([child.pid])

    def test_unpicklable_fault_exits_unanswered(self, tmp_path):
        # An exception that does not pickle, raised or returned by the
        # fill, cannot cross to the engine: the producer leaves through
        # os._exit(1) without answering, and the engine raises
        # ChildProcessError and reaps it. Had the producer returned into
        # this test instead, it would log its pid below.
        class LocalError(Exception):
            pass

        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=3000, mc_runs=3)
        log = tmp_path / "callers"
        for how in ("raised", "returned"):

            def failing(*args, **kwargs):
                error = LocalError("defined in a test, so pickle cannot name it")
                if how == "returned":
                    return error
                raise error

            with pytest.MonkeyPatch.context() as mp:
                if how == "returned":
                    mp.setattr(StreamProvider, "_fill", failing)
                else:
                    mp.setattr(runner, "synthesize_eiv_arrays", failing)
                try:
                    with runner._trial_provider(cfg, [case_spec(1)]) as provider:
                        assert provider.forks
                        with pytest.raises(
                            ChildProcessError, match=r"without answering \(exit status 1\)"
                        ) as info:
                            provider.step(0)
                finally:
                    with open(log, "a", encoding="utf-8") as fh:
                        fh.write(f"{os.getpid()}\n")
            assert fill_pids(log) == {os.getpid()}, how
            pid = int(re.search(r"pid (\d+)", str(info.value)).group(1))
            assert_reaped([pid])

    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_a_second_pass"])
    def test_killed_producer_raises_promptly(self, monkeypatch, beside):
        # SIGKILL the pass's own producer mid-stream: the engine's next wait
        # raises ChildProcessError instead of hanging. Beside it, a second
        # pass on another thread forks its producer after the first pass
        # made its pipes and before it forks, so that producer holds a copy
        # of the first one's answer pipe, which then reports no end of file.
        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=3000, mc_runs=3)
        first = runner._trial_provider(cfg, [case_spec(1)])
        assert first.forks
        forked, release, rows = threading.Event(), threading.Event(), []

        def second_pass():
            with runner._trial_provider(cfg, [case_spec(1)]) as second:
                second.step(0)
                forked.set()
                release.wait(60)
                rows.extend(second.step(i)[1].copy() for i in range(cfg.n_samples))

        other = threading.Thread(target=second_pass)
        fork = os.fork

        def second_forks_first():
            if not forked.is_set() and threading.current_thread() is not other:
                other.start()
                assert forked.wait(60)
            return fork()

        if beside:
            monkeypatch.setattr(os, "fork", second_forks_first)
        try:
            with first:
                for i in range(1500):
                    first.step(i)
                pid = first._producer.pid
                os.kill(pid, signal.SIGKILL)
                t0 = time.perf_counter()
                with pytest.raises(ChildProcessError, match=rf"pid {pid}\).*signal 9"):
                    for i in range(1500, cfg.n_samples):
                        first.step(i)
                assert time.perf_counter() - t0 < 10
        finally:
            release.set()
            if beside:
                other.join(120)
        assert_reaped([pid])
        if beside:
            assert not other.is_alive()
            with runner._trial_provider(cfg, [case_spec(1)]) as alone:
                want = [alone.step(i)[1].copy() for i in range(cfg.n_samples)]
            np.testing.assert_array_equal(rows, want)

    def test_killed_second_producer_raises_promptly(self, monkeypatch):
        # SIGKILL the second of three shards mid-pass: this process's next
        # wait on it raises ChildProcessError instead of hanging, and the
        # pass reaps all three forked shards.
        _shard(monkeypatch, 3)
        pids = []

        class Recording(producer.Producer):
            def __init__(self, fill):
                super().__init__(fill)
                pids.append(self.pid)

        monkeypatch.setattr(producer, "Producer", Recording)
        killed = []

        def sink(start, *block):
            if start >= 1500 and not killed:
                os.kill(pids[1], signal.SIGKILL)
                killed.append(time.perf_counter())

        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=3000, mc_runs=3)
        with pytest.raises(ChildProcessError, match=r"without answering \(killed by signal 9\)") as info:
            runner._run_pass(cfg, cfg.resolved_params(), [case_spec(1)], sink)
        assert time.perf_counter() - killed[0] < 10
        assert len(pids) == 3 and f"pid {pids[1]})" in str(info.value)
        assert_reaped(pids)


class TestShards:
    """A pass without reuse splits its trials into shards, one per CPU."""

    @staticmethod
    def _pass(mode, runs, p_ce):
        """cfg, noise pairs, truth and labels of a short pass of mode."""
        cfg = ExperimentConfig(
            mode=mode, order=4, n_samples=700, mc_runs=runs, case_id=2, base_seed=runs,
            shift_time=350, shift_amount=1, censoring=CensorConfig(p_ce=p_ce),
            theory=TheoryConfig(variances=(0.1, 0.02, 0.5)),
        )
        if mode != "theory":
            return cfg, [case_spec(cfg.case_id)], None, ()
        labels = [f"variance {s2:g}" for s2 in cfg.theory.variances]
        return cfg, cfg.noise_pairs(), np.ones(cfg.order) / 2.0, labels

    @settings(max_examples=20, deadline=None)
    @given(
        mode=st.sampled_from(["sysid", "tracking", "theory"]),
        cpus=st.integers(1, 3),
        runs=st.integers(1, 4),
        p_ce=st.sampled_from([0.0, 0.5]),
        block=st.sampled_from([16, 512]),
    )
    @example(mode="theory", cpus=3, runs=2, p_ce=0.5, block=16)
    @example(mode="tracking", cpus=3, runs=4, p_ce=0.5, block=16)
    def test_sharded_rows_equal_inline_rows(self, mode, cpus, runs, p_ce, block):
        # Split over 1 to 3 shards, fewer trials than shards among them,
        # every run's ratio row, censored mask and errors (so its e^2), the
        # update counts and the final weights equal the inline pass's
        # bitwise, and a pass of two or more shards forks every one of its
        # min(trials, CPUs) shards, where one shard forks nothing. Blocks
        # of 16 samples (5 with three groups) cross the shift at 350 and
        # cycle the block slots many times.
        cfg, noise, w_o, labels = self._pass(mode, runs, p_ce)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "_BLOCK", block)
            inline, kept = _kept(cfg, noise, w_o, labels)
            _shard(mp, cpus)
            forks = _counting_forks(mp)
            sharded, split = _kept(cfg, noise, w_o, labels)
        shards = min(runs, cpus)
        assert len(forks) == (shards if shards > 1 else 0)
        for name in ("ratio", "censored", "errors"):
            assert np.array_equal(getattr(split, name), getattr(kept, name)), name
        assert [b[0].shape[1] for b in split.blocks] == [b[0].shape[1] for b in kept.blocks]
        assert np.array_equal(sharded.weights, inline.weights)
        assert sharded.main_steps == inline.main_steps > 0
        assert sharded.main_updates == inline.main_updates
        assert (sharded.reuse_steps, sharded.reuse_updates) == (0, 0)
        if p_ce:
            assert kept.censored.any()

    def test_rows_hold_under_fast_thread_switching(self, monkeypatch):
        # Four passes at once on four threads, each in three forked shards,
        # so twelve children on the host's cores, with the interpreter
        # switching threads every microsecond and a block of 16 samples: a
        # slot written before its block was handed on, or handed on before
        # every shard wrote it, changes a row.
        cfg, noise, _, _ = self._pass("sysid", 3, 0.5)
        monkeypatch.setattr(runner, "_BLOCK", 16)
        _, inline = _kept(cfg, noise)
        _shard(monkeypatch, 3)
        results = {}

        def work(k):
            results[k] = _kept(cfg, noise)[1]

        passes = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in passes:
                t.start()
            for t in passes:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in passes)
        assert len(results) == 4
        for kept in results.values():
            for name in ("ratio", "censored", "errors"):
                assert np.array_equal(getattr(kept, name), getattr(inline, name)), name

    @pytest.mark.parametrize("mode", ["sysid", "theory"])
    def test_divergence_named_across_shards(self, monkeypatch, mode):
        # Trial 2's draws, 1e3 times larger, blow up its run in the last of
        # three shards (in every group of a merged pass, which share the
        # draws): the check names the run by its index in the whole pass,
        # and by its group's label, at the iteration the inline pass names.
        write = runner._TrialCursor.write

        def wild(self, start, end, w, outs):
            write(self, start, end, w, outs)
            for k, trial in enumerate(drawn_trials(self, base_seed=3)):
                if trial == 2:
                    for x, d in outs:
                        x[k] *= 1e3
                        d[k] *= 1e3

        monkeypatch.setattr(runner._TrialCursor, "write", wild)
        cfg, noise, w_o, labels = self._pass(mode, 3, 0.0)
        algorithm = AlgorithmConfig(name="rtga", a=100.0, b=2.0, c=0.5, mu=0.01)
        cfg = replace(cfg, case_id=1, algorithm=algorithm)
        noise = noise if labels else [case_spec(1)]
        with pytest.raises(ArithmeticError) as alone:
            _kept(cfg, noise, w_o, labels)
        message = str(alone.value)
        named = [f"{label} run(s) [2]" for label in labels] or ["run(s) [2]"]
        assert re.match(rf"divergence at iteration \d+ in {re.escape(', '.join(named))};", message)
        _shard(monkeypatch, 3)
        forks = _counting_forks(monkeypatch)
        with pytest.raises(ArithmeticError) as sharded:
            _kept(cfg, noise, w_o, labels)
        assert len(forks) == 3
        assert str(sharded.value) == message


class TestTracking:
    def test_zero_shift_matches_sysid(self):
        common = dict(case_id=1, order=9, n_samples=900, mc_runs=2, base_seed=3)
        sysid = run_sysid(ExperimentConfig(mode="sysid", **common))
        track = run_tracking(
            ExperimentConfig(mode="tracking", shift_time=450, shift_amount=0, **common)
        )
        assert np.array_equal(sysid.curve.values_db, track.curve.values_db)

    def test_shift_disrupts_then_recovers(self):
        cfg = ExperimentConfig(
            mode="tracking", case_id=1, order=9, n_samples=6000, mc_runs=10,
            shift_time=3000, shift_amount=3,
        )
        res = run_tracking(cfg)
        db = res.curve.values_db
        pre = db[2999]
        assert pre < -20.0
        assert db[3000] > pre + 10.0
        # the shifted truth drops taps, so the normalized floor sits a bit higher
        assert abs(db[-1] - pre) < 3.0

    def test_window_cap_speeds_recovery_after_shift(self):
        common = dict(
            mode="tracking", case_id=1, order=9, n_samples=4000, mc_runs=5,
            shift_time=2000, shift_amount=3,
            algorithm=AlgorithmConfig(name="proposed"),
            censoring=CensorConfig(p_ce=0.3),
        )
        capped = run_tracking(
            ExperimentConfig(reuse=ReuseConfig(scheme="idr", l_reused=3, window_cap=200), **common)
        )
        uncapped = run_tracking(
            ExperimentConfig(reuse=ReuseConfig(scheme="idr", l_reused=3), **common)
        )
        assert capped.curve.values_db[-1] < uncapped.curve.values_db[-1] - 1.0


class TestAec:
    def test_zero_noise_white_far_end_cancels_echo(self):
        n = 12000
        rng = np.random.default_rng(0)
        far = rng.uniform(-0.99, 0.99, size=n)
        assets = AecAssets(far_end=far, echo_path=synth_echo_path())
        cfg = ExperimentConfig(
            mode="aec", order=512, n_samples=n, mc_runs=1,
            algorithm=AlgorithmConfig(name="tlmp", b=2.0, c=1.0, mu=0.006),
        )
        zero = NoiseSpec("gaussian", 0.0)
        res = run_aec(cfg, assets=assets, noise=(zero, zero))
        assert res.erle.values_db[-1] > 40.0
        assert not any("scaled" in note for note in res.notes)

    def test_synthetic_assets_and_scene_scaling_notes(self):
        cfg = ExperimentConfig(
            mode="aec", order=512, n_samples=2000, mc_runs=1,
            algorithm=AlgorithmConfig(name="rtga", mu=0.01),
        )
        assets, notes = load_aec_assets(cfg)
        assert assets.far_end.size == 2000
        assert assets.echo_path.shape == (512,)
        assert abs(np.linalg.norm(assets.echo_path) - 1.0) < 1e-12
        assert "far end: synthetic AR(1) process (pole 0.9), peak-normalized" in notes
        assert "echo path: synthetic exponential-decay taps, unit norm" in notes

        res = run_aec(cfg)
        assert res.curve.values_db.shape == (2000,)
        assert res.erle.values_db.shape == (2000,)
        assert any(note.startswith("case noises scaled by scene power") for note in res.notes)

    def test_ggd_noise_is_refused(self):
        # A ggd draw takes a span's gamma magnitudes, then its signs, from
        # one generator, so its samples would depend on how the provider
        # splits the stream (and on whether the host can fork).
        far = np.random.default_rng(1).uniform(-0.9, 0.9, 600)
        assets = AecAssets(far_end=far, echo_path=synth_echo_path())
        cfg = ExperimentConfig(
            mode="aec", order=512, n_samples=600, mc_runs=2,
            algorithm=AlgorithmConfig(name="proposed", mu=0.05),
        )
        ggd = NoiseSpec("ggd", 1e-4, alpha=1.5)
        with pytest.raises(ValueError, match="ggd family .* depend on how the stream is split"):
            run_aec(cfg, assets, noise=(ggd, ggd))

    def test_short_far_end_rejected(self):
        far = np.full(100, 0.5)
        assets = AecAssets(far_end=far, echo_path=synth_echo_path())
        cfg = ExperimentConfig(
            mode="aec", order=512, n_samples=2000, mc_runs=1,
            algorithm=AlgorithmConfig(name="rtga", mu=0.01),
        )
        with pytest.raises(ValueError, match="far-end audio has 100 samples"):
            run_aec(cfg, assets=assets)

    def test_reuse_requires_window(self):
        cfg = ExperimentConfig(
            mode="aec", order=512, n_samples=600, mc_runs=1,
            algorithm=AlgorithmConfig(name="rtga", mu=0.01),
            reuse=ReuseConfig(scheme="idr", l_reused=3),
        )
        with pytest.raises(ValueError, match="reuse needs reuse.window"):
            run_aec(cfg)


class TestTheoryAndSweep:
    def test_smaller_step_lowers_theory_and_simulation(self):
        results = {}
        for mu in (0.05, 0.02):
            cfg = ExperimentConfig(
                mode="theory", order=9, n_samples=6000, mc_runs=30,
                algorithm=AlgorithmConfig(name="rtga", mu=mu),
                theory=TheoryConfig(variances=(0.1,)),
            )
            res = run_theory_compare(cfg)
            results[mu] = res.table[0]
        assert results[0.02]["theory_db"] < results[0.05]["theory_db"]
        assert results[0.02]["sim_db"] < results[0.05]["sim_db"]
        for row in results.values():
            assert abs(row["gap_db"]) < 2.0

    def test_theory_matches_simulation_under_censoring(self):
        # The gate keeps the large errors, so it thins the curvature and the
        # gradient noise alike and the first-order MSD does not move with
        # p_ce. Gaussian output at variance 0.1, then criterion 5's Laplace
        # setting.
        cases = [
            (AlgorithmConfig(name="rtga"), TheoryConfig(variances=(0.1,))),
            (AlgorithmConfig(name="rtga", a=-100.0, b=1.9, c=0.1),
             TheoryConfig(variances=(0.1,), output_family="laplace")),
        ]
        rows = []
        for p_ce in (0.3, 0.7):
            for algorithm, theory in cases:
                res = run_theory_compare(ExperimentConfig(
                    mode="theory", order=9, n_samples=20_000, mc_runs=100,
                    algorithm=algorithm, theory=theory,
                    censoring=CensorConfig(p_ce=p_ce),
                ))
                rows += [(p_ce, row) for row in res.table]
        print(", ".join(
            f"p_ce {p_ce} {row['label']}: gap {row['gap_db']:+.2f} dB" for p_ce, row in rows
        ))
        assert all(abs(row["gap_db"]) <= 1.0 for _, row in rows)

    @pytest.mark.parametrize(
        "family, p_ce, reuse",
        [
            ("gaussian", 0.0, ReuseConfig(scheme="none")),
            ("laplace", 0.0, ReuseConfig(scheme="none")),
            ("gaussian", 0.5, ReuseConfig(scheme="idr", l_reused=2)),
            ("laplace", 0.3, ReuseConfig(scheme="idr", l_reused=3, window_cap=50)),
        ],
        ids=["gaussian", "laplace", "gaussian-censor-idr", "laplace-censor-idr-window"],
    )
    def test_merged_variances_equal_separate_runs(self, monkeypatch, family, p_ce, reuse):
        # Every variance's trials run as one group of a single engine pass,
        # and each table row (with reuse, each group's sums) equals the row
        # of a one-variance run.
        variances = (0.1, 0.02, 0.5)
        common = dict(
            mode="theory", order=9, n_samples=700, mc_runs=4, base_seed=11,
            censoring=CensorConfig(p_ce=p_ce), reuse=reuse,
        )
        alone = [
            _theory_rows(ExperimentConfig(
                theory=TheoryConfig(variances=(s2,), output_family=family), **common
            ))[0]
            for s2 in variances
        ]
        passes = []

        def counting(*args):
            passes.append(args[0])
            return run_engine(*args)

        monkeypatch.setattr(runner, "run_engine", counting)
        merged = _theory_rows(ExperimentConfig(
            theory=TheoryConfig(variances=variances, output_family=family), **common
        ))
        assert len(passes) == 1
        assert merged == alone

    @settings(max_examples=25, deadline=None)
    @given(
        variances=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=3),
        runs=st.integers(1, 4),
        chunk=st.integers(1, 64),
        block=st.integers(1, 64),
        family=st.sampled_from(["gaussian", "laplace"]),
        reuse=st.integers(0, 2),
        forked=st.sampled_from([0, 64, StreamProvider._FORKED]),
    )
    def test_merged_theory_is_batch_and_chunk_invariant(
        self, variances, runs, chunk, block, family, reuse, forked
    ):
        # The rows of a merged pass at any chunk, block size and forking
        # threshold equal the rows of one-variance runs at the default sizes.
        common = dict(
            mode="theory", order=4, n_samples=150, mc_runs=runs, base_seed=runs,
            censoring=CensorConfig(p_ce=0.3),
            reuse=ReuseConfig(scheme="idr", l_reused=reuse) if reuse else ReuseConfig(scheme="none"),
        )

        def table(variances):
            theory = TheoryConfig(variances=tuple(variances), output_family=family)
            return _theory_rows(ExperimentConfig(theory=theory, **common))

        alone = [table([s2])[0] for s2 in variances]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreamProvider, "_CHUNK", chunk)
            mp.setattr(StreamProvider, "_FORKED", forked)
            mp.setattr(runner, "_BLOCK", block)
            assert table(variances) == alone

    def test_merged_pass_needs_a_label_per_group(self):
        # A divergence in a merged pass is named by its group's label, so a
        # pass of two noise pairs without labels is refused before it runs.
        cfg = ExperimentConfig(mode="theory", order=4, n_samples=150, mc_runs=2)
        pairs = [(NoiseSpec("gaussian", s2),) * 2 for s2 in (0.1, 0.2)]
        kept = KeepAll()
        with pytest.raises(ValueError, match="one label per noise group"):
            runner._run_pass(cfg, cfg.resolved_params(), pairs, kept)
        assert not kept.blocks

    def test_sweep_minimum_lands_on_truth(self):
        cfg = ExperimentConfig(mode="sweep", case_id=1, order=2, mc_runs=1)
        res = run_sweep(cfg)
        cols = res.csv_columns
        assert set(cols) == {"w1", "w2", "mean_cost"}
        k = int(np.argmin(cols["mean_cost"]))
        w_min = np.array([cols["w1"][k], cols["w2"][k]])
        assert np.all(np.abs(w_min - SWEEP_TRUTH) <= 0.1 + 1e-12)
        assert any("truth" in note for note in res.notes)


@pytest.mark.parametrize(
    ("driver", "cfg", "named"),
    [
        # a sysid config passes validate() without aec's window rule
        (run_aec, ExperimentConfig(
            mode="sysid", order=512, n_samples=600, mc_runs=1, reuse=ReuseConfig(l_reused=3),
        ), "the aec experiment cannot run a config of mode 'sysid'"),
        (run_theory_compare, ExperimentConfig(mode="sysid", n_samples=300, mc_runs=2),
         "the theory experiment cannot run a config of mode 'sysid'"),
        (run_sysid, ExperimentConfig(mode="theory", n_samples=300, mc_runs=2),
         "the sysid or tracking experiment cannot run a config of mode 'theory'"),
        (run_sweep, ExperimentConfig(mode="sysid", order=2, n_samples=300, mc_runs=2),
         "the sweep experiment cannot run a config of mode 'sysid'"),
    ],
    ids=["aec-sysid", "theory-sysid", "sysid-theory", "sweep-sysid"],
)
def test_driver_refuses_a_config_of_another_mode(driver, cfg, named):
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
        driver(cfg)


class TestSummary:
    def test_summary_reports_measured_and_predicted_cost(self):
        cfg = ExperimentConfig(
            mode="sysid", case_id=1, order=9, n_samples=600, mc_runs=2,
            algorithm=AlgorithmConfig(name="proposed"),
            censoring=CensorConfig(p_ce=0.5),
            reuse=ReuseConfig(scheme="idr", l_reused=1),
        )
        res = run_sysid(cfg)
        text = res.summary()
        assert "mode: sysid" in text
        assert "tail NMSD:" in text
        assert "measured censoring ratio:" in text
        assert "reuse-pass censoring ratio:" in text
        assert "executed updates:" in text
        assert "predicted per-iteration cost:" in text
        c = res.counts
        assert c["main_steps"] == 2 * (600 - 9)
        assert 0 < c["main_updates"] < c["main_steps"]
        assert c["reuse_steps"] > 0
