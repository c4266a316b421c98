"""Experiment runner: engine semantics, seed layout, and the mode drivers."""

import numpy as np
import pytest

from rtga.censoring import CensorConfig, ScaleState, censor_decision, update_scale
from rtga.config import AlgorithmConfig, ExperimentConfig, TheoryConfig
from rtga.dataio import AecAssets, synth_echo_path
from rtga.filters import FilterState, RtgaParams, gradient, update_step
from rtga.metrics import iterations_to_level
from rtga.noise import NoiseSpec
from rtga.reuse import ReuseConfig, SampleHistory, reuse_pass, schedule
from rtga.runner import (
    SWEEP_TRUTH,
    ArrayProvider,
    _ScaleTracker,
    _batch_size,
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
from rtga.signal_model import delay_line_matrix, synthesize_eiv_arrays

NO_CENSOR = CensorConfig(p_ce=0.0)
NO_REUSE = ReuseConfig(scheme="none")


def _synth_run(seed, run, wo_order, n, in_spec, out_spec):
    system_rng, source_rng, streams = run_streams(seed, run)
    wo = draw_true_weights(system_rng, wo_order)
    src = source_rng.standard_normal(n)
    x, x_tilde, d, d_tilde = synthesize_eiv_arrays(wo, src, in_spec, out_spec, streams)
    return wo, x_tilde, d_tilde


def _per_sample_run(x_tilde, d_tilde, wo, params, family, censor, reuse):
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
            w = w - params.mu * gradient(e, x_tilde[idx], w, params, family)
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

        res = run_engine(
            ArrayProvider(x_tilde[None], d_tilde[None]), n, params, None,
            censor, reuse, [(0, n, wo[None])],
        )

        state = FilterState(w=np.zeros(L))
        scale = ScaleState()
        history = SampleHistory.from_arrays(x_tilde, d_tilde)
        den = float(wo @ wo)
        ratio = np.empty(n)
        cen_mask = np.zeros(n, dtype=bool)
        main_updates = reuse_steps = reuse_updates = 0
        for i in range(n):
            if i >= L:
                before = state.update_count
                state = reuse_pass(state, history, params, reuse, censor, scale, i, L)
                reuse_steps += len(schedule(reuse, i, L))
                reuse_updates += state.update_count - before
                e = float(d_tilde[i]) - float(state.w @ x_tilde[i])
                gated = (
                    censor.active
                    and scale.ready
                    and censor_decision(e, censor.kappa, scale.sigma_e)
                )

                class _S:
                    pass

                s = _S()
                s.x_tilde, s.d_tilde = x_tilde[i], float(d_tilde[i])
                state = update_step(state, s, params, gated)
                cen_mask[i] = gated
                if not gated:
                    main_updates += 1
                scale = update_scale(scale, e, censor)
            dev = state.w - wo
            ratio[i] = float(dev @ dev) / den

        assert np.allclose(res.weights[0], state.w, rtol=0.0, atol=1e-13)
        assert np.allclose(res.ratio[0], ratio, rtol=0.0, atol=1e-13)
        assert np.array_equal(res.censored[0], cen_mask)
        assert res.main_steps == n - L
        assert res.main_updates == main_updates
        assert res.reuse_steps == reuse_steps
        assert res.reuse_updates == reuse_updates
        assert state.iteration == res.main_steps + res.reuse_steps
        assert state.update_count == main_updates + reuse_updates

    @pytest.mark.parametrize(
        "params, family",
        [
            # b < 2, case-3 shape
            (RtgaParams(a=-100.0, b=1.5, c=0.1, mu=0.155), None),
            # b > 2, case-4 shape
            (RtgaParams(a=-1000.0, b=8.0, c=0.6, mu=0.025), None),
            (RtgaParams(a=-1.0e6, b=4.0, c=1.0, mu=0.01), "tlmp"),
            (RtgaParams(a=-1.0e6, b=2.0, c=1.0, mu=0.01), "ltls"),
            (RtgaParams(a=-1.0e6, b=1.56, c=1.0, mu=0.05), "exp"),
        ],
        ids=["b1.5-guard", "b8", "tlmp-b4", "ltls-b2", "exp-b1.56"],
    )
    def test_specialised_branches_match_per_sample_loop(self, params, family):
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

        res = run_engine(
            ArrayProvider(X, D), n, params, family, censor, reuse, [(0, n, WO)],
        )

        main_updates = reuse_steps = reuse_updates = 0
        for r in range(runs):
            w, ratio, cen_mask, counts = _per_sample_run(
                X[r], D[r], WO[r], params, family, censor, reuse
            )
            assert np.allclose(res.weights[r], w, rtol=0.0, atol=1e-13)
            assert np.allclose(res.ratio[r], ratio, rtol=0.0, atol=1e-13)
            assert np.array_equal(res.censored[r], cen_mask)
            main_updates += counts["main_updates"]
            reuse_steps += counts["reuse_steps"]
            reuse_updates += counts["reuse_updates"]
        assert res.main_steps == runs * (n - L)
        assert res.main_updates == main_updates
        assert res.reuse_steps == reuse_steps
        assert res.reuse_updates == reuse_updates
        assert 0 < reuse_updates < reuse_steps

    def test_divergence_error_names_runs(self):
        n, L = 200, 4
        spec = NoiseSpec("gaussian", 0.1)
        wo, x_tilde, d_tilde = _synth_run(3, 0, L, n, spec, spec)
        params = RtgaParams(a=-100.0, b=2.0, c=0.2, mu=1e300, phi=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match=r"run\(s\) \[0\].*mu=1e\+300"):
                run_engine(
                    ArrayProvider(x_tilde[None], d_tilde[None]), n, params, None,
                    NO_CENSOR, NO_REUSE, [(0, n, wo[None])], run_offset=0,
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
        args = (params, None, censor, reuse, [(0, n, WO)])
        calm = run_engine(ArrayProvider(X, D), n, *args, run_offset=5)
        assert np.all(calm.ratio[:, -1] < 0.05)

        X[1] *= 1e3
        D[1] *= 1e3
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                ArithmeticError, match=r"at iteration \d+ in run\(s\) \[6\];"
            ):
                run_engine(ArrayProvider(X, D), n, *args, run_offset=5)

    def test_noiseless_limit_filter_converges_monotonically(self):
        n, L = 800, 4
        zero = NoiseSpec("gaussian", 0.0)
        wo, x_tilde, d_tilde = _synth_run(11, 0, L, n, zero, zero)
        params = RtgaParams(a=-100.0, b=2.0, c=1.0, mu=0.05, phi=1.0)
        res = run_engine(
            ArrayProvider(x_tilde[None], d_tilde[None]), n, params, "tlmp",
            NO_CENSOR, NO_REUSE, [(0, n, wo[None])],
        )
        curve = res.ratio[0]
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
        res = run_engine(
            ArrayProvider(x_tilde[None], d_tilde[None]), n, params, None,
            NO_CENSOR, NO_REUSE, [(0, n, wo[None])],
        )
        w = res.weights[0]
        assert abs(w[0] - 1.0) < 0.15
        assert np.all(np.abs(w[1:]) < 0.15)


class TestScaleTracker:
    @pytest.mark.parametrize("estimator", ["robust_median", "conventional"])
    @pytest.mark.parametrize("window", range(7, 16))
    def test_matches_per_run_update_scale(self, window, estimator):
        runs, steps = 4, 60
        rng = np.random.default_rng(window)
        errors = rng.standard_normal((steps, runs)) * rng.uniform(0.1, 3.0, runs)
        errors[rng.random((steps, runs)) < 0.05] *= 50.0  # impulses
        cfg = CensorConfig(p_ce=0.5, window=window, estimator=estimator)
        tracker = _ScaleTracker(runs, cfg)
        states = [ScaleState() for _ in range(runs)]
        for e in errors:
            tracker.update(e)
            states = [update_scale(s, float(v), cfg) for s, v in zip(states, e)]
            assert [s.ready for s in states] == [tracker.ready] * runs
            assert tracker.sigma.tolist() == [s.sigma_e for s in states]
        assert tracker.ready


class TestReuse:
    def test_idr_reuse_converges_like_scaled_step(self):
        # l uncensored reuse steps per sample make l + 1 updates at step mu,
        # so the transient should run like a single update at (l + 1) * mu.
        # A reuse pass that lost part of its step would cross -25 dB later.
        common = dict(mode="sysid", case_id=1, order=9, n_samples=3000, mc_runs=30)
        mu = AlgorithmConfig(name="proposed").resolve(1, phi=1.0)[0].mu
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

    def test_batch_splitting_is_transparent(self, monkeypatch):
        cfg = ExperimentConfig(mode="sysid", order=9, n_samples=500, mc_runs=3)
        full = run_sysid(cfg)
        import rtga.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_MEMORY_BUDGET", 1)
        split = run_sysid(cfg)
        assert np.allclose(full.curve.values_db, split.curve.values_db, atol=1e-10)
        assert full.counts == split.counts

    def test_batch_size_bounds(self):
        assert _batch_size(5, 10**9, 512) == 1
        assert _batch_size(1000, 8000, 9) >= 1
        assert _batch_size(10, 100, 9) == 10


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

    def test_sweep_minimum_lands_on_truth(self):
        cfg = ExperimentConfig(mode="sweep", case_id=1, order=2, mc_runs=1)
        res = run_sweep(cfg)
        cols = res.csv_columns
        assert set(cols) == {"w1", "w2", "mean_cost"}
        k = int(np.argmin(cols["mean_cost"]))
        w_min = np.array([cols["w1"][k], cols["w2"][k]])
        assert np.all(np.abs(w_min - SWEEP_TRUTH) <= 0.1 + 1e-12)
        assert any("truth" in note for note in res.notes)


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
