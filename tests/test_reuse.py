"""Reuse index schedules and the engine's gated reuse pass."""

import itertools

import numpy as np
import pytest

from rtga.censoring import CensorConfig
from rtga.filters import RtgaParams
from rtga.reuse import ReuseConfig, idr_indices, reach, schedule
from rtga.noise import NoiseSpec
from rtga.runner import ArrayProvider, StreamProvider, run_streams
from rtga.signal_model import clean_output, delay_line_matrix

from keep_all import run_kept


def test_idr_frozen_examples():
    # Unbounded: anchor L, span i - L, l + 1 even slices.
    assert idr_indices(8000, 9, 3) == [2006, 4004, 6002]
    # Bounded: span capped at the window, anchored at i - span.
    assert idr_indices(8000, 9, 1, window_cap=200) == [7900]


def test_idr_small_cases():
    # i = 20, L = 9, l = 2: span 11, idx = 9 + floor(11 k / 3).
    assert idr_indices(20, 9, 2) == [12, 16]
    # Window smaller than elapsed time: anchor moves to i - W.
    assert idr_indices(1000, 9, 3, window_cap=100) == [925, 950, 975]


def test_idr_indices_strictly_inside_history():
    for i in (50, 321, 7777):
        idx = idr_indices(i, 9, 4, window_cap=200)
        assert all(9 <= k < i for k in idx)
        assert idx == sorted(idx)
        assert all(k > i - 201 for k in idx)


def test_dr_repeats_current_index():
    assert schedule(ReuseConfig(scheme="dr", l_reused=3), 123, 9) == [123] * 3
    assert schedule(ReuseConfig(scheme="dr", l_reused=0), 5, 0) == []


def test_undr_recent_block():
    assert schedule(ReuseConfig(scheme="undr", l_reused=3), 100, 9) == [97, 98, 99]
    # Early on the block clips at the first update index.
    assert schedule(ReuseConfig(scheme="undr", l_reused=5), 11, 9) == [9, 10]


def test_schedule_dispatch_and_guard():
    cfg = ReuseConfig(scheme="idr", l_reused=3)
    # Startup guard: no reuse until i - L >= l + 1.
    assert schedule(cfg, 12, 9) == []
    assert schedule(cfg, 13, 9) != []
    assert schedule(ReuseConfig(scheme="none"), 100, 9) == []
    np.testing.assert_array_equal(
        schedule(ReuseConfig(scheme="dr", l_reused=2), 50, 9), [50, 50]
    )
    assert schedule(ReuseConfig(scheme="undr", l_reused=2), 50, 9) == [48, 49]


def test_reuse_config_validation():
    with pytest.raises(ValueError):
        ReuseConfig(scheme="both")
    with pytest.raises(ValueError):
        ReuseConfig(scheme="idr", l_reused=-1)
    with pytest.raises(ValueError):
        ReuseConfig(scheme="idr", l_reused=2, window_cap=0)
    assert not ReuseConfig(scheme="idr", l_reused=0).active
    assert ReuseConfig(scheme="idr", l_reused=1).active


def _deepest(cfg, n, L):
    return max((i - min(schedule(cfg, i, L), default=i) for i in range(L, n)), default=0)


def test_reach_bounds_every_schedule():
    # The provider keeps reach + 1 samples: exactly as far back as the
    # pass's schedule looks. idr's oldest index lies span // (l + 1) into
    # its span of 295 samples (n - 1 - L), or of the 40-sample window.
    n, L = 300, 4
    cases = {
        ReuseConfig(): 0,
        ReuseConfig(scheme="dr", l_reused=3): 0,
        ReuseConfig(scheme="undr", l_reused=3): 3,
        ReuseConfig(scheme="idr", l_reused=3, window_cap=40): 30,
        ReuseConfig(scheme="idr", l_reused=3): 222,
    }
    for cfg, expect in cases.items():
        assert reach(cfg, n, L) == expect
        assert _deepest(cfg, n, L) == expect
    # a pass too short to fill the window reaches only as far as its span
    assert reach(ReuseConfig(scheme="idr", l_reused=3, window_cap=40), 20, L) == 12
    # every scheme reaches exactly as far back as its deepest sample, also
    # while the history is shorter than the window, or than l + 1 samples,
    # and when the run is no longer than the order
    for scheme, L, l_reused, cap in itertools.product(
        ("none", "idr", "dr", "undr"), (4, 9), (1, 2, 3, 5), (None, "l + 1", 6, 40)
    ):
        window = l_reused + 1 if cap == "l + 1" else cap
        cfg = ReuseConfig(scheme=scheme, l_reused=l_reused, window_cap=window)
        # deepest[n] is _deepest(cfg, n, L), scanned once up to n = 4000
        offsets = (i - min(schedule(cfg, i, L), default=i) for i in range(L, 4000))
        deepest = [0] * (L + 1) + list(itertools.accumulate(offsets, max))
        for n in (*range(1, L + 120), L + 1000, 4000):
            assert reach(cfg, n, L) == deepest[n]


def test_history_ring_evicts_old_pairs(monkeypatch):
    # The provider keeps the most recent `capacity` samples. With 8-sample
    # chunks its ring holds 4 + 8 = 12 rows, so samples 12-19 overwrite
    # rows 0-7 and the history of sample 19 lies past the ring's first end.
    monkeypatch.setattr(StreamProvider, "_CHUNK", 8)
    n, L, cap = 40, 3, 5
    zero = NoiseSpec("gaussian", 0.0)
    source = np.arange(1.0, n + 1.0)
    w_o = np.array([1.0, -2.0, 3.0])
    x_clean = delay_line_matrix(source, L)
    d_clean = clean_output(x_clean, w_o)
    provider = StreamProvider(
        [(0, n, w_o[None])], [(zero, zero)], [run_streams(0, 0, (zero, zero))[1:]],
        capacity=cap, shared=(x_clean, d_clean),
    )
    for i in range(20):
        provider.step(i)
    for idx in range(20 - cap, 20):
        x, d = provider.past(idx)
        np.testing.assert_array_equal(x[0], x_clean[idx])
        assert d[0] == d_clean[idx]
    with pytest.raises(LookupError, match="history gap"):
        provider.past(20 - cap - 1)
    with pytest.raises(LookupError, match="history gap"):
        provider.past(20)


def params(mu=0.05):
    return RtgaParams(a=-100.0, b=2.0, c=0.2, mu=mu, phi=1.0)


def _seeded_run(n=40, order=3, seed=31, runs=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((runs, n, order))
    d = rng.standard_normal((runs, n))
    w_o = rng.standard_normal((runs, order))
    return x, d, [(0, n, w_o)]


def _reuse_steps(cfg, n, L):
    return sum(len(schedule(cfg, i, L)) for i in range(L, n))


def test_reuse_pass_each_step_individually_censored():
    # Huge errors over the tracker's warm-up leave a huge scale behind, so
    # once the gate closes every reuse step is censored on its own small
    # error. The warm-up errors are so large that the robust cost makes
    # their steps exactly zero, so the weights never leave zero.
    n, L = 40, 3
    x, d, segments = _seeded_run(n, L)
    censor = CensorConfig(p_ce=0.7)
    d[0, L:L + censor.window] = 1e6
    cfg = ReuseConfig(scheme="idr", l_reused=3)
    res, kept = run_kept(ArrayProvider(x, d), n, params(), censor, cfg, segments)
    gated_from = L + censor.window  # the tracker is ready after `window` errors
    assert res.main_updates == censor.window
    assert not kept.censored[0, :gated_from].any()
    assert kept.censored[0, gated_from:].all()
    gated = sum(len(schedule(cfg, i, L)) for i in range(gated_from, n))
    assert gated > 0
    assert res.reuse_steps - res.reuse_updates == gated
    np.testing.assert_array_equal(res.weights, np.zeros((1, L)))


def test_reuse_pass_updates_when_scale_not_ready():
    # Before warm-up completes the gate stays open.
    censor = CensorConfig(p_ce=0.7)
    L = 3
    n = L + censor.window - 1  # one error short of a ready tracker
    x, d, segments = _seeded_run(n, L)
    cfg = ReuseConfig(scheme="idr", l_reused=2)
    res, kept = run_kept(ArrayProvider(x, d), n, params(), censor, cfg, segments)
    assert res.reuse_steps == _reuse_steps(cfg, n, L) > 0
    assert res.reuse_updates == res.reuse_steps
    assert res.main_updates == res.main_steps == n - L
    assert not kept.censored.any()


def test_executed_update_identity():
    # Executed updates per decision step = (1 - c_main) + l (1 - c_reuse).
    n, L, runs = 400, 3, 2
    x, d, segments = _seeded_run(n, L, seed=32, runs=runs)
    cfg = ReuseConfig(scheme="idr", l_reused=2)
    censor = CensorConfig(p_ce=0.5)
    res, kept = run_kept(
        ArrayProvider(x, d), n, params(mu=0.01), censor, cfg, segments
    )
    assert res.main_steps == runs * (n - L)
    assert res.reuse_steps == runs * _reuse_steps(cfg, n, L)
    c_main = np.count_nonzero(kept.censored) / res.main_steps
    c_reuse = 1.0 - res.reuse_updates / res.reuse_steps
    assert 0.0 < c_main < 1.0 and 0.0 < c_reuse < 1.0
    l_mean = res.reuse_steps / res.main_steps
    executed = res.main_updates + res.reuse_updates
    assert executed / res.main_steps == pytest.approx(
        (1.0 - c_main) + l_mean * (1.0 - c_reuse), rel=1e-12
    )
