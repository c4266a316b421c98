"""Delay lines, truth shifts, and errors-in-variables stream synthesis."""

import numpy as np
import pytest

from rtga.config import ExperimentConfig
from rtga.noise import NoiseSpec
from rtga.runner import _trial_provider, run_streams
from rtga.signal_model import (
    delay_line_matrix,
    draw_eiv_noise,
    shift_right,
    synthesize_eiv_arrays,
    wo_segments,
)


def _synthesize(w_o, X, in_spec, out_spec, streams):
    u, v = np.empty(X.shape), np.empty(len(X))
    draw_eiv_noise(in_spec, out_spec, streams, u, v)
    return synthesize_eiv_arrays(w_o, X, u, v)


def test_delay_line_newest_first_and_zero_padded():
    src = np.array([1.0, 2.0, 3.0, 4.0])
    X = delay_line_matrix(src, 3)
    np.testing.assert_array_equal(
        X,
        [
            [1.0, 0.0, 0.0],
            [2.0, 1.0, 0.0],
            [3.0, 2.0, 1.0],
            [4.0, 3.0, 2.0],
        ],
    )


def test_delay_line_batched_matches_single():
    rng = np.random.default_rng(41)
    src = rng.standard_normal((3, 20))
    X = delay_line_matrix(src, 5)
    assert X.shape == (3, 20, 5)
    for r in range(3):
        np.testing.assert_array_equal(X[r], delay_line_matrix(src[r], 5))


def test_delay_line_is_read_only_view_safe():
    src = np.arange(6, dtype=float)
    X = delay_line_matrix(src, 2)
    got = np.array(X)  # materialize before mutating the source
    src[0] = 99.0
    assert got[0, 0] == 0.0 or got[1, 1] == 0.0  # past values were captured


def test_shift_right():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(shift_right(w, 2), [0.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(shift_right(w, 0), w)
    with pytest.raises(ValueError):
        shift_right(w, -1)
    # A shift past the end discards every coefficient.
    np.testing.assert_array_equal(shift_right(w, 5), np.zeros(4))
    # A (runs, L) batch shifts row by row.
    batch = np.stack([w, -w])
    np.testing.assert_array_equal(
        shift_right(batch, 1), [[0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -2.0, -3.0]]
    )


def test_wo_segments_no_schedule():
    segs = wo_segments(np.array([1.0, 2.0]), [], 100)
    assert len(segs) == 1
    start, end, w = segs[0]
    assert (start, end) == (0, 100)
    np.testing.assert_array_equal(w, [1.0, 2.0])


def test_wo_segments_with_shift():
    segs = wo_segments(np.array([1.0, 2.0, 3.0]), [(50, 1)], 100)
    assert [(s, e) for s, e, _ in segs] == [(0, 50), (50, 100)]
    np.testing.assert_array_equal(segs[1][2], [0.0, 1.0, 2.0])


def test_synthesize_arrays_respects_model():
    # d = w_o . x on the clean stream and d_tilde = d + v.
    rng_keys = ("u_base", "u_mask", "u_amp", "v_base", "v_mask", "v_amp")
    ss = np.random.SeedSequence(7).spawn(6)
    streams = dict(zip(rng_keys, (np.random.default_rng(s) for s in ss)))
    w_o = np.array([0.4, -0.3])
    source = np.random.default_rng(5).standard_normal(30)
    in_spec = NoiseSpec("gaussian", 0.1)
    out_spec = NoiseSpec("gaussian", 0.1)
    X = delay_line_matrix(source, 2)
    x, x_tilde, d, d_tilde = _synthesize(w_o, X, in_spec, out_spec, streams)
    np.testing.assert_allclose(d, delay_line_matrix(source, 2) @ w_o, rtol=1e-13)
    np.testing.assert_array_equal(x, delay_line_matrix(source, 2))
    assert not np.array_equal(x, x_tilde)
    assert not np.array_equal(d, d_tilde)
    # Zero noise collapses the tilde streams onto the clean ones.
    z = NoiseSpec("gaussian", 0.0)
    x, x_tilde, d, d_tilde = _synthesize(w_o, X, z, z, streams)
    np.testing.assert_array_equal(x, x_tilde)
    np.testing.assert_array_equal(d, d_tilde)


def test_input_noise_is_fresh_per_step():
    # The noisy regressor is not a delay line: the same source sample
    # receives independent noise at each step it appears in.
    ss = np.random.SeedSequence(8).spawn(6)
    keys = ("u_base", "u_mask", "u_amp", "v_base", "v_mask", "v_amp")
    streams = dict(zip(keys, (np.random.default_rng(s) for s in ss)))
    w_o = np.array([1.0, 1.0])
    source = np.arange(1.0, 11.0)
    in_spec = NoiseSpec("gaussian", 0.5)
    out_spec = NoiseSpec("gaussian", 0.0)
    x, x_tilde, _, _ = _synthesize(
        w_o, delay_line_matrix(source, 2), in_spec, out_spec, streams
    )
    u = x_tilde - x
    # u[i, 1] is the noise on source[i-1]; u[i-1, 0] hit the same sample.
    assert not np.allclose(u[1:, 1], u[:-1, 0])


def test_synthesize_eiv_tracks_shift_schedule():
    # The tracking driver's synthesis: with zero noise, d = x . w_o before
    # the shift and x . shift_right(w_o) after it.
    n, L, t = 20, 3, 10
    cfg = ExperimentConfig(
        mode="tracking", order=L, n_samples=n, mc_runs=2, shift_time=t, shift_amount=1,
    )
    zero = NoiseSpec("gaussian", 0.0)
    with _trial_provider(cfg, [(zero, zero)], shifts=[(t, 1)]) as provider:
        segs = provider.segments
        assert [(s, e) for s, e, _ in segs] == [(0, t), (t, n)]
        steps = [[a.copy() for a in provider.step(i)] for i in range(n)]
    xs = np.stack([x for x, _ in steps], axis=1)
    ds = np.stack([d for _, d in steps], axis=1)
    for j, r in enumerate(range(2)):
        _, source_rng, _ = run_streams(cfg.base_seed, r)
        x = delay_line_matrix(source_rng.standard_normal(n), L)
        w_o = segs[0][2][j]
        np.testing.assert_array_equal(xs[j], x)
        np.testing.assert_allclose(ds[j, :t], x[:t] @ w_o, rtol=1e-12)
        np.testing.assert_allclose(ds[j, t:], x[t:] @ shift_right(w_o, 1), rtol=1e-12)
        np.testing.assert_array_equal(segs[1][2][j], shift_right(w_o, 1))


def test_noise_streams_keys_and_independence():
    _, _, streams = run_streams(17, 0)
    assert set(streams) == {
        "u_base", "u_mask", "u_amp", "v_base", "v_mask", "v_amp",
    }
    a = streams["u_base"].standard_normal(4)
    b = streams["v_base"].standard_normal(4)
    assert not np.allclose(a, b)
