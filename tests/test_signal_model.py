"""Delay lines, truth shifts, and errors-in-variables stream synthesis."""

from dataclasses import replace

import numpy as np
import pytest

from rtga.config import ExperimentConfig
from rtga.noise import NoiseSpec, sample_mixture_split
from rtga.runner import _trial_provider, run_streams
from rtga.signal_model import (
    delay_line_matrix,
    one_pole,
    shift_right,
    synthesize_eiv_arrays,
    wo_segments,
)


def test_one_pole_is_both_first_order_loops():
    # The far end's AR(1) loop, from a zero state, and the power smoother's
    # loop, from the first sample, each give one_pole's output bit for bit.
    x = np.random.default_rng(3).standard_normal(500)
    ar, acc = np.empty_like(x), 0.0
    for i in range(x.size):
        acc = 0.9 * acc + x[i]
        ar[i] = acc
    rho = 0.999
    smooth, acc = np.empty_like(x), x[0]
    smooth[0] = acc
    for i in range(1, x.size):
        acc = rho * acc + (1.0 - rho) * x[i]
        smooth[i] = acc
    assert one_pole(x, 0.9, 1.0).tobytes() == ar.tobytes()
    assert one_pole(x, rho, 1.0 - rho).tobytes() == smooth.tobytes()


def _synthesize(w_o, X, in_spec, out_spec, sides):
    u_rngs, v_rngs = sides
    u = sample_mixture_split(in_spec, *u_rngs, X.shape)
    v = sample_mixture_split(out_spec, *v_rngs, len(X))
    return synthesize_eiv_arrays(w_o, X, u, v)


def _sides(seed):
    """(input, output) (base, mask, amp) generator triples from one seed."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]
    return tuple(rngs[:3]), tuple(rngs[3:])


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
    streams = _sides(7)
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
    streams = _sides(8)
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
    assert cfg.truth_shifts() == [(t, 1)]
    with _trial_provider(cfg, [(zero, zero)]) as provider:
        segs = provider.segments
        assert [(s, e) for s, e, _ in segs] == [(0, t), (t, n)]
        steps = [[a.copy() for a in provider.step(i)] for i in range(n)]
    xs = np.stack([x for x, _ in steps], axis=1)
    ds = np.stack([d for _, d in steps], axis=1)
    for j, r in enumerate(range(2)):
        _, source_rng, _ = run_streams(cfg.base_seed, r, (zero, zero))
        x = delay_line_matrix(source_rng.standard_normal(n), L)
        w_o = segs[0][2][j]
        np.testing.assert_array_equal(xs[j], x)
        np.testing.assert_allclose(ds[j, :t], x[:t] @ w_o, rtol=1e-12)
        np.testing.assert_allclose(ds[j, t:], x[t:] @ shift_right(w_o, 1), rtol=1e-12)
        np.testing.assert_array_equal(segs[1][2][j], shift_right(w_o, 1))


def test_truth_shifts_only_in_tracking_with_an_amount():
    cfg = ExperimentConfig(mode="tracking", shift_time=500, shift_amount=2)
    assert cfg.truth_shifts() == [(500, 2)]
    assert replace(cfg, shift_amount=0).truth_shifts() == []
    assert replace(cfg, mode="sysid").truth_shifts() == []


IMPULSIVE = NoiseSpec("gaussian", 0.1, impulse_prob=0.01, impulse_variance=100.0)
PLAIN = NoiseSpec("laplace", 0.5)


def _draws(gen):
    return gen.standard_normal(8).tolist()


@pytest.mark.parametrize("in_spec", [PLAIN, IMPULSIVE], ids=["in-plain", "in-impulsive"])
@pytest.mark.parametrize("out_spec", [PLAIN, IMPULSIVE], ids=["out-plain", "out-impulsive"])
def test_run_streams_pin_the_seed_tree(in_spec, out_spec):
    # Trial r roots at SeedSequence(seed + r) and spawns the system and data
    # streams; the data stream spawns, in order, the source, the input's
    # (base, mask, amp) and the output's (base, mask, amp). Every generator
    # run_streams serves draws what one built straight from that tree
    # draws, so neither base depends on whether either side is impulsive,
    # and a side without impulses gets None for its mask and amp.
    seed, r = 17, 3
    system, data = np.random.SeedSequence(seed + r).spawn(2)
    tree = [np.random.default_rng(seq) for seq in (system, *data.spawn(7))]
    system_rng, source_rng, (inp, out) = run_streams(seed, r, (in_spec, out_spec))
    assert len(inp) == len(out) == 3
    served = [system_rng, source_rng, *inp, *out]
    specs = [None, None, *[in_spec] * 3, *[out_spec] * 3]
    for k, (gen, spec, direct) in enumerate(zip(served, specs, tree)):
        if k in (3, 4, 6, 7) and not spec.impulsive:
            assert gen is None
        else:
            assert _draws(gen) == _draws(direct)
    assert not np.allclose(_draws(tree[2]), _draws(tree[5]))
