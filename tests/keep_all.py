"""Keep-all engine sink: the per-run (runs, n) curves for the engine tests.

The experiments reduce each block of engine output as it ends; these tests
compare every run's curve, so they stitch the blocks back together.
"""

import numpy as np

from rtga.runner import _checked, run_engine


class KeepAll:
    """Copies each block; ratio, censored and errors are (runs, n)."""

    def __init__(self):
        self.blocks = []
        self.n = 0

    def __call__(self, start, ratio, censored, e):
        assert start == self.n, "blocks must arrive in order, without gaps"
        self.blocks.append((ratio.copy(), censored.copy(), e.copy()))
        self.n += ratio.shape[1]

    def _stitch(self, k):
        return np.concatenate([block[k] for block in self.blocks], axis=1)

    @property
    def ratio(self):
        return self._stitch(0)

    @property
    def censored(self):
        return self._stitch(1)

    @property
    def errors(self):
        return self._stitch(2)


def run_kept(provider, params, censor, reuse, segments, groups=()):
    """run_engine with a KeepAll sink behind the divergence check, as the
    experiments run it: (result, kept)."""
    kept = KeepAll()
    sink = _checked(kept, segments, params.mu, groups)
    return run_engine(provider, params, censor, reuse, segments, sink, groups), kept
