"""Records which process runs each of the stream provider's fills.

A forked producer fills in a child process, whose memory is its own, so
the record goes through a file, which crosses the fork.
"""

import os

import pytest

from rtga import runner


def record_fills(monkeypatch, log, fault_at=None, trial=None):
    """Append the pid of every fill's process to the file log.

    The fault_at-th fill, counted in the process that runs it, raises
    MemoryError instead of synthesizing; given a trial, only in the
    process whose fills draw that trial.
    """
    fills = []
    fill = runner.StreamProvider._fill

    def recording(self, start, end, w_seg, lo, hi):
        fills.append(None)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if len(fills) == fault_at and (trial is None or lo <= trial < hi):
            raise MemoryError("Unable to allocate 2.00 MiB for an array")
        return fill(self, start, end, w_seg, lo, hi)

    monkeypatch.setattr(runner.StreamProvider, "_fill", recording)


def fill_pids(log):
    """The pids of the processes that ran a fill."""
    with open(log, encoding="utf-8") as fh:
        return {int(line) for line in fh}


def assert_reaped(pids):
    """None of pids is a child of this process, alive or a zombie."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
