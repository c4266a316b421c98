"""The fork protocol: a forked child that fills the pieces its parent asks for.

numpy releases the interpreter lock only inside its inner loops, so a
thread spends most of its many short calls waiting for the engine's lock.
A forked child has an interpreter of its own. The child works through
objects made before the fork that after it only the child touches, and
through arrays in an anonymous shared mapping made before the fork
(shared_arrays), so nothing else crosses the process boundary.

The protocol runs over two pipes. The parent writes one byte for each
piece it wants done; the child calls fill(k) for the pieces in order and
answers each with a header, the length of its pickle and whether the
fill raised, followed by the pickled value the fill returned (nothing for
None) or the exception it raised.

A child runs at most one piece ahead of its consumer. The consumer asks
for piece 0 when it forks the child, and for piece k + 1, if there is
one, just before it takes the answer of piece k; so while it reads what
piece k wrote, the child fills piece k + 1 and no later piece. The
consumer therefore keeps room for two pieces, so that piece k + 1 writes
nothing it still reads: the stream ring's rows (runner.StreamProvider)
and the two block slots (runner._run_shards).

Each child closes the parent's ends of its own pipes. A later fork in
the process (the next child, or another pass's, forked from another
thread) inherits copies of the parent's ends, so a closed pipe does not
prove the other side gone: each side, while it waits, checks every
_POLL_MS that the other still lives, and the parent ends a child by
killing it. rtga.runner imports this module only when a pass forks.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
import pickle
import select
import signal
import struct
from collections.abc import Callable
from typing import NoReturn

import numpy as np

# How often, in milliseconds, a waiting side checks that the other lives.
_POLL_MS = 50

# An answer's header: the length of its pickle (0 for None) and whether the fill raised.
_HEADER = struct.Struct("<I?")


def shared_arrays(*shapes: tuple[int, ...], dtype=np.float64) -> list[np.ndarray]:
    """Arrays of the given shapes and dtype in one anonymous shared mapping.

    Made before the fork, the mapping is the same memory in the parent
    and in its children.
    """
    item = np.dtype(dtype).itemsize
    sizes = [math.prod(shape) for shape in shapes]
    ring = mmap.mmap(-1, item * sum(sizes))
    offsets = np.cumsum([0, *sizes[:-1]]) * item
    return [
        np.frombuffer(ring, dtype, count=size, offset=int(offset)).reshape(shape)
        for shape, size, offset in zip(shapes, sizes, offsets)
    ]


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _waiting(fd: int) -> Callable[[], bool]:
    """A check that fd has data or an end of file within _POLL_MS."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return lambda: bool(poller.poll(_POLL_MS))


class Producer:
    """A forked child that calls fill(k) for the k-th piece asked of it.

    The child ends in os._exit on every path and never returns into the
    caller's code. If it ends without answering a piece (it was killed, or
    what its fill returned or raised cannot be pickled), answer() raises
    ChildProcessError, an OSError. close() kills and reaps it.
    """

    def __init__(self, fill: Callable[[int], object]):
        todo_r, todo_w = os.pipe()
        done_r, done_w = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (todo_r, todo_w, done_r, done_w):
                os.close(fd)
            raise
        if pid == 0:
            _serve(fill, parent, todo_r, done_w, (todo_w, done_r))
        os.close(todo_r)
        os.close(done_w)
        self.pid = pid
        self._todo = todo_w
        self._done = done_r
        self._ready = _waiting(done_r)
        self._status = None  # the child's wait status, once it is reaped

    def ask(self, count: int) -> None:
        """Ask for the next count pieces."""
        try:
            _write(self._todo, bytes(count))
        except BrokenPipeError:  # it has ended: answer() reads what it left
            pass

    def answer(self) -> object:
        """What the fill of the oldest piece asked returned; raises what it raised."""
        size, raised = _HEADER.unpack(self._read(_HEADER.size))
        value = pickle.loads(self._read(size)) if size else None
        if raised:
            raise value
        return value

    def _read(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            if not self._ready():
                if not self._reap(block=False):
                    continue
                # it has exited, so all it wrote is in the pipe by now
                if not self._ready():
                    raise self._lost()
            part = os.read(self._done, size - len(data))
            if not part:
                raise self._lost()
            data += part
        return data

    def _reap(self, block: bool) -> bool:
        """Reap the child if it has exited (waiting for that when block)."""
        if self._status is None:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            if pid:
                self._status = status
        return self._status is not None

    def _lost(self) -> ChildProcessError:
        """The error of a child that ended without answering, once it is reaped."""
        try:
            self._reap(block=True)
            code = os.waitstatus_to_exitcode(self._status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        except ChildProcessError:  # reaped elsewhere
            how = "status unknown"
        return ChildProcessError(
            f"the forked child process (pid {self.pid}) ended without answering ({how})"
        )

    def close(self) -> None:
        """Kill and reap the child, which holds nothing worth keeping."""
        if self._status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                self._reap(block=True)
            except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
                pass
        for fd in (self._todo, self._done):
            os.close(fd)


def _serve(
    fill: Callable[[int], object], parent: int, todo: int, done: int, others: tuple[int, ...]
) -> NoReturn:
    """The child: fill the pieces asked on todo in order, answering each on done.

    It stops at the end of todo's input, when its parent is gone, or after
    answering a failed fill; with exit status 1 when an answer does not pickle.
    """
    code = 1
    try:
        for fd in others:  # the parent's ends of this pipe pair
            os.close(fd)
        # the parent's unreachable objects are the parent's to finalize
        gc.freeze()
        asked = _waiting(todo)
        k = 0
        while True:
            if not asked():
                if os.getppid() != parent:
                    break
                continue
            requests = os.read(todo, 4096)
            if not requests:
                break
            for _ in requests:
                try:
                    value, raised = fill(k), False
                except BaseException as exc:  # raised again in the parent
                    value, raised = exc, True
                data = b"" if value is None else pickle.dumps(value)
                _write(done, _HEADER.pack(len(data), raised) + data)
                if raised:
                    code = 0
                    return
                k += 1
        code = 0
    finally:
        os._exit(code)
