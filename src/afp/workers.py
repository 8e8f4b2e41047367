"""Forked worker processes. A `Worker` is one forked process that serves its
caller's requests until closed. `fan_out(fn, items, each)` returns
`[fn(item) for item in items]`, with the items dealt round-robin among the
caller and `min(usable CPUs, len(items)) - 1` Workers, so long and short
ones balance.

The caller walks the items in input order and calls `each(result)` as it
goes, as a serial loop would. It runs its own items itself and takes a
worker's with `receive()`; while that result is not in yet (`ready()`), it
runs its own next items early and keeps their results or exceptions for
their turn. A failure ends the work as a serial loop would: the items before
the earliest failing one still finish and reach `each`, then that item's
exception is raised with its type, message and attributes, and every worker
is killed and reaped. After one of its own items fails, the caller runs no
more early. A worker that dies before sending a result raises WorkerError
(an AfpError, so the CLI exits 1) in its place.

`usable_cpus()` is the one rule for whether to fork at all. It is 1, and
`fan_out` runs inline (and `train` keeps its worker's share in process),
inside another `fan_out` or a `Worker` (no nesting), while a Graph is open,
while another Python thread runs, and where `os.fork` or
`os.sched_getaffinity` do not exist. Nothing here starts a thread or has a
knob.
"""

import contextlib
import math
import mmap
import os
import pickle
import select
import signal
import struct
import sys
import threading

import numpy as np

from .errors import WorkerError
from .tensor import recording

_busy = 0  # the Workers alive in this process; in a worker, 1
_LEN = struct.Struct("!Q")  # each frame on a pipe to or from a worker: its byte count, then a pickle


def usable_cpus() -> int:
    """The processes that work may be shared among: the usable CPUs, or 1 where a fork is ruled out.

    Ruled out: inside a fan_out or a Worker, so that a sweep point trains
    inline; while a Graph is open; while another Python thread runs, since a
    fork copies only the calling thread, not the locks others hold; and
    where os.fork or os.sched_getaffinity do not exist.
    """
    if (
        _busy
        or recording()
        or threading.active_count() != 1
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
    ):
        return 1
    return len(os.sched_getaffinity(0))


def shared_zeros(shape, dtype) -> np.ndarray:
    """Zeros in anonymous shared memory: the process that makes them and every
    process it forks afterwards see each other's writes."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype, count).reshape(shape)


def fan_out(fn, items, each=None) -> list:
    """[fn(item) for item in items], with the items shared among the caller and its workers;
    each(result), if given, is called in input order as results come in."""
    items = list(items)
    procs = min(usable_cpus(), len(items))
    early = {}  # index -> (failed, result or exception) of the caller's items run and not yet taken
    own = 0  # the caller's next item

    def share(first):
        for i in range(first, len(items), procs):
            yield fn(items[i])

    def run_own() -> bool:
        """Run the caller's next item; returns whether it failed."""
        nonlocal own
        i, own = own, own + procs
        try:
            early[i] = (False, fn(items[i]))
        except Exception as exc:
            early[i] = (True, exc)
        return early[i][0]

    results = []
    with contextlib.ExitStack() as stack:
        workers = [stack.enter_context(Worker(share)) for _ in range(1, procs)]
        for first, w in enumerate(workers, 1):
            w.submit(first)
        stop = False  # one of the caller's items failed: run no more early
        for k in range(len(items)):
            if k % procs:
                w = workers[k % procs - 1]
                while not stop and own < len(items) and not w.ready():
                    stop = run_own()
                result = w.receive()
            else:
                if k == own:
                    stop = run_own()
                failed, result = early.pop(k)
                if failed:
                    raise result
            results.append(result)
            if each is not None:
                each(result)
    return results


class Worker:
    """One forked process that serves its caller's requests until closed.

    `serve(*args)` is a generator function that the caller has before the
    fork. `submit(*args)` pickles args to the worker, which runs
    `serve(*args)` and pickles back each value it yields as soon as it has
    it; `receive()` returns the next such value, and `ready()` says whether
    it would return or raise without waiting. Bulk data goes the other way
    round: arrays from `shared_zeros`, made before the fork, that both sides
    write. An exception raised by `serve` is sent in place of its next value,
    and `receive()` raises it with its type, message and attributes. A worker
    that ends without sending what `receive()` waits for, killed or crashed,
    makes `receive()` or `submit()` raise WorkerError at once. What the
    worker prints is flushed before each value it sends.

    While it lives, `usable_cpus()` is 1 in the caller and in the worker.
    `close()` kills and reaps the worker, which holds nothing of its own;
    use the Worker as a context manager. It starts no thread.
    """

    def __init__(self, serve):
        global _busy
        _flush()  # what the caller printed is not printed again by the worker
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self._requests, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(serve, requests, replies, (self._requests, self._replies))
        os.close(requests)
        os.close(replies)
        _busy += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, *args) -> None:
        try:
            _write(self._requests, pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:
            raise self._ended() from None

    def ready(self) -> bool:
        """Whether a value, or the worker's end, is in, so that receive() returns or raises without waiting."""
        return bool(select.select([self._replies], [], [], 0)[0])

    def receive(self):
        frame = _recv(self._replies)
        if frame is None:
            raise self._ended()
        failed, value = frame
        if failed:
            raise value
        return value

    def close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _ended(self) -> WorkerError:
        pid = self.pid
        return WorkerError(f"worker {pid} ended with status {self._reap()} before sending its result")

    def _reap(self) -> int:
        global _busy
        os.close(self._requests)
        os.close(self._replies)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        _busy -= 1
        return os.waitstatus_to_exitcode(status)


def _serve(serve, requests: int, replies: int, inherited: tuple) -> None:
    """A Worker's whole life: each request served and each value or exception
    sent back, until the caller's end of the pipe closes; then os._exit."""
    global _busy
    _busy = 1
    code = 1
    try:
        for fd in inherited:  # the caller's ends of both pipes
            os.close(fd)
        while (args := _recv(requests)) is not None:
            try:
                for value in serve(*args):
                    if _reply(replies, False, value):
                        break
            except Exception as exc:
                _reply(replies, True, exc)
        code = 0
    finally:
        os._exit(code)


def _flush() -> None:
    for out in (sys.stdout, sys.stderr):
        out.flush()


def _reply(fd: int, failed: bool, value) -> bool:
    """Send (failed, value) on fd, or a RuntimeError in its place where value
    does not pickle, once what was printed is out, since the caller may kill
    the worker as soon as it has the value; returns whether what was sent is
    a failure."""
    try:
        data = pickle.dumps((failed, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "error" if failed else "result"
        failed = True
        data = pickle.dumps((True, RuntimeError(f"a worker could not send back its {what}: {exc!r}")), pickle.HIGHEST_PROTOCOL)
    _flush()
    _write(fd, data)
    return failed


def _write(fd: int, data: bytes) -> None:
    """One frame on fd: the byte count of data, then data."""
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view) :]


def _recv(fd: int):
    """The next object sent on fd, or None once the other end has closed."""
    head = _read_exact(fd, _LEN.size)
    body = None if head is None else _read_exact(fd, _LEN.unpack(head)[0])
    return None if body is None else pickle.loads(body)


def _read_exact(fd: int, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)
