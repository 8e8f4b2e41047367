"""Forked worker processes: `fan_out` shares independent work items among one
process per usable CPU, and a `Worker` serves one caller's requests for as
long as the caller keeps it.

`fan_out(fn, items, each)` returns `[fn(item) for item in items]`, computed by
the caller and `min(usable CPUs, len(items)) - 1` workers that `os.fork`
starts. Items are dealt round-robin (`items[w::n]`), so long and short ones
balance. A worker inherits the caller's memory, patched module globals
included, runs the same code on its share and pickles each result, or its
first exception, back over a pipe as soon as it has it. `each(result)` is
called in input order as soon as a result and every one before it are in,
as a serial loop would call it.

A failure ends the work as a serial loop would: the items before the
earliest failing one still finish (and reach `each`), workers left with only
later items are killed, the caller stops its own share, and the earliest
failing item's exception is re-raised with its type, message and
attributes; a worker that ends before sending its share counts as a
failure of its next item, WorkerError (an AfpError, so the CLI exits 1), as
it does for a `Worker`. Every worker is reaped before `fan_out` returns or
raises.

`usable_cpus()` is the one rule for whether to fork at all. It is 1, and
`fan_out` runs inline as that loop (and `train` keeps its worker's share in
process), inside another `fan_out` or a `Worker` (no nesting), while a Graph
is open, while another Python thread runs, and where `os.fork` or
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

_busy = False  # True while forked workers exist, in the caller and in every worker
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
    results = []
    stream = _forked(fn, items, procs) if procs > 1 else (fn(item) for item in items)
    with contextlib.closing(stream):
        for result in stream:
            results.append(result)
            if each is not None:
                each(result)
    return results


class _Worker:
    def __init__(self, pid: int, fd: int, first: int):
        self.pid, self.fd = pid, fd
        self.next = first  # the index of the next result it sends


def _forked(fn, items, procs: int):
    """Yield fn(item) in input order; raise the earliest failure once every earlier result is yielded."""
    global _busy
    for out in (sys.stdout, sys.stderr):  # what the caller printed is not printed again by a worker
        out.flush()
    workers = {}  # read end -> _Worker, until reaped
    done = {}  # index -> result not yet yielded
    failure = None  # (index, exception) of the earliest failing item known

    def fail(i, exc):
        nonlocal failure
        if failure is None or i < failure[0]:
            failure = (i, exc)
        for w in list(workers.values()):  # those left with only later items are not needed
            if w.next > failure[0]:
                reap(w, kill=True)

    def reap(w, kill):
        if kill:
            os.kill(w.pid, signal.SIGKILL)
        os.close(w.fd)
        del workers[w.fd]
        _, status = os.waitpid(w.pid, 0)
        return status

    def receive(timeout):
        ready, _, _ = select.select(list(workers), [], [], timeout)
        for fd in ready:
            w = workers.get(fd)
            if w is None:  # reaped by a failure read earlier in this loop
                continue
            frame = _recv(fd)
            if frame is None:
                status = reap(w, kill=False)
                if w.next < len(items):
                    code = os.waitstatus_to_exitcode(status)
                    fail(w.next, WorkerError(f"worker {w.pid} ended with status {code} and no result"))
                continue
            failed, value = frame
            i, w.next = w.next, w.next + procs
            if failed:
                fail(i, value)
            else:
                done[i] = value

    _busy = True
    try:
        for first in range(1, procs):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, items, first, procs, r, wr, list(workers))
            os.close(wr)
            workers[r] = _Worker(pid, r, first)
        own = 0  # the caller's next item
        for k in range(len(items)):
            while k not in done:
                if failure is not None and failure[0] == k:  # every earlier result has been yielded
                    raise failure[1]
                if own < len(items) and (failure is None or own < failure[0]):
                    try:
                        done[own] = fn(items[own])
                    except Exception as exc:
                        fail(own, exc)
                    own += procs
                    receive(0)
                else:
                    receive(None)
            yield done.pop(k)
        while workers:  # each has sent its share: let it flush and leave
            receive(None)
    finally:
        _busy = False
        for w in list(workers.values()):  # left early: stop and reap the rest
            reap(w, kill=True)


def _work(fn, items, first: int, procs: int, r: int, wr: int, inherited: list) -> None:
    """A worker's whole life: its share, each result sent into the pipe, then os._exit."""
    code = 1
    try:
        for fd in [r, *inherited]:  # the read ends of this and earlier workers' pipes are the caller's
            os.close(fd)
        for i in range(first, len(items), procs):
            try:
                failed, value = False, fn(items[i])
            except Exception as exc:
                failed, value = True, exc
            if _reply(wr, failed, value):
                break
        for out in (sys.stdout, sys.stderr):
            out.flush()
        code = 0
    finally:
        os._exit(code)


class Worker:
    """One forked process that serves its caller's requests until closed.

    `serve(*args)` is a generator function that the caller has before the
    fork. `submit(*args)` pickles args to the worker, which runs
    `serve(*args)` and pickles back each value it yields as soon as it has
    it; `receive()` returns the next such value. Bulk data goes the other way
    round: arrays from `shared_zeros`, made before the fork, that both sides
    write. An exception raised by `serve` is sent in place of its next value,
    and `receive()` raises it with its type, message and attributes. A worker
    that ends without sending what `receive()` waits for, killed or crashed,
    makes `receive()` or `submit()` raise WorkerError at once.

    While it lives, `usable_cpus()` is 1 in the caller and in the worker.
    `close()` kills and reaps the worker, which holds nothing of its own;
    use the Worker as a context manager. It starts no thread.
    """

    def __init__(self, serve):
        global _busy
        for out in (sys.stdout, sys.stderr):  # what the caller printed is not printed again by the worker
            out.flush()
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
        self._was_busy, _busy = _busy, True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, *args) -> None:
        try:
            _write(self._requests, pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:
            raise self._ended() from None

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
        _busy = self._was_busy
        return os.waitstatus_to_exitcode(status)


def _serve(serve, requests: int, replies: int, inherited: tuple) -> None:
    """A Worker's whole life: each request served and each value or exception
    sent back, until the caller's end of the pipe closes; then os._exit."""
    global _busy
    _busy = True
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


def _reply(fd: int, failed: bool, value) -> bool:
    """Send (failed, value) on fd, or a RuntimeError in its place where value
    does not pickle; returns whether what was sent is a failure."""
    try:
        data = pickle.dumps((failed, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "error" if failed else "result"
        failed = True
        data = pickle.dumps((True, RuntimeError(f"a worker could not send back its {what}: {exc!r}")), pickle.HIGHEST_PROTOCOL)
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
