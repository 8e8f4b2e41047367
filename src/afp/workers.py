"""Fan independent work items out to forked worker processes, one per usable CPU.

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
attributes. Every worker is reaped before `fan_out` returns or raises.

It runs inline, as that loop, with one usable CPU, inside another `fan_out`
(no nesting), while a Graph is open, while another Python thread runs, and
where `os.fork` or `os.sched_getaffinity` do not exist. It starts no thread
and has no knob.
"""

import contextlib
import os
import pickle
import select
import signal
import struct
import sys
import threading

from .tensor import recording

_busy = False  # True while fan_out's workers exist, in the caller and in every worker
_LEN = struct.Struct("!Q")  # each frame on a worker's pipe: its byte count, then pickle((failed, value))


def fan_out(fn, items, each=None) -> list:
    """[fn(item) for item in items], with the items shared among the caller and its workers;
    each(result), if given, is called in input order as results come in."""
    items = list(items)
    procs = 1
    if (
        not _busy
        and not recording()
        and threading.active_count() == 1  # a fork copies only the calling thread, not the locks others hold
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
    ):
        procs = min(len(os.sched_getaffinity(0)), len(items))
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
        self.buf = bytearray()


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
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                status = reap(w, kill=False)
                if w.next < len(items):
                    code = os.waitstatus_to_exitcode(status)
                    fail(w.next, ChildProcessError(f"worker {w.pid} ended with status {code} and no result"))
                continue
            w.buf += chunk
            while len(w.buf) >= _LEN.size and len(w.buf) >= _LEN.size + _LEN.unpack_from(w.buf)[0]:
                end = _LEN.size + _LEN.unpack_from(w.buf)[0]
                failed, value = pickle.loads(w.buf[_LEN.size : end])
                del w.buf[:end]
                i, w.next = w.next, w.next + procs
                if failed:
                    fail(i, value)
                    break
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
    """A worker's whole life: its share, each result pickled into the pipe, then os._exit."""
    code = 1
    try:
        for fd in [r, *inherited]:  # the read ends of this and earlier workers' pipes are the caller's
            os.close(fd)
        with open(wr, "wb") as pipe:
            for i in range(first, len(items), procs):
                try:
                    frame = (False, fn(items[i]))
                except Exception as exc:
                    frame = (True, exc)
                try:
                    data = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # an unpicklable result or exception
                    frame = (True, RuntimeError(f"a worker could not send back its result: {exc!r}"))
                    data = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                pipe.write(_LEN.pack(len(data)) + data)
                pipe.flush()
                if frame[0]:
                    break
        for out in (sys.stdout, sys.stderr):
            out.flush()
        code = 0
    finally:
        os._exit(code)
