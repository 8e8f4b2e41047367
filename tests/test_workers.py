"""fan_out: input order, results handed on as they come, errors (in fn and
in each), stopping on the earliest failure, reaping, what a worker prints,
no thread, the inline paths, and byte-identical eval JSON and sweep CSV
whether the work fans out or not. Worker: replies in order, errors, ready(),
shared memory both ways, a dead worker, and the one fork rule (usable_cpus)
that both follow. The test harness's guard against a test that leaves a
child process."""

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import test_acceptance as acceptance
from afp import errors, training, workers
from afp import tensor as T
from afp.config import save_config
from afp.errors import AfpError, TrainingError, WorkerError
from afp.model import init_params
from afp.workers import Worker, fan_out, shared_zeros

from test_cli import run_cli, ws  # noqa: F401  (ws is a fixture)

AFP_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, AfpError)]


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch):
    forks = []
    real = os.fork

    def counting_fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_items", [0, 1, 2, 5, 7])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_keep_input_order(monkeypatch, cpus, n_items):
    usable_cpus(monkeypatch, cpus)
    out = fan_out(lambda x: (x * x, os.getpid()), range(n_items))
    assert [v for v, _ in out] == [x * x for x in range(n_items)]
    pids = [pid for _, pid in out]
    assert len(set(pids)) == min(cpus, n_items)  # one process per share, the caller's among them
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert_no_child_left()


@pytest.mark.parametrize("cls", AFP_ERRORS, ids=[c.__name__ for c in AFP_ERRORS])
@pytest.mark.parametrize("bad", [2, 3], ids=["caller", "worker"])
def test_error_comes_back_with_its_type_and_message(monkeypatch, cls, bad):
    usable_cpus(monkeypatch, 2)

    def fn(x):
        if x == bad:
            raise cls(f"item {x} failed")
        return x

    with pytest.raises(cls, match=f"^item {bad} failed$") as err:
        fan_out(fn, range(6))
    assert type(err.value) is cls
    assert_no_child_left()


def test_training_error_keeps_its_attributes(monkeypatch):
    usable_cpus(monkeypatch, 2)
    params = init_params(acceptance.A_TINY_MODEL, seed=4)

    def fn(x):
        if x == 1:  # the worker's item
            raise TrainingError("numeric abort", last_good_params=params, last_good_step=7)
        return x

    with pytest.raises(TrainingError, match="numeric abort") as err:
        fan_out(fn, range(2))
    got = err.value.last_good_params
    assert err.value.last_good_step == 7
    assert [(n, t.data.tobytes()) for n, t in got.named()] == [(n, t.data.tobytes()) for n, t in params.named()]
    assert_no_child_left()


@pytest.mark.parametrize("bad, raised", [((2, 5), 2), ((3, 4), 3), ((5, 6), 5)])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_earliest_failing_item_wins(monkeypatch, cpus, bad, raised):
    usable_cpus(monkeypatch, cpus)

    def fn(x):
        if x in bad:
            raise TrainingError(f"item {x} failed", last_good_step=x)
        return x

    with pytest.raises(TrainingError, match=f"^item {raised} failed$") as err:
        fan_out(fn, range(8))
    assert err.value.last_good_step == raised
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_worker_that_dies_or_cannot_send_raises(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    parent = os.getpid()

    def fn(x):
        if x == 1:
            os._exit(3)
        if x == 2 and os.getpid() != parent:  # with 3 CPUs, the second worker is busy for a minute
            time.sleep(60)
        return x

    start = time.monotonic()
    with pytest.raises(WorkerError, match="ended with status 3 before sending its result"):
        fan_out(fn, range(4))
    assert time.monotonic() - start < 20
    with pytest.raises(RuntimeError, match="could not send back its result"):
        fan_out(lambda x: (lambda: x) if x == 1 else x, range(4))  # a lambda does not pickle
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_error_in_each_comes_back_unchanged_and_every_worker_is_reaped(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    closed = BrokenPipeError(32, "Broken pipe")  # as a --verbose log into a closed pipe raises

    def fn(x):
        time.sleep(0.5 if x == 0 else 60)  # each worker is well into its item when each(0) raises
        return x

    def each(result):
        raise closed

    start = time.monotonic()
    with pytest.raises(BrokenPipeError) as err:
        fan_out(fn, range(cpus), each)
    assert err.value is closed
    assert time.monotonic() - start < 20
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_what_fn_prints_in_a_worker_reaches_stdout_once(capfd, monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    with open(1, "w", closefd=False) as out:  # buffered, as stdout into a file or a pipe is
        monkeypatch.setattr(sys, "stdout", out)
        sys.stdout.write("before\n")
        assert fan_out(lambda x: sys.stdout.write(f"item {x}\n") and x, range(7)) == list(range(7))
        sys.stdout.flush()
        monkeypatch.undo()
    assert sorted(capfd.readouterr().out.splitlines()) == sorted(["before"] + [f"item {x}" for x in range(7)])
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_each_sees_results_in_order_before_the_last_item_is_done(tmp_path, monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    seen = tmp_path / "seen"

    def fn(x):
        if x == 5:  # done only once each(4) has run, within 20 s
            deadline = time.monotonic() + 20
            while not seen.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return "late" if not seen.exists() else x
        return x

    calls = []

    def each(result):
        calls.append(result)
        if result == 4:
            seen.touch()

    assert fan_out(fn, range(6), each) == list(range(6))
    assert calls == list(range(6))
    assert_no_child_left()


def test_each_sees_every_result_before_the_earliest_failure(monkeypatch):
    usable_cpus(monkeypatch, 3)
    calls = []

    def fn(x):
        if x in (4, 6):
            raise TrainingError(f"item {x} failed")
        return x

    with pytest.raises(TrainingError, match="^item 4 failed$"):
        fan_out(fn, range(9), calls.append)
    assert calls == [0, 1, 2, 3]
    assert_no_child_left()


def test_a_failure_in_the_callers_share_stops_the_workers(monkeypatch):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if x == 0:
            time.sleep(0.5)  # the worker is well into item 1 by now
            raise TrainingError("item 0 failed")
        time.sleep(60)
        return x

    start = time.monotonic()
    with pytest.raises(TrainingError, match="^item 0 failed$"):
        fan_out(fn, range(4))
    assert time.monotonic() - start < 20 and os.getpid() == parent
    assert_no_child_left()


def test_a_failure_in_a_worker_stops_the_callers_share(monkeypatch):
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    calls = []

    def fn(x):
        if x == 1:
            raise TrainingError("item 1 failed")
        if os.getpid() == parent:
            calls.append(x)
            time.sleep(0.5)
        return x

    with pytest.raises(TrainingError, match="^item 1 failed$"):
        fan_out(fn, range(20))
    assert calls[:1] == [0] and len(calls) <= 5  # a serial loop over the caller's share would run ten
    assert_no_child_left()


def test_starts_no_thread(monkeypatch):
    usable_cpus(monkeypatch, 2)
    threads = threading.enumerate()
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    seen = fan_out(lambda x: threading.active_count(), range(4))
    assert seen == [len(threads)] * 4 or seen == [len(threads), 1] * 2
    assert threading.enumerate() == threads
    if tasks is not None:
        assert len(os.listdir("/proc/self/task")) == tasks


def test_one_cpu_runs_inline(monkeypatch):
    usable_cpus(monkeypatch, 1)
    forks = count_forks(monkeypatch)
    calls = []
    assert fan_out(lambda x: calls.append(x) or os.getpid(), range(5)) == [os.getpid()] * 5
    assert calls == list(range(5)) and forks == []


def test_no_nesting_inside_a_worker(monkeypatch):
    usable_cpus(monkeypatch, 2)
    out = fan_out(lambda x: (os.getpid(), fan_out(lambda y: os.getpid(), range(3))), range(2))
    assert out[0][0] == os.getpid() != out[1][0]  # item 1 ran in a worker
    for pid, inner in out:
        assert inner == [pid] * 3
    assert_no_child_left()


def test_inline_under_an_open_graph(monkeypatch):
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    with T.Graph():
        assert fan_out(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4
    assert forks == []


def test_inline_while_another_thread_runs(monkeypatch):
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fan_out(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_inline_without_fork_or_affinity(monkeypatch, missing):
    usable_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, missing)
    assert fan_out(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4


@pytest.mark.parametrize("task", ["translation", "classification"])
def test_eval_json_is_byte_identical_on_one_and_two_cpus(ws, monkeypatch, task):  # noqa: F811
    tmp, cfg = ws
    assert run_cli(["gen-corpus", "--config", cfg]) == 0
    assert run_cli(["train", "--config", cfg]) == 0
    checkpoint = str(tmp / "run" / "checkpoint.afpt")
    texts = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp / f"{task}-{cpus}.json"
        assert run_cli(["eval", "--checkpoint", checkpoint, "--config", cfg, "--task", task, "--out", str(out)]) == 0
        assert len(forks) == cpus - 1
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert_no_child_left()


def test_sweep_csv_and_log_are_byte_identical_to_a_serial_run(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    save_config(config, acceptance.TestCriterion7SweepShape().sweep_config())
    runs = []
    for cpus in (1, 2, 3):
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"alpha-{cpus}.csv"
        assert run_cli(["sweep", "--kind", "alpha", "--config", str(config), "--out", str(out), "--verbose"]) == 0
        assert len(forks) == cpus - 1
        runs.append((out.read_bytes(), capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1].count("sweep alpha=") == 3
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_sweep_point_exits_as_a_serial_run(tmp_path, monkeypatch, capsys, cpus):
    config = tmp_path / "config.json"
    save_config(config, acceptance.TestCriterion7SweepShape().sweep_config())
    real = training.train

    def train(model_config, train_config, corpus, seed=0, **kw):
        if train_config.alpha > 1.0:  # points 1.5 (a worker's) and 2.0 (the caller's) fail
            raise TrainingError(f"numeric abort at alpha {train_config.alpha}")
        return real(model_config, train_config, corpus, seed=seed, **kw)

    monkeypatch.setattr(training, "train", train)
    usable_cpus(monkeypatch, cpus)
    out = tmp_path / "alpha.csv"
    assert run_cli(["sweep", "--kind", "alpha", "--config", str(config), "--out", str(out), "--verbose"]) == 4
    printed = capsys.readouterr()
    assert printed.err == "numeric abort: numeric abort at alpha 1.5\n"
    assert [line.split(":")[0] for line in printed.out.splitlines()] == ["sweep alpha=1.0"]  # the point before
    assert not out.exists()
    assert_no_child_left()


def test_worker_replies_in_order_and_raises_what_serve_raises(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def serve(x):
        if x == "fail":
            raise TrainingError("bad request", last_good_step=3)
        yield x
        yield os.getpid(), workers.usable_cpus()

    with Worker(serve) as w:
        assert workers.usable_cpus() == 1  # no nesting while it lives
        w.submit(1)
        assert w.receive() == 1
        pid, cpus = w.receive()
        assert pid == w.pid != os.getpid() and cpus == 1
        w.submit("fail")
        with pytest.raises(TrainingError, match="^bad request$") as err:
            w.receive()
        assert err.value.last_good_step == 3
        w.submit(2)  # it serves on after an error
        assert w.receive() == 2
    assert workers.usable_cpus() == 2
    assert_no_child_left()


def test_worker_and_caller_share_memory_both_ways():
    seen = shared_zeros((3,), np.int64)

    def serve(k):
        seen[k] += 10
        yield int(seen.sum())

    with Worker(serve) as w:
        seen[0] = 1
        w.submit(1)
        assert w.receive() == 11
        assert seen.tolist() == [1, 10, 0]
    assert_no_child_left()


def test_a_dead_worker_raises_worker_error_at_once():
    def serve(code):
        os._exit(code)
        yield

    w = Worker(serve)
    w.submit(3)
    with pytest.raises(WorkerError, match="ended with status 3"):
        w.receive()
    w.close()  # already reaped
    w = Worker(serve)
    os.kill(w.pid, signal.SIGKILL)
    os.waitid(os.P_PID, w.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    with pytest.raises(WorkerError, match="ended with status -9"):
        w.submit(0)
    assert_no_child_left()


def wait_until(ready, seconds=10):
    deadline = time.monotonic() + seconds
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)
    return ready()


def test_ready_says_whether_receive_would_wait():
    go = shared_zeros((1,), np.uint8)

    def serve(code):
        while not go[0]:
            time.sleep(0.01)
        if code:
            os._exit(code)
        yield code

    with Worker(serve) as w:
        w.submit(0)
        time.sleep(0.2)
        assert not w.ready()  # still serving
        go[0] = 1
        assert wait_until(w.ready)
        assert w.receive() == 0
        assert not w.ready()  # idle: nothing more to send
        w.submit(3)
        assert wait_until(w.ready)  # dead
        start = time.monotonic()
        with pytest.raises(WorkerError, match="ended with status 3"):
            w.receive()
        assert time.monotonic() - start < 1
    assert_no_child_left()


def test_an_error_that_does_not_pickle_comes_back_as_runtime_error():
    class Local(Exception):  # a local class does not pickle
        pass

    def serve():
        raise Local("local")
        yield

    with Worker(serve) as w:
        w.submit()
        with pytest.raises(RuntimeError, match="could not send back its error"):
            w.receive()
    assert_no_child_left()


def test_a_value_that_does_not_pickle_comes_back_as_runtime_error():
    def serve():
        yield 1
        yield lambda: 2  # a lambda does not pickle
        yield 3

    with Worker(serve) as w:
        w.submit()
        assert w.receive() == 1
        with pytest.raises(RuntimeError, match="could not send back its result"):
            w.receive()
        w.submit()  # the worker serves the next request from its start
        assert w.receive() == 1
    assert_no_child_left()


LEAKS = '''
import os, subprocess, time

def test_leaves_a_running_subprocess():
    with open("pid", "w") as f:
        f.write(str(subprocess.Popen(["sleep", "30"]).pid))

def test_leaves_a_running_fork():
    if os.fork() == 0:
        time.sleep(30)
        os._exit(0)

def test_leaves_an_ended_fork():
    if os.fork() == 0:
        os._exit(0)
    time.sleep(0.2)

def test_after_them():
    pass
'''


def test_harness_fails_a_test_that_leaves_a_child_and_kills_the_child(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(__file__), "conftest.py"), tmp_path)
    (tmp_path / "test_leaks.py").write_text(LEAKS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_leaks.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert "4 passed, 3 errors" in run.stdout, run.stdout
    assert "the test left child processes behind" in run.stdout
    with pytest.raises(ProcessLookupError):  # killed, not orphaned
        os.kill(int((tmp_path / "pid").read_text()), 0)
