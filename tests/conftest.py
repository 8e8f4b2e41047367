"""Pin BLAS to one thread before any test module imports numpy, let the
subprocesses that tests start import afp from this checkout, and fail any
test that leaves a child process behind.

A threaded BLAS splits products by rows, so the bits of a product can depend
on the thread count (README "Memory"); `bench/run.py` pins it the same way.
pyproject.toml puts src/ on pytest's own path; PYTHONPATH carries it to the
`python -c` and `python -m afp` children.
"""

import os
import signal

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def no_child_left():
    """A test must reap every process it starts: forked workers (afp.workers)
    and subprocesses alike. One that does not fails, and what it left is
    killed and reaped, so that the tests after it start clean."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = [pid] if pid else []
    for child in _children():
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        left.append(child)
    pytest.fail(f"the test left child processes behind: {left}, now reaped")


def _children() -> list[int]:
    """The pids of this process's children, running or ended, from /proc."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])  # after "pid (comm) state"
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found
