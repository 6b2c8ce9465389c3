import glob
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def _children() -> list:
    """Pids of this process's children, running or unreaped (Linux /proc; empty elsewhere)."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as handle:
            pids += [int(pid) for pid in handle.read().split()]
    return pids


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child os.fork makes in this process while the test runs."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture(autouse=True)
def no_stray_workers():
    """Fail a test that leaves a child process running or unreaped, and kill and reap
    its children so the next test starts clean."""
    yield
    try:
        reaped, _ = os.waitpid(-1, os.WNOHANG)  # raises when this process has no child at all
    except ChildProcessError:
        return
    stray = _children()
    for pid in stray:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail(f"test left {len(stray) + bool(reaped)} child process(es) running or unreaped")
