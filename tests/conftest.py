import glob
import os
import signal

import pytest


def _live_children():
    """The pids of this process's children not yet reaped, zombies among them.

    Read from the kernel (``/proc/self/task/<tid>/children``, Linux), so that
    it sees every child, however it was started.
    """
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids += map(int, f.read().split())
    return pids


@pytest.fixture
def no_worker_outlives_the_test():
    """The report's searches run in worker processes; a test that forks them,
    whether it succeeds, exits 2 or raises, must leave none of them running.

    Any child still there fails the test and is then killed and reaped, so
    that it cannot outlive this test and fail the ones after it.
    """
    assert os.path.exists(f"/proc/self/task/{os.getpid()}/children")
    yield
    left = _live_children()
    try:
        assert left == []
    finally:
        for pid in left:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
