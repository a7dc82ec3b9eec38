import multiprocessing

import pytest


@pytest.fixture
def no_worker_outlives_the_test():
    """The report's searches run in worker processes; a test that forks them,
    whether it succeeds, exits 2 or raises, must leave none of them running.

    Any worker still running fails the test and is then killed and joined,
    so that it cannot outlive this test and fail the ones after it.
    """
    yield
    left = multiprocessing.active_children()
    try:
        assert left == []
    finally:
        for worker in left:
            worker.kill()
            worker.join()
