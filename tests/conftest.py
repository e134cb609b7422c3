"""A test that runs past its time limit fails by name instead of hanging the
run; the slowest test takes about 5 s."""

import signal

import pytest

TEST_SECONDS = 120


def _out_of_time(signum, frame):
    # pytest's failure is a BaseException, so no `except Exception` in the
    # code under test (the CLI maps OSError, TimeoutError's base, to exit 2)
    # can swallow it
    pytest.fail(f"test ran past {TEST_SECONDS} s")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
