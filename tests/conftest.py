"""Shared pytest configuration: a fixed default seed, overridable on the CLI."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=20240811,
        help="seed for randomized property tests",
    )


@pytest.fixture
def seed(request) -> int:
    return request.config.getoption("--seed")


try:
    from hypothesis import settings
except ImportError:  # hypothesis is a test extra; the tests using it skip without it
    pass
else:
    # Derandomized and without a failure database, so runs repeat exactly; no
    # deadline, since a slow machine must not fail an exact check.
    settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
    settings.load_profile("repeatable")


import signal  # noqa: E402
import threading  # noqa: E402


class TimeBoundExceeded(BaseException):
    """A test ran past its ``time_bound``.  A BaseException, so neither the
    test nor hypothesis (which would shrink, re-running the slow example)
    takes it for an ordinary failure; pytest reports it as one."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_bound(seconds): fail the test when its call runs longer than this"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Apply ``time_bound``: a loop that never ends fails the test instead
    of hanging the run.  Needs SIGALRM, so it is a no-op off the main thread
    or on platforms without it."""
    marker = item.get_closest_marker("time_bound")
    if marker is None or not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        return (yield)
    seconds = marker.args[0]

    def expire(signum, frame):
        raise TimeBoundExceeded(f"{item.nodeid} ran longer than its bound of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
