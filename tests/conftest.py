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
