"""A time limit for every test.

A reduction that never terminates would otherwise hang the whole run.  When
one test runs past LIMIT seconds, faulthandler prints the traceback of every
thread and ends the process with exit code 1.  Pytest's faulthandler_timeout
option alone only prints the traceback, and the option that also exits is
missing from older pytest releases.
"""

import faulthandler
import os
import sys

import pytest

# Pytest rewrites asserts only in test modules; under python -O the asserts
# of the shared helpers would vanish without this.
pytest.register_assert_rewrite("_helpers")

# The slowest test takes about 2.5 s.
LIMIT = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is off here; keep a copy of the real stderr so the
    # traceback is not swallowed by the capture of the test that hangs.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
