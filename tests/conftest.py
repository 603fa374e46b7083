"""Every test starts and ends without collection workers.

engine keeps one set of forked workers per process, made by the first
collection whose fork pays and used by every later one.  Closing it around
each test means that the monkeypatches of a test reach the workers that it
forks, and no test inherits another's workers.  Once the set is closed, no
child process may be left.
"""

import multiprocessing

import pytest

from sssfactor import engine


@pytest.fixture(autouse=True)
def no_kept_workers():
    engine.close_workers()
    yield
    engine.close_workers()
    assert multiprocessing.active_children() == []
