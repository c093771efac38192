import pytest

import remlab.experiments


@pytest.fixture(autouse=True)
def discard_kept_pool():
    # The task map keeps its process pool across calls, and pool workers hold
    # the modules as they were when forked.  Discarding it after each test
    # keeps one test's patches (CHUNK, a stand-in pool class) out of the
    # workers of another, and leaves no worker running between tests.
    yield
    remlab.experiments._discard_pool()
