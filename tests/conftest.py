import concurrent.futures

import pytest

from shatterlab import _pool


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace ProcessPoolExecutor with an in-process stand-in on a 3-CPU host.

    Returns the list of max_workers values that pools were created with; the
    stand-in maps serially, so no process is started.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    return sizes
