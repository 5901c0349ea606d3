"""Fixtures shared by the test modules."""

import functools
from concurrent.futures import ThreadPoolExecutor

import pytest

from gruschin import estimators


@pytest.fixture
def new_pools(monkeypatch):
    """``estimators._pool`` with an empty cache of its own for the test: the
    list it yields records the worker count of every pool built, and the
    pools are shut down afterwards.  The process pools built before the test
    are left alone."""
    built, pools = [], []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self._max_workers)
            pools.append(self)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(estimators, "_pool",
                        functools.lru_cache(maxsize=None)(estimators._pool.__wrapped__))
    yield built
    for pool in pools:
        pool.shutdown()
