"""Fixtures shared by the test modules."""

import functools
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest

from gruschin import estimators, rng


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


class Draw(NamedTuple):
    """One ``rng.PathStreams.fill_normals`` call."""

    substream: int
    path_indices: np.ndarray
    shape: tuple


class Draws(list):
    """The ``Draw`` of every ``rng.PathStreams.fill_normals`` call, in call order."""

    def by_substream(self) -> dict:
        """The path indices of every draw, listed by substream."""
        return {s: [d.path_indices for d in self if d.substream == s] for s in (0, 1, 2)}


@pytest.fixture
def rng_draws(monkeypatch):
    """A ``Draws`` list that records every RNG draw of the test."""
    draws, real = Draws(), rng.PathStreams.fill_normals

    def recording(self, path_indices, shape):
        draws.append(Draw(self.substream, np.asarray(path_indices).copy(), tuple(shape)))
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", recording)
    return draws
