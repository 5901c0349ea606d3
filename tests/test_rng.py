"""Reproducibility and independence of the counter-partitioned streams."""

import numpy as np
import pytest

from gruschin.rng import PathStreams, derive_seed


def test_same_identity_same_values():
    a = PathStreams(42).normals(7, (100, 2))
    b = PathStreams(42).normals(7, (100, 2))
    assert np.array_equal(a, b)


def test_order_independence():
    streams = PathStreams(11)
    batch = streams.fill_normals(np.array([5, 3, 9]), (20, 2))
    for row, idx in enumerate([5, 3, 9]):
        assert np.array_equal(batch[row], PathStreams(11).normals(idx, (20, 2)))


def test_distinct_paths_seeds_substreams_differ():
    base = PathStreams(1).normals(0, (64,))
    assert not np.array_equal(base, PathStreams(1).normals(1, (64,)))
    assert not np.array_equal(base, PathStreams(2).normals(0, (64,)))
    assert not np.array_equal(base, PathStreams(1, substream=1).normals(0, (64,)))


def test_state_seek_matches_fresh_constructor():
    # the per-path seek must agree with building Philox at the jumped counter
    fresh = np.random.Generator(np.random.Philox(key=[9, 0], counter=13 << 128))
    want = fresh.standard_normal((32, 3))
    got = PathStreams(9).normals(13, (32, 3))
    assert np.array_equal(want, got)


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        PathStreams(0).normals(-1, (4,))


def test_moments_sane():
    x = PathStreams(123).fill_normals(np.arange(200), (500,))
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "task") == derive_seed(7, "task")
    assert derive_seed(7, "task") != derive_seed(8, "task")
    assert derive_seed(7, "task") != derive_seed(7, "task2")
