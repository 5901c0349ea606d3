"""Reproducibility and independence of the block-partitioned streams."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gruschin.rng import PathStreams, derive_seed


def test_same_identity_same_values():
    a = PathStreams(42).fill_normals([7], (100, 2))[0]
    b = PathStreams(42).fill_normals([7], (100, 2))[0]
    assert np.array_equal(a, b)


def test_order_independence():
    streams = PathStreams(11)
    batch = streams.fill_normals(np.array([5, 3, 9]), (20, 2))
    for row, idx in enumerate([5, 3, 9]):
        assert np.array_equal(batch[row], PathStreams(11).fill_normals([idx], (20, 2))[0])


def test_distinct_paths_seeds_substreams_differ():
    base = PathStreams(1).fill_normals([0], (64,))[0]
    assert not np.array_equal(base, PathStreams(1).fill_normals([1], (64,))[0])
    assert not np.array_equal(base, PathStreams(2).fill_normals([0], (64,))[0])
    assert not np.array_equal(base, PathStreams(1, substream=1).fill_normals([0], (64,))[0])


def test_block_layout_matches_fresh_constructor():
    # path i is column i % 256 of the (n_steps, 256, w) draw of block i // 256
    blocks = [np.random.Generator(np.random.SFC64(np.random.SeedSequence([9, 0, b])))
              .standard_normal((32, 256, 3)) for b in (0, 1)]
    got = PathStreams(9).fill_normals([13, 300], (32, 3))
    assert np.array_equal(got[0], blocks[0][:, 13])
    assert np.array_equal(got[1], blocks[1][:, 44])


def test_step_prefixes_nest():
    streams = PathStreams(5, substream=2)
    idx = np.arange(250, 800)
    assert np.array_equal(streams.fill_normals(idx, (100, 2))[:, :40],
                          streams.fill_normals(idx, (40, 2)))


def test_shared_instance_across_threads():
    # more threads than cores and a short switch interval, to interleave draws
    streams = PathStreams(17)
    spans = [np.arange(s, s + 700) for s in range(0, 2800, 700)]
    serial = [streams.fill_normals(idx, (50, 2)) for idx in spans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(streams.fill_normals, idx, (50, 2)) for idx in spans * 4]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(threaded):
        assert np.array_equal(got, serial[k % len(spans)])


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        PathStreams(0).fill_normals([-1], (4,))[0]


def test_moments_sane():
    x = PathStreams(123).fill_normals(np.arange(200), (500,))
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "task") == derive_seed(7, "task")
    assert derive_seed(7, "task") != derive_seed(8, "task")
    assert derive_seed(7, "task") != derive_seed(7, "task2")
