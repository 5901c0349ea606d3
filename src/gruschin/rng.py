"""Block-keyed random streams for reproducible, order-independent path simulation.

Paths are grouped in blocks of ``BLOCK_PATHS``, and each block has a generator
of its own, seeded by hashing the block's identity.  Under master seed ``s``,
block ``b`` is drawn as ``standard_normal((n_steps, BLOCK_PATHS) + rest)`` from
``SFC64(SeedSequence([s, substream, b]))``, and path ``i`` is column
``i % BLOCK_PATHS`` of block ``i // BLOCK_PATHS``.  The increments of a path are
therefore a pure function of ``(master_seed, substream, path_index)`` --
independent of how many other paths were simulated, in what order, or on which
worker -- and the first ``k`` steps of a draw equal a ``k``-step draw.
``SeedSequence`` hashes its whole entropy list, so distinct blocks, substreams
and seeds start from well-separated states.

The package draws from substreams 0 and 2 only.  ``paths.standard_noise``
draws a path's zeta and its increments (substream 0) or its KL modes
(substream 2) as one record, and ``paths.standard_increments`` and
``paths.standard_modes`` draw increments or modes alone from the same two.
Substream 1 is no longer drawn; the other two keep their numbers, so the
draws that read no zeta keep their bits.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["PathStreams", "derive_seed"]

BLOCK_PATHS = 256


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 64-bit sub-seed for a named task under one master seed."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    mixed = np.random.SeedSequence([master_seed & (2**64 - 1), int.from_bytes(digest, "big")])
    return int(mixed.generate_state(1, np.uint64)[0])


class PathStreams:
    """Per-path normal variates from block-keyed SFC64 streams.

    Holds no generator state between calls, so one instance may serve several
    threads at once.
    """

    def __init__(self, master_seed: int, substream: int = 0):
        self.master_seed = int(master_seed) & (2**64 - 1)
        self.substream = int(substream) & (2**64 - 1)

    def fill_normals(self, path_indices: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Stack of per-path normals, leading axis ordered as ``path_indices``.

        ``shape[0]`` is the step axis.  Each block that holds a requested path is
        drawn once per call; the paths of a block that sit in consecutive rows
        with consecutive indices are copied as one strided slice.  The copy
        moves the w = prod(shape[1:]) normals of one (path, step) as a single
        8w-byte record, a 2-d transpose of records, so the bits do not change.
        The blocks are drawn one after another on the calling thread, into one
        buffer.  Path indices must be a nonnegative integer array (int64 or
        uint64 holds any index): any other dtype, such as the object array of
        an index of 2**64 or more, is refused with ``ValueError`` before a
        block is drawn.
        """
        idx = np.asarray(path_indices)
        shape = tuple(shape)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"path indices must be an integer array, got dtype {idx.dtype}")
        if idx.size and idx.min() < 0:
            raise ValueError(f"path indices out of range: [{idx.min()}, {idx.max()}]")
        out = np.empty((idx.size,) + shape)
        n_steps, w = shape[0], math.prod(shape[1:])
        if out.size == 0:
            return out
        record = np.dtype((np.void, 8 * w))
        out_rec = out.reshape(idx.size, n_steps * w).view(record)   # (P, n_steps)
        block_of = idx // BLOCK_PATHS
        order = np.argsort(block_of, kind="stable")
        blocks, firsts = np.unique(block_of[order], return_index=True)
        ends = np.append(firsts[1:], idx.size)
        # a block is one slice when its paths sit in consecutive rows with
        # consecutive indices: no break between neighbours of the block order
        breaks = np.cumsum((np.diff(order) != 1) | (np.diff(idx[order]) != 1))
        breaks = np.concatenate([[0], breaks])
        whole = (breaks[ends - 1] == breaks[firsts]).tolist()
        buf = np.empty((n_steps, BLOCK_PATHS) + shape[1:])
        buf_rec = buf.reshape(n_steps, BLOCK_PATHS * w).view(record)  # (n_steps, 256)
        for block, lo, hi, one_slice in zip(blocks.tolist(), firsts.tolist(), ends.tolist(), whole):
            bitgen = np.random.SFC64(np.random.SeedSequence(
                [self.master_seed, self.substream, block]))
            np.random.Generator(bitgen).standard_normal(out=buf)
            if one_slice:
                row, col = int(order[lo]), int(idx[order[lo]]) - block * BLOCK_PATHS
                out_rec[row:row + hi - lo] = buf_rec[:, col:col + hi - lo].T
            else:
                rows = order[lo:hi]
                out_rec[rows] = buf_rec[:, idx[rows] - block * BLOCK_PATHS].T
        return out
