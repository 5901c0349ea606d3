"""Block-keyed random streams for reproducible, order-independent path simulation.

Paths are grouped in blocks of ``BLOCK_PATHS``, and each block has a generator
of its own, seeded by hashing the block's identity.  Under master seed ``s``,
block ``b`` is drawn as ``standard_normal((n_steps, BLOCK_PATHS) + rest)`` from
``SFC64(SeedSequence([s, substream, b]))``, and path ``i`` is column
``i % BLOCK_PATHS`` of block ``i // BLOCK_PATHS``.  Every draw is one contiguous
run of paths, and the increments of a path are a pure function of
``(master_seed, substream, path_index)`` -- the same in any run that holds the
path, whatever its length and on whichever worker it is drawn -- and the first
``k`` steps of a draw equal a ``k``-step draw.
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
        """Stack of per-path normals (P, *shape) for the run of paths
        ``path_indices``, row k holding path ``path_indices[k]``.

        ``shape[0]`` is the step axis.  ``path_indices`` must be a contiguous
        ascending run start, start + 1, ..., stop - 1 of nonnegative integers,
        possibly empty, as an integer array (int64 or uint64 holds any index).
        Anything else -- another dtype, such as the object array of an index of
        2**64 or more, a negative start, a gap, a repeat or a descending step
        -- is refused with ``ValueError`` before a block is seeded.  Each block
        that overlaps the run is drawn once, one after another on the calling
        thread into one buffer, and its overlap is copied as one slice.  The
        copy moves the w = prod(shape[1:]) normals of one (path, step) as a
        single 8w-byte record, a 2-d transpose of records, so the bits do not
        change.
        """
        idx = np.asarray(path_indices)
        shape = tuple(shape)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"path indices must be an integer array, got dtype {idx.dtype}")
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or np.any(np.diff(idx) != 1))):
            raise ValueError("path indices must be a contiguous ascending run of "
                             f"nonnegative integers, got {idx}")
        out = np.empty((idx.size,) + shape)
        if out.size == 0:
            return out
        start, stop = int(idx[0]), int(idx[0]) + idx.size
        n_steps, w = shape[0], math.prod(shape[1:])
        record = np.dtype((np.void, 8 * w))
        out_rec = out.reshape(idx.size, n_steps * w).view(record)   # (P, n_steps)
        buf = np.empty((n_steps, BLOCK_PATHS) + shape[1:])
        buf_rec = buf.reshape(n_steps, BLOCK_PATHS * w).view(record)  # (n_steps, 256)
        for block in range(start // BLOCK_PATHS, (stop - 1) // BLOCK_PATHS + 1):
            bitgen = np.random.SFC64(np.random.SeedSequence(
                [self.master_seed, self.substream, block]))
            np.random.Generator(bitgen).standard_normal(out=buf)
            base = block * BLOCK_PATHS
            lo, hi = max(start, base), min(stop, base + BLOCK_PATHS)
            out_rec[lo - start:hi - start] = buf_rec[:, lo - base:hi - base].T
        return out
