"""Counter-based random streams for reproducible, order-independent path simulation.

Every path owns a disjoint block of the 256-bit Philox counter space: path ``i``
under master seed ``s`` draws from ``Philox(key=(s, substream), counter=i << 128)``.
The increments of a path are therefore a pure function of
``(master_seed, substream, path_index)`` -- independent of how many other paths
were simulated, in what order, or on which worker.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["PathStreams", "derive_seed"]

_COUNTER_WORDS = 4
_PATH_WORD = 2  # counter word 2 <=> jump of path_index * 2**128


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 64-bit sub-seed for a named task under one master seed."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    mixed = np.random.SeedSequence([master_seed & (2**64 - 1), int.from_bytes(digest, "big")])
    return int(mixed.generate_state(1, np.uint64)[0])


class PathStreams:
    """Per-path normal variates from counter-partitioned Philox streams.

    Not thread safe: the single underlying bit generator is re-pointed per path.
    Each worker should own its own instance (construction is cheap).
    """

    def __init__(self, master_seed: int, substream: int = 0):
        self.master_seed = int(master_seed) & (2**64 - 1)
        self.substream = int(substream) & (2**64 - 1)
        self._bitgen = np.random.Philox(key=[self.master_seed, self.substream])
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def _seek(self, path_index: int) -> None:
        st = self._state
        st["state"]["counter"][:] = 0
        st["state"]["counter"][_PATH_WORD] = path_index
        st["buffer_pos"] = _COUNTER_WORDS
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st

    def normals(self, path_index: int, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals for one path, a pure function of the stream identity."""
        if path_index < 0 or path_index >= 2**64:
            raise ValueError(f"path_index out of range: {path_index}")
        self._seek(path_index)
        return self._gen.standard_normal(shape)

    def fill_normals(self, path_indices: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Stack of per-path normals, leading axis ordered as ``path_indices``."""
        out = np.empty((len(path_indices),) + shape)
        for row, idx in enumerate(path_indices):
            self._seek(int(idx))
            out[row] = self._gen.standard_normal(shape)
        return out
