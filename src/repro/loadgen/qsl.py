"""Query Sample Library: the LoadGen's view of a data set (paper §4.1).

The QSL owns which samples are resident in memory and hands out seeded
random sample indices, precluding data-set-specific optimizations (the
submitter never knows the order in advance).
"""

from __future__ import annotations

import numpy as np

from ..datasets.base import TaskDataset

__all__ = ["QuerySampleLibrary"]

BLOCK_SIZE = 256  # single-sample queries pre-drawn per RNG call


class QuerySampleLibrary:
    def __init__(
        self,
        dataset: TaskDataset,
        performance_sample_count: int = 1024,
        seed: int = 0x9E3779B9,
    ):
        self.dataset = dataset
        self.performance_sample_count = min(performance_sample_count, len(dataset))
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._loaded: set[int] = set()
        # pre-drawn single-sample query block (see next_query); a spent or
        # discarded block reads as position BLOCK_SIZE
        self._pool: np.ndarray | None = None
        self._block: np.ndarray | None = None
        self._block_pos = BLOCK_SIZE

    @property
    def total_sample_count(self) -> int:
        return len(self.dataset)

    # -- residency ---------------------------------------------------------
    def _invalidate_block(self) -> None:
        self._pool = None
        self._block = None
        self._block_pos = BLOCK_SIZE

    def load_samples(self, indices: np.ndarray) -> None:
        self._loaded.update(int(i) for i in indices)
        self._invalidate_block()

    def unload_samples(self, indices: np.ndarray) -> None:
        self._loaded.difference_update(int(i) for i in indices)
        self._invalidate_block()

    @property
    def loaded_count(self) -> int:
        return len(self._loaded)

    def load_performance_set(self) -> np.ndarray:
        """Load the (seeded) subset used by performance mode."""
        indices = self._rng.choice(
            self.total_sample_count, size=self.performance_sample_count, replace=False
        )
        self.load_samples(indices)
        return np.sort(indices)

    # -- sampling ----------------------------------------------------------
    def _loaded_pool(self) -> np.ndarray:
        if self._pool is None:
            if not self._loaded:
                raise RuntimeError("no samples loaded; call load_performance_set first")
            # sorted, not set-iteration order: the seeded query sequence must
            # be identical across processes regardless of the residency
            # insertion/eviction history that built the set
            self._pool = np.sort(np.fromiter(self._loaded, dtype=np.int64))
        return self._pool

    def next_query(self) -> np.ndarray:
        """One seeded single-sample query: a read-only 1-element view.

        Queries are served from a block of ``BLOCK_SIZE`` indices drawn in
        one RNG call, which yields the same sequence as one size-1 draw per
        query (a size-``B`` draw of the generator equals ``B`` successive
        size-1 draws). The single-stream scenario calls this once per query.
        The block is discarded whenever residency changes, so the stream
        after a residency change starts a fresh block.
        """
        pos = self._block_pos
        if pos == BLOCK_SIZE:
            self._block = self._rng.choice(self._loaded_pool(), size=BLOCK_SIZE, replace=True)
            self._block.flags.writeable = False
            pos = 0
        self._block_pos = pos + 1
        return self._block[pos : pos + 1]

    def get_feeds(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        missing = [int(i) for i in indices if int(i) not in self._loaded]
        if missing:
            raise RuntimeError(f"query references unloaded samples: {missing[:5]}")
        return self.dataset.input_batch(np.asarray(indices))
