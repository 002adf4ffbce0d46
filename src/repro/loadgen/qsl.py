"""Query Sample Library: the LoadGen's view of a data set (paper §4.1).

The QSL owns which samples are resident in memory and hands out seeded
random sample indices, precluding data-set-specific optimizations (the
submitter never knows the order in advance).
"""

from __future__ import annotations

import numpy as np

from ..datasets.base import TaskDataset

__all__ = ["QuerySampleLibrary"]

BLOCK_SIZE = 256  # single-query indices pre-drawn per RNG call


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
        # pre-drawn single-query index block (see next_sample_index)
        self._pool: np.ndarray | None = None
        self._block: np.ndarray | None = None
        self._block_pos = 0

    @property
    def total_sample_count(self) -> int:
        return len(self.dataset)

    # -- residency ---------------------------------------------------------
    def _invalidate_block(self) -> None:
        self._pool = None
        self._block = None
        self._block_pos = 0

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

    def sample_indices(self, n: int) -> np.ndarray:
        """Seeded random selection of ``n`` loaded query samples."""
        return self._rng.choice(self._loaded_pool(), size=n, replace=True)

    def next_sample_index(self) -> int:
        """One single-query draw, served from a pre-drawn index block.

        Emits exactly the same sequence as repeated ``sample_indices(1)``
        calls for the same seed (one size-``B`` draw of the generator equals
        ``B`` successive size-1 draws), but amortizes the RNG and pool-array
        overhead over ``BLOCK_SIZE`` queries — the single-stream scenario
        calls this once per query. The block is discarded whenever residency
        changes, so don't interleave residency mutation with an in-flight
        block if the exact legacy stream matters.
        """
        if self._block is None or self._block_pos >= len(self._block):
            self._block = self._rng.choice(
                self._loaded_pool(), size=BLOCK_SIZE, replace=True
            )
            self._block_pos = 0
        idx = int(self._block[self._block_pos])
        self._block_pos += 1
        return idx

    def get_feeds(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        missing = [int(i) for i in indices if int(i) not in self._loaded]
        if missing:
            raise RuntimeError(f"query references unloaded samples: {missing[:5]}")
        return self.dataset.input_batch(np.asarray(indices))
