"""Dataset protocol consumed by the LoadGen QSL and the accuracy evaluator.

A dataset owns three things: model-ready input feeds per sample, ground
truth per sample, and the task metric. Synthetic datasets are *oracle
labelled*: ground truth derives from the FP32 reference model's own outputs
plus controlled noise (see DESIGN.md §1) so the relative-accuracy gate —
"a submission must retain >=X% of FP32 quality" — measures exactly what the
real benchmark measures.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator

import numpy as np

__all__ = ["TaskDataset", "IndexDataset", "batched_indices"]


def batched_indices(n: int, batch_size: int) -> Iterator[np.ndarray]:
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))


class TaskDataset(abc.ABC):
    """Abstract synthetic validation set for one benchmark task."""

    name: str = "dataset"
    task: str = "task"
    metric_name: str = "metric"

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        """Model-ready feeds for the given sample indices."""

    @abc.abstractmethod
    def ground_truth(self, index: int) -> Any: ...

    @abc.abstractmethod
    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> Any:
        """Turn one sample's raw model outputs into a prediction object."""

    @abc.abstractmethod
    def evaluate(self, predictions: dict[int, Any]) -> dict[str, float]:
        """Dataset-level metric over {sample index -> prediction}."""

    @abc.abstractmethod
    def calibration_batches(self, batch_size: int = 16) -> list[dict[str, np.ndarray]]:
        """The approved PTQ calibration set (disjoint from validation)."""


class IndexDataset(TaskDataset):
    """Content-free dataset for performance-only runs.

    Performance mode never reads sample bytes from the simulator's
    perspective — the LoadGen only draws seeded indices — so analysis code
    can avoid generating full synthetic datasets when it only needs timing.
    """

    name = "index-only"
    task = "performance-only"
    metric_name = "none"

    def __init__(self, size: int = 1024):
        self._size = size

    def __len__(self) -> int:
        return self._size

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        return {"index": np.asarray(indices)}

    def ground_truth(self, index: int):
        raise NotImplementedError("index-only dataset has no labels")

    def postprocess(self, outputs, index: int):
        raise NotImplementedError("index-only dataset has no predictions")

    def evaluate(self, predictions):
        raise NotImplementedError("index-only dataset has no metric")

    def calibration_batches(self, batch_size: int = 16):
        raise NotImplementedError("index-only dataset has no calibration data")
