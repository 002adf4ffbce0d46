"""Dataset protocol consumed by the LoadGen QSL and the accuracy evaluator.

A dataset holds three things: model-ready validation feeds (graph input
name -> per-sample array), ground truth per sample, and calibration feeds
(the approved PTQ calibration set, disjoint from validation). The base
class serves all three; each task's dataset states only how it generates
them, how one sample's raw outputs become a prediction (``postprocess``)
and the task metric (``score``). Synthetic datasets are *oracle labelled*
where real labels cannot exist: SQuAD's ground truth derives from the FP32
reference model's own outputs plus controlled noise (see DESIGN.md §1), so
the relative-accuracy gate — "a submission must retain >=X% of FP32
quality" — measures exactly what the real benchmark measures.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

__all__ = ["TaskDataset", "IndexDataset", "feed_batches"]

CALIBRATION_BATCH = 16  # samples per calibration batch


def feed_batches(feeds: dict[str, np.ndarray], batch: int) -> list[dict[str, np.ndarray]]:
    """Consecutive ``batch``-sample slices of per-sample feeds (the last may be short)."""
    n = len(next(iter(feeds.values())))
    cuts = np.arange(batch, n, batch)
    split = {name: np.split(values, cuts) for name, values in feeds.items()}
    return [dict(zip(split, parts)) for parts in zip(*split.values())]


class TaskDataset(abc.ABC):
    """Synthetic validation set plus calibration set for one benchmark task."""

    name: str = "dataset"
    task: str = "task"
    metric_name: str = "metric"

    def __init__(self, feeds: dict[str, np.ndarray], truths: Sequence,
                 calibration: dict[str, np.ndarray]):
        self.feeds = feeds
        self.truths = truths
        self.calibration = calibration

    def __len__(self) -> int:
        return len(self.truths)

    def input_batch(self, indices: np.ndarray) -> dict[str, np.ndarray]:
        """Model-ready feeds for the given sample indices."""
        indices = np.asarray(indices)
        return {name: values[indices] for name, values in self.feeds.items()}

    def ground_truth(self, index: int) -> Any:
        return self.truths[index]

    def calibration_batches(self) -> list[dict[str, np.ndarray]]:
        """The approved PTQ calibration set (disjoint from validation)."""
        return feed_batches(self.calibration, CALIBRATION_BATCH)

    def evaluate(self, predictions: dict[int, Any]) -> dict[str, float]:
        """Dataset-level metric over {sample index -> prediction}."""
        idx = sorted(predictions)
        return self.score([predictions[i] for i in idx], [self.truths[i] for i in idx])

    @abc.abstractmethod
    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> Any:
        """Turn one sample's raw model outputs into a prediction object."""

    @abc.abstractmethod
    def score(self, predictions: list, truths: list) -> dict[str, float]:
        """The task metric over aligned predictions and ground truths."""


class IndexDataset(TaskDataset):
    """Content-free dataset for performance-only runs.

    Performance mode never reads sample bytes from the simulator's
    perspective — the LoadGen only draws seeded indices — so performance-mode
    runs draw over one of these instead of generating the synthetic dataset.
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

    def score(self, predictions, truths):
        raise NotImplementedError("index-only dataset has no metric")

    def calibration_batches(self):
        raise NotImplementedError("index-only dataset has no calibration data")
