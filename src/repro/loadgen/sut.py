"""System-under-test implementations (paper §4.3).

``AccuracySUT`` really executes the scaled reference graph through a chosen
numerics pipeline and post-processes predictions. ``PerformanceSUT`` wraps a
:class:`SimulatedDevice` plus backend-compiled models: queries return
latencies from the hardware model and mutate thermal state.
"""

from __future__ import annotations

import abc

import numpy as np

from ..datasets.base import TaskDataset
from ..graph.executor import Executor
from ..graph.graph import Graph
from ..hardware.device import OfflineResult, SimulatedDevice
from ..hardware.scheduler import CompiledModel

__all__ = ["SystemUnderTest", "AccuracySUT", "PerformanceSUT"]


class SystemUnderTest(abc.ABC):
    name: str = "sut"

    @abc.abstractmethod
    def issue_query(self, indices: np.ndarray) -> float:
        """Process one query; returns its latency in (virtual) seconds."""


class AccuracySUT(SystemUnderTest):
    """Runs the functional graph through the planned executor; accuracy mode."""

    def __init__(self, graph: Graph, dataset: TaskDataset, name: str = "accuracy-sut"):
        self.graph = graph
        self.dataset = dataset
        self.executor = Executor(graph)
        self.name = name
        self.predictions: dict[int, object] = {}

    def issue_query(self, indices: np.ndarray) -> float:
        outputs = self.executor.run_arena(self.dataset.input_batch(indices))
        for j, i in enumerate(indices):
            per_sample = {k: v[j] for k, v in outputs.items()}
            self.predictions[int(i)] = self.dataset.postprocess(per_sample, int(i))
        return 0.0  # accuracy mode is untimed

    def evaluate(self) -> dict[str, float]:
        return self.dataset.evaluate(self.predictions)


class PerformanceSUT(SystemUnderTest):
    """Latency/throughput from the hardware simulator; used by perf mode.

    An offline-only SUT passes ``single_stream_model=None`` and its pipelines.
    """

    def __init__(
        self,
        device: SimulatedDevice,
        single_stream_model: CompiledModel | None,
        offline_pipelines: list[CompiledModel] | None = None,
        name: str = "performance-sut",
    ):
        self.device = device
        self.single_stream_model = single_stream_model
        self.offline_pipelines = offline_pipelines or [single_stream_model]
        self.name = name

    def issue_query(self, indices: np.ndarray) -> float:
        return self.device.run_query(self.single_stream_model, batch=len(indices)).latency_seconds

    def run_offline(self, total_samples: int) -> OfflineResult:
        return self.device.run_offline(self.offline_pipelines, total_samples)
