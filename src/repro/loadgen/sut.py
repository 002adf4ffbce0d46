"""System-under-test implementations (paper §4.3).

``AccuracySUT`` really executes the scaled reference graph through a chosen
numerics pipeline and post-processes predictions. ``PerformanceSUT`` wraps a
:class:`SimulatedDevice` plus backend-compiled models: queries return
latencies from the hardware model and mutate thermal state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..datasets.base import TaskDataset
from ..graph.executor import Executor
from ..graph.graph import Graph
from ..hardware.device import SimulatedDevice
from ..hardware.scheduler import CompiledModel, offline_throughput

__all__ = ["SystemUnderTest", "AccuracySUT", "PerformanceSUT", "OfflineResult"]


@dataclass(frozen=True)
class OfflineResult:
    total_samples: int
    total_seconds: float
    steady_clock_scale: float
    energy_joules: float

    @property
    def throughput_fps(self) -> float:
        return self.total_samples / self.total_seconds


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
    """Latency/throughput from the hardware simulator; used by perf mode."""

    def __init__(
        self,
        device: SimulatedDevice,
        single_stream_model: CompiledModel,
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
        """Offline burst: ALP pipelines at thermal steady state.

        Batched execution with concurrent engines saturates the chip: it runs
        flat-out at the TDP cap, settles at the corresponding steady-state
        temperature, and the sustained throughput carries that throttle.
        """
        soc = self.device.soc
        power = soc.tdp_watts
        steady_temp = self.device.thermal.ambient_c + power * soc.thermal_resistance
        over = steady_temp - soc.throttle_temp
        clock = 1.0 if over <= 0 else max(
            self.device.thermal.min_clock_scale, 1.0 - soc.throttle_slope * over
        )
        fps = offline_throughput(self.offline_pipelines) * clock
        total_seconds = total_samples / fps
        energy = power * total_seconds
        self.device.thermal.temperature_c = max(
            self.device.thermal.temperature_c, min(steady_temp, 95.0)
        )
        self.device.virtual_time += total_seconds
        self.device.total_energy_joules += energy
        return OfflineResult(total_samples, total_seconds, clock, energy)
