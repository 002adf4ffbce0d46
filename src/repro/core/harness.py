"""The benchmark harness: runs the suite under the run rules.

Drives both modes per task in the prescribed order (accuracy over the full
validation set first, then performance; paper §6.1), with cooldown intervals
between tests. Reference artifacts (scaled models, datasets, quantized
variants) are built once per harness; full-size graphs once per process.

Every performance-mode run, the app's and the paper's Figures 6-7 and Tables
2-3 alike, goes through :meth:`BenchmarkHarness.run_performance`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..backends.base import Backend
from ..backends.vendors import create_backend, default_backend_for
from ..datasets.base import IndexDataset
from ..datasets.registry import create_dataset, dataset_size
from ..graph.converter import export_mobile
from ..graph.graph import Graph
from ..hardware.device import SimulatedDevice
from ..hardware.soc import get_soc
from ..kernels.numerics import Numerics
from ..loadgen.logging import LoadGenLog
from ..loadgen.qsl import QuerySampleLibrary
from ..loadgen.scenarios import LoadGenerator, Mode, Scenario
from ..loadgen.sut import AccuracySUT, PerformanceSUT
from ..models.common import ModelBundle
from ..models.zoo import create_full_model, create_reference_model
from ..quantization.ptq import calibrate, convert_fp16, quantize_graph
from .results import BenchmarkResult, SuiteResult
from .rules import DEFAULT_RULES, RunRules
from .tasks import FULL_TASK_ORDER, TaskSpec, get_task, tasks_for_version

__all__ = ["ReferenceArtifacts", "BenchmarkHarness", "full_graph"]


@functools.cache
def full_graph(model_name: str) -> Graph:
    """The exported full-size graph of ``model_name``, built once per process.

    Exported graphs are frozen (read-only params), so every harness and every
    analysis run shares one copy.
    """
    return export_mobile(create_full_model(model_name).graph)


@dataclass
class ReferenceArtifacts:
    """Everything accuracy mode needs for one task."""

    bundle: ModelBundle
    fp32_graph: Graph  # exported (frozen) reference
    dataset: object
    quantized: dict[Numerics, Graph] = field(default_factory=dict)
    fp32_accuracy: dict[str, float] | None = None


class BenchmarkHarness:
    def __init__(
        self,
        version: str = "v1.0",
        rules: RunRules = DEFAULT_RULES,
        ambient_c: float = 22.0,
        dataset_sizes: dict[str, int] | None = None,
        seed: int = 0,
    ):
        rules.validate_conditions(ambient_c)
        self.version = version
        self.rules = rules
        self.ambient_c = ambient_c
        self.dataset_sizes = dataset_sizes or {}
        self.seed = seed
        self._artifacts: dict[str, ReferenceArtifacts] = {}

    # -- artifact construction ----------------------------------------------
    def model_for(self, task: str) -> str:
        model = get_task(task).models.get(self.version)
        if model is None:
            raise KeyError(f"task {task!r} is not part of {self.version}")
        return model

    def artifacts(self, task: str) -> ReferenceArtifacts:
        if task not in self._artifacts:
            model_name = self.model_for(task)
            bundle = create_reference_model(model_name, seed=self.seed or None)
            fp32 = export_mobile(bundle.graph)
            spec = get_task(task)
            size = self.dataset_sizes.get(spec.dataset)
            dataset = create_dataset(spec.dataset, fp32, bundle.config, size=size)
            self._artifacts[task] = ReferenceArtifacts(bundle, fp32, dataset)
        return self._artifacts[task]

    def deployment_graph(self, task: str, numerics: Numerics) -> Graph:
        """The rules-compliant deployment model at the requested numerics."""
        art = self.artifacts(task)
        if numerics == Numerics.FP32:
            return art.fp32_graph
        if numerics not in art.quantized:
            if numerics == Numerics.FP16:
                art.quantized[numerics] = convert_fp16(art.fp32_graph)
            else:
                stats = calibrate(art.fp32_graph, art.dataset.calibration_batches())
                art.quantized[numerics] = quantize_graph(art.fp32_graph, stats, numerics)
        return art.quantized[numerics]

    def full_graph(self, task: str) -> Graph:
        return full_graph(self.model_for(task))

    # -- individual runs ------------------------------------------------------
    def run_accuracy(self, task: str, numerics: Numerics) -> LoadGenLog:
        """Accuracy mode: the whole validation set through the real executor."""
        art = self.artifacts(task)
        graph = self.deployment_graph(task, numerics)
        sut = AccuracySUT(graph, art.dataset, name=f"accuracy/{graph.name}")
        settings = self.rules.loadgen_settings(Scenario.SINGLE_STREAM, Mode.ACCURACY)
        return LoadGenerator(settings).run(
            sut, QuerySampleLibrary(art.dataset),
            task=task, model_name=self.model_for(task),
        )

    def fp32_accuracy(self, task: str) -> dict[str, float]:
        art = self.artifacts(task)
        if art.fp32_accuracy is None:
            art.fp32_accuracy = self.run_accuracy(task, Numerics.FP32).accuracy
        return art.fp32_accuracy

    def run_performance(
        self, task: str, backend: Backend, device: SimulatedDevice,
        scenario: Scenario = Scenario.SINGLE_STREAM,
    ) -> LoadGenLog:
        """Performance mode on the full-size graph, single-stream or offline.

        A performance SUT reads only a query's batch size, so the QSL draws,
        seeded by the run rules, over as many content-free indices as the
        task's dataset has samples.
        """
        graph = self.full_graph(task)
        if scenario is Scenario.OFFLINE:
            kind, model, pipelines = "offline", None, backend.compile_offline(graph, task)
        else:
            kind, model, pipelines = "perf", backend.compile_single_stream(graph, task), None
        sut = PerformanceSUT(
            device, model, pipelines, name=f"{kind}/{backend.soc.name}/{backend.name}"
        )
        settings = self.rules.loadgen_settings(scenario, Mode.PERFORMANCE)
        dataset = get_task(task).dataset
        qsl = QuerySampleLibrary(
            IndexDataset(dataset_size(dataset, self.dataset_sizes.get(dataset))),
            settings.performance_sample_count, seed=settings.seed,
        )
        return LoadGenerator(settings).run(sut, qsl, task=task, model_name=self.model_for(task))

    # -- the suite ------------------------------------------------------------
    def run_suite(
        self,
        soc_name: str,
        backend_name: str | None = None,
        tasks: list[str] | None = None,
        include_offline: bool = True,
    ) -> SuiteResult:
        """Run the full benchmark the way the app's "Go" button does."""
        soc = get_soc(soc_name)
        backend = (
            create_backend(backend_name, soc) if backend_name else default_backend_for(soc)
        )
        device = SimulatedDevice(soc, ambient_c=self.ambient_c)
        selected = tasks or [t.name for t in tasks_for_version(self.version)]
        suite = SuiteResult(soc_name, backend.name, self.version)
        for task in FULL_TASK_ORDER:
            if task not in selected:
                continue
            try:
                suite.results.append(
                    self._run_task(task, backend, device, soc_name, include_offline)
                )
            except Exception as exc:  # degrade, don't crash mid-suite
                def _safe(fn, default=""):
                    try:
                        return fn()
                    except Exception:
                        return default

                suite.results.append(
                    BenchmarkResult(
                        task=task,
                        version=self.version,
                        model_name=_safe(lambda: self.model_for(task)),
                        soc_name=soc_name,
                        backend_name=backend.name,
                        execution_config=_safe(lambda: backend.describe(task)),
                        numerics=_safe(
                            lambda: backend.task_execution(task).numerics.value
                        ),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        return suite

    def _run_task(
        self,
        task: str,
        backend: Backend,
        device: SimulatedDevice,
        soc_name: str,
        include_offline: bool,
    ) -> BenchmarkResult:
        spec = get_task(task)
        exec_cfg = backend.task_execution(task)
        numerics = exec_cfg.numerics

        fp32_acc = self.fp32_accuracy(task)
        acc_log = self.run_accuracy(task, numerics)
        target = spec.quality_ratio[self.version] * fp32_acc[spec.metric]
        passed = acc_log.accuracy.get(spec.metric, 0.0) >= target

        perf_log = self.run_performance(task, backend, device)
        device.cooldown(self.rules.cooldown_s)

        result = BenchmarkResult(
            task=task,
            version=self.version,
            model_name=self.model_for(task),
            soc_name=soc_name,
            backend_name=backend.name,
            execution_config=backend.describe(task),
            numerics=numerics.value,
            accuracy=acc_log.accuracy,
            fp32_accuracy=fp32_acc,
            metric=spec.metric,
            quality_target=target,
            quality_passed=passed,
            latency_p90_ms=perf_log.percentile_latency(self.rules.loadgen.latency_percentile) * 1e3,
            latency_mean_ms=float(perf_log.latencies().mean()) * 1e3,
            throughput_fps=perf_log.throughput_fps(),
            energy_per_query_mj=(
                device.total_energy_joules / max(perf_log.query_count, 1) * 1e3
            ),
            accuracy_log=acc_log,
            performance_log=perf_log,
        )
        if include_offline and spec.offline_scenario:
            off_log = self.run_performance(task, backend, device, Scenario.OFFLINE)
            if off_log.offline_seconds > 0:
                result.offline_fps = off_log.throughput_fps()
            result.offline_log = off_log
            device.cooldown(self.rules.cooldown_s)
        return result
