"""Traced-run instrumentation: spans around each layer's public entry points.

The program is not edited. For one traced pass, :class:`Instrument` puts a
timing wrapper in place of a public function or method of each layer and
records a span around the original call; leaving the ``with`` block restores
every original. :meth:`Instrument.per_layer` turns the spans into per-layer
metrics.

Where the harness reaches a layer through a name it imported
(``repro.core.harness`` imports ``create_dataset``, ``calibrate`` ...), the
wrapper replaces that imported name, because that is the call site used.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

from repro.models.zoo import MODEL_REGISTRY

from .tracing import Tracer

__all__ = ["Instrument", "nearest_rank"]

# span name -> (per-layer metric, keyed by the span's "key" arg, per sample)
SPAN_METRICS = {
    "models.build": ("models.build_s", True, False),
    "models.fit": ("models.fit_s", True, False),
    "models.build_full": ("models.build_full_s", False, False),
    "graph.export": ("graph.export_s", False, False),
    "datasets.generate": ("datasets.generate_s", True, False),
    "datasets.input_batch": ("datasets.input_batch_ms_per_sample", True, True),
    "graph.plan_compile": ("graph.plan_compile_s", True, False),
    "graph.run": ("graph.run_ms_per_sample", True, True),
    "quantization.calibrate": ("quantization.calibrate_s", True, False),
    "quantization.quantize": ("quantization.quantize_s", False, False),
    "pipelines.postprocess": ("pipelines.postprocess_ms_per_sample", True, True),
    "metrics.evaluate": ("metrics.evaluate_s", True, False),
    "loadgen.run": ("loadgen.self_s", False, False),
    "loadgen.to_dict": ("loadgen.to_dict_s", False, False),
    "loadgen.validate": ("loadgen.validate_s", False, False),
    "backends.compile": ("backends.compile_s", False, False),
    "hardware.issue_query": ("hardware.query_s", False, False),
    "hardware.offline": ("hardware.offline_s", False, False),
    "core.harness": ("core.harness.self_s", False, False),
    "workload": ("trace.unattributed_s", False, False),
}


def _model_of(graph) -> str:
    """Zoo model of a graph: builders name graphs after their model plus size
    suffixes, and deployments append ``__<numerics>``."""
    return max((m for m in MODEL_REGISTRY if graph.name.startswith(m)),
               key=len, default=graph.name)


def _plan_key(graph) -> str:
    return f"{_model_of(graph)}.{graph.numerics.value}"


def _first(*args, **kwargs):
    return args[0]


def _graph_model(graph, *args, **kwargs) -> str:
    return _model_of(graph)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """MLPerf's percentile: the ceil(pct/100 * N)-th smallest value."""
    return sorted_values[max(math.ceil(pct / 100.0 * len(sorted_values)), 1) - 1]


class Instrument:
    """Timing wrappers for one traced pass; a context manager."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.samples: Counter = Counter()  # (span name, key) -> samples
        # plan key -> (profiler, graph, sizes of the batches the profiler timed)
        self.profiles: dict[str, tuple] = {}
        self._undo: list[tuple] = []

    def __enter__(self) -> "Instrument":
        try:
            self._install()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _timed(self, owner, attr: str, name: str, key=None, samples=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        original = getattr(owner, attr)
        span, counts = self.tracer.span, self.samples

        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs) if key else ""
            if samples:
                counts[name, k] += samples(*args, **kwargs)
            with span(name, key=k):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _install(self) -> None:
        import repro.core.harness as harness
        import repro.models.fitting as fitting
        from repro.backends.base import Backend
        from repro.graph.executor import Executor
        from repro.graph.plan import ExecutionPlan
        from repro.graph.profiler import ExecutionProfiler
        from repro.loadgen.scenarios import LoadGenerator
        from repro.loadgen.sut import PerformanceSUT

        self._timed(harness, "create_reference_model", "models.build", key=_first)
        self._timed(fitting, "fit_reference_heads", "models.fit",
                    key=lambda bundle, *a, **kw: _model_of(bundle.graph))
        self._timed(harness, "create_full_model", "models.build_full", key=_first)
        self._timed(harness, "export_mobile", "graph.export", key=_graph_model)
        self._timed(harness, "create_dataset", "datasets.generate", key=_first)
        self._timed(harness, "calibrate", "quantization.calibrate", key=_graph_model)
        self._timed(harness, "quantize_graph", "quantization.quantize")
        self._timed(harness, "convert_fp16", "quantization.quantize")
        self._timed(Backend, "compile_single_stream", "backends.compile")
        self._timed(Backend, "compile_offline", "backends.compile")
        self._timed(LoadGenerator, "run", "loadgen.run")
        self._timed(PerformanceSUT, "run_offline", "hardware.offline")

        span, fold, clock = self.tracer.span, self.tracer.fold, time.perf_counter
        issue_query = PerformanceSUT.issue_query

        def traced_issue_query(sut, indices):
            start = clock()
            latency = issue_query(sut, indices)
            fold("hardware.issue_query", clock() - start)
            return latency

        self._patch(PerformanceSUT, "issue_query", traced_issue_query)

        # a plan-cache hit costs microseconds; a miss is a plan build
        for_graph = ExecutionPlan.for_graph

        def traced_for_graph(graph):
            with span("graph.plan_compile", key=_plan_key(graph)):
                return for_graph(graph)

        self._patch(ExecutionPlan, "for_graph", staticmethod(traced_for_graph))

        run_arena, profiles, counts = Executor.run_arena, self.profiles, self.samples

        def traced_run_arena(executor, feeds, profiler=None):
            key = _plan_key(executor.graph)
            if key not in profiles:
                profiles[key] = (ExecutionProfiler(), executor.graph, [])
            timer, _, batches = profiles[key]
            n = len(next(iter(feeds.values())))
            before = timer.total_seconds
            with span("graph.run", key=key):
                outputs = run_arena(executor, feeds, profiler=timer)
            # a plan's first batch per input shape records the arena layout
            # and reports 0 s per op: only timed batches count as kernel work
            if timer.total_seconds > before:
                batches.append(n)
            counts["graph.run", key] += n
            return outputs

        self._patch(Executor, "run_arena", traced_run_arena)

    def wrap_dataset(self, task: str, dataset) -> None:
        """Time one task's dataset calls made by the accuracy passes."""
        def of_task(*args, **kwargs):
            return task

        self._timed(dataset, "input_batch", "datasets.input_batch", key=of_task,
                    samples=lambda indices, *a, **kw: len(indices))
        self._timed(dataset, "postprocess", "pipelines.postprocess", key=of_task,
                    samples=lambda *a, **kw: 1)
        self._timed(dataset, "evaluate", "metrics.evaluate", key=of_task)

    def per_layer(self, logs) -> dict[str, float]:
        """Per-layer metrics of the traced pass (see ``SPAN_METRICS``)."""
        out: dict[str, float] = defaultdict(float)
        for (name, key), value in self.tracer.self_times().items():
            metric, keyed, per_sample = SPAN_METRICS[name]
            if keyed:
                metric = f"{metric}.{key}"
            if per_sample:
                value = value * 1e3 / max(self.samples[name, key], 1)
            out[metric] += value

        queries = sorted(self.tracer.folded.get("hardware.issue_query", []))
        out["hardware.query_count"] = len(queries)
        if queries:
            out["hardware.query_us_p50"] = nearest_rank(queries, 50) * 1e6
            out["hardware.query_us_p99"] = nearest_rank(queries, 99) * 1e6
        out["loadgen.queries"] = sum(len(log.records) for log in logs)
        out["loadgen.retries"] = sum(log.metadata.get("fault_retries", 0) for log in logs)
        out["loadgen.dropped"] = sum(log.metadata.get("dropped_queries", 0) for log in logs)

        # kernels: profiled ms, Op.macs, and bytes computed from tensor and
        # weight sizes (activations per sample, weights once per batch)
        for timer, graph, batches in self.profiles.values():
            for op in timer.ops.values():
                out[f"kernels.{op.op_type}.ms"] += op.total_seconds * 1e3
            for op, cost in graph.op_costs():
                out[f"kernels.{op.op_type}.macs"] += cost.macs * sum(batches)
                out[f"kernels.{op.op_type}.bytes"] += (
                    cost.activation_bytes * sum(batches) + cost.weight_bytes * len(batches)
                )
        return {name: float(value) for name, value in out.items()}
