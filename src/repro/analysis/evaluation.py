"""Regeneration of the paper's evaluation artifacts (Figures 6-7, Tables 2-3).

Every function returns plain data structures (dicts/lists) so the benchmark
harness in ``benchmarks/`` can both print the paper-style rows and assert
the shape claims. Performance numbers come from the app's own performance-
mode run (:meth:`repro.core.harness.BenchmarkHarness.run_performance`)
driving the hardware simulator under the default run rules.
"""

from __future__ import annotations

from ..backends.vendors import create_backend, default_backend_for
from ..hardware.device import SimulatedDevice
from ..hardware.soc import GENERATION_PAIRS, SOC_CATALOG, get_soc
from ..loadgen.scenarios import Scenario
from ..core.harness import BenchmarkHarness
from ..core.tasks import TASK_ORDER

__all__ = [
    "ai_tax_breakdown",
    "measure_single_stream",
    "measure_offline",
    "figure6_generational_speedups",
    "figure7_single_stream",
    "table2_configurations",
    "table3_delegate_comparison",
]


def measure_single_stream(
    soc_name: str,
    task: str,
    backend_name: str | None = None,
    version: str | None = None,
) -> dict:
    """p90 latency / throughput for one (SoC, backend, task) combination."""
    soc = get_soc(soc_name)
    harness = BenchmarkHarness(version=version or soc.benchmark_version)
    backend = create_backend(backend_name, soc) if backend_name else default_backend_for(soc)
    device = SimulatedDevice(soc)
    log = harness.run_performance(task, backend, device)
    # the segment count of the model the run compiled; compiling is deterministic
    compiled = backend.compile_single_stream(harness.full_graph(task), task)
    return {
        "soc": soc_name,
        "backend": backend.name,
        "task": task,
        "latency_p90_ms": log.percentile_latency(harness.rules.loadgen.latency_percentile) * 1e3,
        "latency_mean_ms": float(log.latencies().mean()) * 1e3,
        "throughput_fps": log.throughput_fps(),
        "config": backend.describe(task),
        "segments": len(compiled.segments),
        "energy_per_query_mj": device.total_energy_joules / log.query_count * 1e3,
    }


def measure_offline(
    soc_name: str,
    task: str = "image_classification",
    backend_name: str | None = None,
    version: str | None = None,
) -> dict:
    """Offline (batched, ALP) throughput for one combination, via the LoadGen."""
    soc = get_soc(soc_name)
    harness = BenchmarkHarness(version=version or soc.benchmark_version)
    backend = create_backend(backend_name, soc) if backend_name else default_backend_for(soc)
    log = harness.run_performance(task, backend, SimulatedDevice(soc), Scenario.OFFLINE)
    return {
        "soc": soc_name,
        "backend": backend.name,
        "task": task,
        "offline_fps": log.throughput_fps(),
        "config": backend.describe(task, scenario="offline"),
        "pipelines": len(backend.task_execution(task).offline),
        "steady_clock_scale": log.metadata["steady_clock_scale"],
    }


def figure6_generational_speedups() -> dict[str, dict[str, float]]:
    """Per-vendor per-task v0.7 -> v1.0 latency speedups (Figure 6)."""
    speedups: dict[str, dict[str, float]] = {}
    for vendor, (old_soc, new_soc) in GENERATION_PAIRS.items():
        speedups[vendor] = {}
        for task in TASK_ORDER:
            old = measure_single_stream(old_soc, task)
            new = measure_single_stream(new_soc, task)
            speedups[vendor][task] = old["latency_p90_ms"] / new["latency_p90_ms"]
    return speedups


def figure7_single_stream(version: str = "v0.7") -> dict[str, dict[str, dict]]:
    """Per-smartphone-chipset single-stream results (Figure 7 panels)."""
    socs = [
        name for name, soc in SOC_CATALOG.items()
        if soc.benchmark_version == version and soc.form_factor == "smartphone"
    ]
    out: dict[str, dict[str, dict]] = {}
    for soc_name in socs:
        out[soc_name] = {task: measure_single_stream(soc_name, task) for task in TASK_ORDER}
    return out


def table2_configurations(version: str = "v0.7") -> dict[str, dict[str, str]]:
    """The Table-2 grid: execution config strings per SoC per task."""
    grid: dict[str, dict[str, str]] = {}
    for soc_name, soc in SOC_CATALOG.items():
        if soc.benchmark_version != version:
            continue
        backend = default_backend_for(soc)
        row = {task: backend.describe(task) for task in TASK_ORDER}
        row["image_classification_offline"] = backend.describe(
            "image_classification", scenario="offline"
        )
        grid[soc_name] = row
    return grid


def table3_delegate_comparison(soc_name: str = "dimensity_1100") -> dict[str, dict[str, float]]:
    """NNAPI vs Neuron delegate latencies on the vision tasks (Table 3)."""
    tasks = ["image_classification", "object_detection", "semantic_segmentation"]
    out: dict[str, dict[str, float]] = {}
    for backend_name in ("nnapi", "neuron"):
        out[backend_name] = {
            task: measure_single_stream(soc_name, task, backend_name=backend_name)[
                "latency_p90_ms"
            ]
            for task in tasks
        }
    out["improvement_pct"] = {
        task: (out["nnapi"][task] / out["neuron"][task] - 1.0) * 100.0 for task in tasks
    }
    return out


def ai_tax_breakdown(
    soc_name: str,
    task: str,
    backend_name: str | None = None,
    version: str | None = None,
) -> dict:
    """End-to-end vs core-inference latency (App. E, Buch et al.'s AI tax).

    Returns the benchmark's timed latency, the end-to-end latency with
    pre-processing included, and the tax as a percentage of end-to-end time.
    """
    soc = get_soc(soc_name)
    backend = create_backend(backend_name, soc) if backend_name else default_backend_for(soc)
    graph = BenchmarkHarness(version=version or soc.benchmark_version).full_graph(task)
    core = backend.compile_single_stream(graph, task)
    e2e = backend.compile_single_stream(graph, task, end_to_end=True)
    core_ms = core.latency_seconds() * 1e3
    e2e_ms = e2e.latency_seconds() * 1e3
    return {
        "soc": soc_name,
        "task": task,
        "core_ms": core_ms,
        "end_to_end_ms": e2e_ms,
        "ai_tax_pct": (e2e_ms - core_ms) / e2e_ms * 100.0,
    }
