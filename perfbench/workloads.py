"""The benchmark's workloads: two cold app-run suites and a simulator sweep.

Every run starts in a fresh process, so the plan cache
(``repro.graph.plan._PLAN_CACHE``) and every model, dataset and graph are
built from nothing. This *cold pass* is what a user waits for; the suites
time it as ``wall_s``. Untraced runs then repeat the parts that are cheap to
repeat (the suites' log checks; whole perf-sweep passes, whose median is its
``wall_s``) and report medians over repetitions.

The seed changes the order and the input stream the system sees, never what
it computes: the suites build their artifacts in a seed-shuffled task order;
the sweep visits (SoC, task) pairs in a seed-shuffled order and draws its
LoadGen sample streams from the seed. Outputs are the same for every seed,
so one golden digest per workload checks them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from functools import partial

from .tracing import null_span

__all__ = ["WORKLOADS", "Pass", "check_logs", "digest"]

SUITE_SOC = "dimensity_1100"
SUITE_VERSION = "v1.0"
SWEEP_ROUNDS = ("v0.7", "v1.0")
SWEEP_MIN_PASSES = 4  # perf-sweep passes per untraced run, at least
CHECK_MIN_S = 1.0  # the suites repeat their log check at least this long
CHECK_MIN_REPEATS = 3


@dataclass
class Pass:
    """What one run of a workload measured, and what it attempted and failed."""

    setup_s: list[float]  # one per set-up made
    wall_s: float  # the cold pass
    items: str  # what run_rates count
    run_items: int
    run_rates: list[float]  # run items per second, one per repetition
    check_rates: list[float]  # log records checked per second, per repetition
    digest: str
    tasks: int = 0  # suite tasks attempted
    degraded: int = 0  # ... of which degraded (error, dropped queries, partial)
    queries: int = 0  # LoadGen queries attempted; an offline burst is one
    dropped: int = 0  # ... of which dropped once their retries ran out
    retries: int = 0  # fault retries (not failures: the query went through)
    violations: list[str] = field(default_factory=list)  # validator findings
    logs: list = field(default_factory=list)  # the traced pass's LoadGen logs
    wall_note: str = "cold pass: set-up, run and log check"

    @property
    def attempted(self) -> int:
        return self.tasks + self.queries

    @property
    def failed(self) -> int:
        # a missed quality gate is an output, checked by the digest, not a failure
        return self.degraded + self.dropped + len(self.violations)

    def count_queries(self, logs) -> None:
        for log in logs:
            dropped = log.metadata.get("dropped_queries", 0)
            self.queries += len(log.records) + dropped + (log.scenario == "offline")
            self.dropped += dropped
            self.retries += log.metadata.get("fault_retries", 0)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_logs(logs, span=null_span) -> tuple[int, float, list[str]]:
    """Serialize and re-validate every log the way ``check_submission`` does.

    Returns (records checked, seconds, violations).
    """
    from repro.loadgen.validation import validate_serialized

    violations: list[str] = []
    start = time.perf_counter()
    for log in logs:
        with span("loadgen.to_dict"):
            payload = log.to_dict()
        with span("loadgen.validate"):
            problems = validate_serialized(payload)
        violations += [f"{log.task}/{log.scenario}/{log.mode}: {p}" for p in problems]
    seconds = time.perf_counter() - start
    return sum(len(log.records) for log in logs), seconds, violations


def run_suite(backend_name: str, seed: int, seconds: float, tracer=None,
              instrument=None) -> Pass:
    """The app's Go button: a cold ``run_suite`` on the Dimensity 1100.

    ``seconds`` is not used: one cold suite is the unit of work.
    """
    from repro.backends.vendors import create_backend
    from repro.core.harness import BenchmarkHarness
    from repro.core.rules import QUICK_RULES
    from repro.core.tasks import tasks_for_version
    from repro.hardware.soc import get_soc

    span = tracer.span if tracer else null_span
    start = time.perf_counter()
    with span("workload"):
        with span("core.harness", key="init"):
            harness = BenchmarkHarness(version=SUITE_VERSION, rules=QUICK_RULES)
        backend = create_backend(backend_name, get_soc(SUITE_SOC))
        tasks = [t.name for t in tasks_for_version(SUITE_VERSION)]
        random.Random(seed).shuffle(tasks)
        setup_start = time.perf_counter()
        for task in tasks:
            with span("core.harness", key="artifacts"):
                harness.artifacts(task)
            with span("core.harness", key="deployment_graph"):
                harness.deployment_graph(task, backend.task_execution(task).numerics)
            with span("core.harness", key="full_graph"):
                harness.full_graph(task)
        setup_s = time.perf_counter() - setup_start
        if instrument is not None:
            for task in tasks:
                instrument.wrap_dataset(task, harness.artifacts(task).dataset)
        run_start = time.perf_counter()
        with span("core.harness", key="run_suite"):
            suite = harness.run_suite(SUITE_SOC, backend_name=backend_name)
        run_s = time.perf_counter() - run_start
        logs = [
            log for r in suite.results
            for log in (r.accuracy_log, r.performance_log, r.offline_log)
            if log is not None
        ]
        records, check_s, violations = check_logs(logs, span)
    wall_s = time.perf_counter() - start

    check_rates = [records / check_s]
    if tracer is None:
        spent = check_s
        while spent < CHECK_MIN_S or len(check_rates) < CHECK_MIN_REPEATS:
            n, s, _ = check_logs(logs)
            check_rates.append(n / s)
            spent += s
    # accuracy mode runs the FP32 reference pass, then the deployment pass
    samples = sum(
        2 * r.accuracy_log.metadata["total_sample_count"]
        for r in suite.results if r.accuracy_log is not None
    )
    outputs = [
        dict(r.to_summary(), latency_mean_ms=round(r.latency_mean_ms, 3))
        for r in suite.results
    ]
    result = Pass(
        setup_s=[setup_s], wall_s=wall_s,
        items="accuracy samples (FP32 reference + deployment) per run_suite second",
        run_items=samples, run_rates=[samples / run_s], check_rates=check_rates,
        digest=digest(outputs), tasks=len(suite.results),
        degraded=len(suite.degraded_tasks), violations=violations, logs=logs,
    )
    result.count_queries(logs)
    return result


def run_perf_sweep(seed: int, seconds: float, tracer=None, instrument=None) -> Pass:
    """Performance mode only: every v0.7/v1.0 SoC x the 4 tasks of its round.

    One *pass* is the whole job: set-up, one sweep, and the check of its logs.
    Traced, one pass runs. Untraced, passes repeat, each with a fresh set-up,
    until ``seconds`` have passed since the run began and at least
    ``SWEEP_MIN_PASSES`` ran; the first is the cold one. ``setup_s`` and
    ``wall_s`` are medians over the passes. The rate is one sweep's queries
    over the sum of each (SoC, task) run's fastest seconds across the passes:
    on a shared host, co-tenants slow whole stretches of a run, and a per-pair
    minimum keeps only the stretches they left alone.
    """
    from repro.hardware.soc import SOC_CATALOG

    span = tracer.span if tracer else null_span
    rng = random.Random(seed)
    socs = [soc for soc in SOC_CATALOG.values() if soc.benchmark_version in SWEEP_ROUNDS]
    start = time.perf_counter()
    with span("workload"):
        first, records, check_s, violations = _sweep_pass(socs, rng, span)
    walls = [first.wall_s]
    result = Pass(
        setup_s=[first.setup_s], wall_s=first.wall_s, items="", run_items=first.queries,
        run_rates=[], check_rates=[records / check_s], digest=digest(first.outputs),
        violations=violations, logs=first.logs,
    )
    result.count_queries(first.logs)
    pair_s = {pair: [run_s] for pair, run_s in first.pair_s.items()}
    if tracer is None:
        first.logs.clear()  # free the records before repeating
        while time.perf_counter() - start < seconds or len(walls) < SWEEP_MIN_PASSES:
            again, records, check_s, problems = _sweep_pass(socs, rng)
            walls.append(again.wall_s)
            result.setup_s.append(again.setup_s)
            result.check_rates.append(records / check_s)
            result.violations += problems
            result.count_queries(again.logs)
            for pair, run_s in again.pair_s.items():
                pair_s[pair].append(run_s)
            if again.outputs != first.outputs:
                result.violations.append("a repeated sweep's outputs differ from the first")
            del again
        result.wall_s = statistics.median(walls)
    result.items = (f"simulated single-stream queries per LoadGenerator.run second, "
                    f"per (SoC, task) the fastest of {len(walls)} pass(es)")
    result.run_rates = [first.queries / sum(min(v) for v in pair_s.values())]
    result.wall_note = f"median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls)
    return result


def _sweep_pass(socs, rng: random.Random, span=null_span):
    """Set-up, one sweep and the check of its logs, timed as one pass."""
    start = time.perf_counter()
    compiled = _sweep_setup(socs, span)
    setup_s = time.perf_counter() - start
    sweep = _sweep(compiled, rng)
    records, check_s, violations = check_logs(sweep.logs, span)
    sweep.setup_s, sweep.wall_s = setup_s, time.perf_counter() - start
    return sweep, records, check_s, violations


def _sweep_setup(socs, span=null_span) -> dict:
    """Full-size graphs, exported once per model, compiled per (SoC, task)."""
    from repro.backends.vendors import default_backend_for
    from repro.core.tasks import TASK_ORDER, get_task
    from repro.graph.converter import export_mobile
    from repro.models.zoo import create_full_model

    graphs: dict = {}
    compiled: dict = {}
    for soc in socs:
        backend = default_backend_for(soc)
        for task in TASK_ORDER:
            spec = get_task(task)
            model = spec.models[soc.benchmark_version]
            if model not in graphs:
                with span("models.build_full", key=model):
                    bundle = create_full_model(model)
                with span("graph.export", key=model):
                    graphs[model] = export_mobile(bundle.graph)
            graph = graphs[model]
            single = backend.compile_single_stream(graph, task)
            offline = backend.compile_offline(graph, task) if spec.offline_scenario else None
            compiled[soc.name, task] = (soc, graph, single, offline)
    return compiled


@dataclass
class _Sweep:
    outputs: dict
    logs: list
    queries: int = 0  # single-stream queries
    pair_s: dict = field(default_factory=dict)  # (SoC, task) -> seconds in its single-stream run
    setup_s: float = 0.0
    wall_s: float = 0.0  # set-up, sweep and log check


def _sweep(compiled: dict, rng: random.Random) -> _Sweep:
    """One single-stream run per (SoC, task), plus offline where the task has it."""
    from repro.core.rules import DEFAULT_RULES
    from repro.datasets.base import IndexDataset
    from repro.hardware.device import SimulatedDevice
    from repro.loadgen.qsl import QuerySampleLibrary
    from repro.loadgen.scenarios import LoadGenerator, Mode, Scenario
    from repro.loadgen.sut import PerformanceSUT

    stream = rng.getrandbits(32)
    single = replace(
        DEFAULT_RULES.loadgen_settings(Scenario.SINGLE_STREAM, Mode.PERFORMANCE), seed=stream
    )
    offline = replace(
        DEFAULT_RULES.loadgen_settings(Scenario.OFFLINE, Mode.PERFORMANCE), seed=stream
    )
    order = sorted(compiled)
    rng.shuffle(order)
    sweep = _Sweep({}, [])
    for soc_name, task in order:
        soc, graph, model, pipelines = compiled[soc_name, task]
        qsl = QuerySampleLibrary(IndexDataset(), single.performance_sample_count, seed=stream)
        # Freeze what is alive (earlier logs of this sweep, set-up objects) out
        # of the collector's reach, so each run pays for collecting its own
        # allocations only, not for how much the sweep already holds.
        gc.freeze()
        start = time.perf_counter()
        log = LoadGenerator(single).run(
            PerformanceSUT(SimulatedDevice(soc), model), qsl,
            task=task, model_name=graph.name,
        )
        sweep.pair_s[soc_name, task] = time.perf_counter() - start
        sweep.queries += log.query_count
        sweep.logs.append(log)
        row = {
            "queries": log.query_count,
            "p90_ms": round(log.percentile_latency() * 1e3, 6) if log.records else None,
        }
        if pipelines is not None:
            qsl = QuerySampleLibrary(IndexDataset(), offline.performance_sample_count, seed=stream)
            log = LoadGenerator(offline).run(
                PerformanceSUT(SimulatedDevice(soc), model, pipelines), qsl,
                task=task, model_name=graph.name,
            )
            sweep.logs.append(log)
            row["offline_fps"] = round(log.throughput_fps(), 3) if log.offline_seconds > 0 else None
        sweep.outputs[f"{soc_name}/{task}"] = row
    gc.unfreeze()
    return sweep


WORKLOADS = {
    "suite-neuron": partial(run_suite, "neuron"),
    "suite-fp32": partial(run_suite, "tflite"),
    "perf-sweep": run_perf_sweep,
}
