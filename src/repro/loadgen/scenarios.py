"""Execution scenarios and the LoadGen driver (paper §4.1-4.2, §6.1).

Single-stream: one query at a time, sample size 1, at least 1,024 samples
AND at least 60 seconds; the metric is 90th-percentile latency. Offline:
one burst of 24,576 samples; the metric is average throughput. Submitters
may not modify this module's behaviour (enforced by checksum in the
submission checker).

Fault tolerance: per-query faults (:class:`~repro.loadgen.faults.QueryFault`,
NaN or non-positive latencies) are retried within a bounded per-query
budget; only a query whose first attempt fails takes the retry path. A
query that exhausts its retries is *dropped* and counted in the log's
metadata; when drops exceed the run's drop budget the run stops early
and is marked partial. Either way the run returns a log the validator will
flag, instead of crashing the suite.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .faults import QueryFault
from .logging import LoadGenLog, RecordColumns
from .qsl import QuerySampleLibrary
from .sut import SystemUnderTest

__all__ = [
    "Scenario", "Mode", "TestSettings", "LoadGenerator", "CHECKSUM_MODULES", "loadgen_checksum",
]

# What loadgen_checksum hashes, in this order: every LoadGen module but the
# SUT (the submitter's side) and validation (the checker's); DESIGN.md §7.
CHECKSUM_MODULES = (
    "repro.loadgen",
    "repro.loadgen.faults",
    "repro.loadgen.logging",
    "repro.loadgen.qsl",
    "repro.loadgen.scenarios",
)

_NO_SAMPLES = np.empty(0, dtype=np.int64)
_INVALID = "invalid latency reading {!r}"


class Scenario(enum.Enum):
    SINGLE_STREAM = "single_stream"
    OFFLINE = "offline"


class Mode(enum.Enum):
    PERFORMANCE = "performance"
    ACCURACY = "accuracy"


@dataclass(frozen=True)
class TestSettings:
    """Run-rule constants (§6.1). Defaults are the benchmark's own."""

    scenario: Scenario = Scenario.SINGLE_STREAM
    mode: Mode = Mode.PERFORMANCE
    min_query_count: int = 1024
    min_duration_s: float = 60.0
    offline_sample_count: int = 24576
    performance_sample_count: int = 1024
    seed: int = 0x9E3779B9
    latency_percentile: float = 90.0
    # accuracy mode packs this many samples into each batched graph execution;
    # results are per-sample and independent of the packing, so this is a
    # harness-throughput knob, not a run rule
    accuracy_batch_size: int = 32
    # fault tolerance: how many times one query may be retried after a fault,
    # and how many queries may be dropped (retries exhausted) before the run
    # aborts as partial
    query_retry_budget: int = 3
    query_drop_budget: int = 16

    def __post_init__(self) -> None:
        if self.min_query_count < 1:
            raise ValueError("min_query_count must be positive")
        if self.min_duration_s < 0:
            raise ValueError("min_duration_s cannot be negative")
        if self.accuracy_batch_size < 1:
            raise ValueError("accuracy_batch_size must be positive")
        if not 0.0 < self.latency_percentile <= 100.0:
            raise ValueError("latency_percentile must be in (0, 100]")
        if self.query_retry_budget < 0 or self.query_drop_budget < 0:
            raise ValueError("retry/drop budgets cannot be negative")


class LoadGenerator:
    """Drives a SUT according to the scenario's query pattern."""

    def __init__(self, settings: TestSettings):
        self.settings = settings

    def run(
        self,
        sut: SystemUnderTest,
        qsl: QuerySampleLibrary,
        *,
        task: str = "task",
        model_name: str = "model",
    ) -> LoadGenLog:
        s = self.settings
        log = LoadGenLog(
            scenario=s.scenario.value,
            mode=s.mode.value,
            task=task,
            model_name=model_name,
            sut_name=sut.name,
            seed=s.seed,
            min_query_count=s.min_query_count,
            min_duration_s=s.min_duration_s,
            latency_percentile=s.latency_percentile,
        )
        if s.mode == Mode.ACCURACY:
            self._run_accuracy(sut, qsl, log)
        elif s.scenario == Scenario.SINGLE_STREAM:
            self._run_single_stream(sut, qsl, log)
        else:
            self._run_offline(sut, qsl, log)
        log.metadata["loadgen_checksum"] = loadgen_checksum()
        return log

    # -- fault-tolerant query issue -----------------------------------------
    def _attempt(self, sut: SystemUnderTest, indices: np.ndarray) -> tuple[float | None, str]:
        """One issue of a query: ``(latency, "")`` if valid, else ``(None, why)``.

        Invalid means a raised :class:`QueryFault` or a missing, non-finite
        or (in performance mode) non-positive latency reading.
        """
        try:
            latency = sut.issue_query(indices)
        except QueryFault as exc:
            return None, str(exc)
        if latency is None or not math.isfinite(latency) or (
            self.settings.mode == Mode.PERFORMANCE and latency <= 0
        ):
            return None, _INVALID.format(latency)
        return float(latency), ""

    def _retry(
        self, sut: SystemUnderTest, indices: np.ndarray, log: LoadGenLog, fault: str
    ) -> float | None:
        """The rest of a query whose first attempt failed with ``fault``.

        Counts each failed attempt in ``fault_retries`` and retries within
        the per-query budget. Returns the first valid latency, or ``None``
        once the budget is spent (the caller records a dropped query).
        """
        meta = log.metadata
        for _ in range(self.settings.query_retry_budget):
            meta["fault_retries"] = meta.get("fault_retries", 0) + 1
            latency, why = self._attempt(sut, indices)
            if not why:
                return latency
            fault = why
        meta["fault_retries"] = meta.get("fault_retries", 0) + 1
        meta["dropped_queries"] = meta.get("dropped_queries", 0) + 1
        meta["last_fault"] = fault
        return None

    def _drop_budget_exhausted(self, log: LoadGenLog) -> bool:
        if log.metadata.get("dropped_queries", 0) > self.settings.query_drop_budget:
            log.metadata["partial"] = True
            log.metadata["partial_reason"] = (
                f"dropped {log.metadata['dropped_queries']} queries, over the "
                f"budget of {self.settings.query_drop_budget}"
            )
            return True
        return False

    # -- scenarios -----------------------------------------------------------
    def _run_accuracy(self, sut: SystemUnderTest, qsl: QuerySampleLibrary, log: LoadGenLog) -> None:
        """Feed the *entire* data set to verify model quality (§4.1)."""
        n = qsl.total_sample_count
        log.metadata["total_sample_count"] = n
        all_indices = np.arange(n)
        qsl.load_samples(all_indices)
        batch = self.settings.accuracy_batch_size
        now = 0.0  # virtual seconds
        issue_time, latencies, batches = [], [], []
        for start in range(0, n, batch):
            idx = all_indices[start : start + batch]
            latency, fault = self._attempt(sut, idx)
            if fault:
                latency = self._retry(sut, idx, log, fault)
            if latency is None:
                if self._drop_budget_exhausted(log):
                    break
                continue
            issue_time.append(now)
            latencies.append(latency)
            batches.append(idx)
            now += max(latency, 1e-9)
        log.records = RecordColumns(
            issue_time, latencies, np.zeros(len(latencies)),
            np.concatenate(batches) if batches else _NO_SAMPLES,
            np.cumsum([0] + [len(b) for b in batches]),
        )
        evaluate = getattr(sut, "evaluate", None)
        if callable(evaluate):
            log.accuracy = evaluate()

    def _run_single_stream(
        self, sut: SystemUnderTest, qsl: QuerySampleLibrary, log: LoadGenLog
    ) -> None:
        """Inject one sample, wait for completion, repeat (§4.2).

        Per query: one QSL draw, one ``issue_query`` call, one validity test
        and one temperature read. Only a query whose first attempt is invalid
        takes the retry path, which keeps every fault count.
        """
        s = self.settings
        qsl.load_performance_set()
        issue = sut.issue_query
        thermal = getattr(getattr(sut, "device", None), "thermal", None)
        min_queries, min_duration = s.min_query_count, s.min_duration_s
        now = 0.0  # virtual seconds
        issue_time, latencies, temperature, samples = [], [], [], []
        while len(latencies) < min_queries or now < min_duration:
            query = qsl.next_query()
            try:
                latency = issue(query)
            except QueryFault as exc:
                latency = self._retry(sut, query, log, str(exc))
            else:
                if latency is None or not 0.0 < latency < math.inf:
                    latency = self._retry(sut, query, log, _INVALID.format(latency))
            if latency is None:
                if self._drop_budget_exhausted(log):
                    break
                continue
            issue_time.append(now)
            latencies.append(latency)
            temperature.append(thermal.temperature_c if thermal is not None else 0.0)
            samples.append(query)
            now += latency
        log.records = RecordColumns(
            issue_time, latencies, temperature,
            np.concatenate(samples) if samples else _NO_SAMPLES,
            np.arange(len(latencies) + 1),
        )

    def _run_offline(self, sut: SystemUnderTest, qsl: QuerySampleLibrary, log: LoadGenLog) -> None:
        """Send all samples in one burst; measure aggregate throughput."""
        s = self.settings
        qsl.load_performance_set()
        log.metadata["offline_expected_samples"] = s.offline_sample_count
        run_offline = getattr(sut, "run_offline", None)
        if run_offline is None:
            raise TypeError("offline performance mode requires a PerformanceSUT")
        try:
            result = run_offline(s.offline_sample_count)
        except QueryFault as exc:
            # the burst is atomic: a fault degrades the run to a flagged
            # partial result instead of crashing the suite
            log.metadata["partial"] = True
            log.metadata["partial_reason"] = f"offline burst failed: {exc}"
            return
        log.offline_samples = result.total_samples
        log.offline_seconds = result.total_seconds
        log.energy_joules = result.energy_joules
        log.metadata["steady_clock_scale"] = result.steady_clock_scale


def loadgen_checksum() -> str:
    """Hash of the LoadGen's source: proves the LoadGen was not modified.

    Submitter modification of the LoadGen is forbidden (§4.1); the submission
    checker compares this value against the one recorded in the run log. It
    covers each of :data:`CHECKSUM_MODULES` in turn, name and source, as one
    SHA-256 hex digest.
    """
    digest = hashlib.sha256()
    for name in CHECKSUM_MODULES:
        source = inspect.getsource(importlib.import_module(name))
        digest.update(f"{name}\n{len(source)}\n{source}".encode())
    return digest.hexdigest()
