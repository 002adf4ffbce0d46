"""Fault injection and graceful degradation: bounded per-query retry,
flagged partial runs, and suite-level survival of a crashing task."""

import numpy as np
import pytest

from repro.backends import default_backend_for
from repro.core import (
    QUICK_RULES,
    BenchmarkHarness,
    SystemDescription,
    build_submission,
    check_submission,
    format_report,
)
from repro.core.harness import full_graph
from repro.datasets import IndexDataset
from repro.hardware import SimulatedDevice, get_soc
from repro.loadgen import (
    AccuracySUT,
    LoadGenerator,
    Mode,
    PerformanceSUT,
    QuerySampleLibrary,
    Scenario,
    TestSettings,
    validate_log,
)

from faulty_sut import FaultySUT, QueryFailure, QueryTimeout


def _perf_sut():
    soc = get_soc("dimensity_1100")
    be = default_backend_for(soc)
    g = full_graph("mobilenet_edgetpu")
    cm = be.compile_single_stream(g, "image_classification")
    pipes = be.compile_offline(g, "image_classification")
    return PerformanceSUT(SimulatedDevice(soc), cm, pipes)


FAST = TestSettings(min_query_count=128, min_duration_s=0.05)


class TestFaultySUT:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultySUT(_perf_sut(), failure_rate=0.8, timeout_rate=0.3)
        with pytest.raises(ValueError):
            FaultySUT(_perf_sut(), failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultySUT(_perf_sut(), transient_attempts=0)

    def test_failure_raises_then_recovers(self):
        sut = FaultySUT(_perf_sut(), failure_rate=1.0, transient_attempts=1)
        q = np.array([3], dtype=np.int64)
        with pytest.raises(QueryFailure):
            sut.issue_query(q)
        assert sut.issue_query(q) > 0  # the retry of the same query succeeds
        assert sut.injected["failure"] == 1

    def test_timeout_kind(self):
        sut = FaultySUT(_perf_sut(), timeout_rate=1.0)
        with pytest.raises(QueryTimeout):
            sut.issue_query(np.array([0]))
        assert sut.injected["timeout"] == 1

    def test_nan_latency_injected(self):
        sut = FaultySUT(_perf_sut(), nan_rate=1.0)
        assert np.isnan(sut.issue_query(np.array([0])))

    def test_injection_is_seeded(self):
        def kinds(seed):
            sut = FaultySUT(_perf_sut(), failure_rate=0.3, timeout_rate=0.3,
                            nan_rate=0.3, seed=seed)
            out = []
            for i in range(40):
                try:
                    lat = sut.issue_query(np.array([i]))
                    out.append("nan" if np.isnan(lat) else "ok")
                except QueryFailure:
                    out.append("failure")
                except QueryTimeout:
                    out.append("timeout")
            return out

        assert kinds(7) == kinds(7)
        assert kinds(7) != kinds(8)


class TestRetryRecovers:
    """Transient faults within the retry budget leave a clean, valid run."""

    def test_every_query_faults_once_run_still_clean(self):
        sut = FaultySUT(_perf_sut(), failure_rate=1.0, transient_attempts=1)
        log = LoadGenerator(FAST).run(sut, QuerySampleLibrary(IndexDataset()))
        assert log.query_count >= FAST.min_query_count
        assert log.metadata["fault_retries"] >= FAST.min_query_count
        assert "dropped_queries" not in log.metadata
        assert validate_log(log) == []  # retries are not rule violations

    def test_nan_latency_never_reaches_records(self):
        sut = FaultySUT(_perf_sut(), nan_rate=1.0, transient_attempts=1)
        log = LoadGenerator(FAST).run(sut, QuerySampleLibrary(IndexDataset()))
        assert np.isfinite(log.latencies()).all()
        assert validate_log(log) == []

    def test_mixed_transient_faults(self):
        sut = FaultySUT(_perf_sut(), failure_rate=0.2, timeout_rate=0.1,
                        nan_rate=0.1, transient_attempts=1)
        log = LoadGenerator(FAST).run(sut, QuerySampleLibrary(IndexDataset()))
        assert validate_log(log) == []
        assert sut.total_injected > 0


class TestBudgetExhaustion:
    """Faults outlasting the retry budget degrade the run — never crash."""

    def test_permanent_faults_yield_flagged_partial(self):
        settings = TestSettings(min_query_count=128, min_duration_s=0.05,
                                query_retry_budget=2, query_drop_budget=4)
        # 10 faulty attempts per query > 1+2 attempts: every query drops
        sut = FaultySUT(_perf_sut(), failure_rate=1.0, transient_attempts=10)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()))
        assert log.metadata["dropped_queries"] == settings.query_drop_budget + 1
        assert log.metadata["partial"]
        problems = validate_log(log)
        assert any("dropped" in p for p in problems)
        assert any("partial" in p for p in problems)

    def test_sparse_permanent_faults_complete_with_drops(self):
        settings = TestSettings(min_query_count=128, min_duration_s=0.05,
                                query_retry_budget=1, query_drop_budget=1000)
        sut = FaultySUT(_perf_sut(), failure_rate=0.05, transient_attempts=5)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()))
        assert log.query_count >= settings.min_query_count
        dropped = log.metadata.get("dropped_queries", 0)
        assert dropped > 0
        assert any("dropped" in p for p in validate_log(log))

    def test_offline_burst_fault_degrades(self):
        sut = FaultySUT(_perf_sut(), failure_rate=1.0)
        settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=2048)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()))
        assert log.metadata["partial"]
        assert log.offline_samples == 0
        problems = validate_log(log)
        assert any("partial" in p for p in problems)

    def test_accuracy_drops_break_coverage(self, cls_exported, cls_dataset):
        inner = AccuracySUT(cls_exported, cls_dataset)
        sut = FaultySUT(inner, failure_rate=0.5, transient_attempts=10, seed=3)
        settings = TestSettings(mode=Mode.ACCURACY, query_drop_budget=1000,
                                accuracy_batch_size=8)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(cls_dataset))
        assert log.metadata.get("dropped_queries", 0) > 0
        problems = validate_log(log)
        assert any("covered" in p for p in problems)
        assert any("dropped" in p for p in problems)


class TestSuiteDegradation:
    """One crashing task surfaces as a flagged partial result; the suite,
    the report, and the submission checker all keep working."""

    @pytest.fixture(scope="class")
    def degraded_suite(self):
        harness = BenchmarkHarness(
            version="v1.0", rules=QUICK_RULES, dataset_sizes={"squad": 32}
        )
        original = harness.run_performance

        def crashing_run_performance(task, backend, device):
            raise RuntimeError("delegate crashed while compiling the model")

        harness.run_performance = crashing_run_performance
        suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                                  include_offline=False)
        harness.run_performance = original
        return harness, suite

    def test_suite_completes_with_flagged_result(self, degraded_suite):
        _, suite = degraded_suite
        assert len(suite.results) == 1
        r = suite.results[0]
        assert r.degraded and "delegate crashed" in r.error
        assert suite.degraded_tasks == ["question_answering"]
        assert not suite.all_passed

    def test_report_surfaces_failure(self, degraded_suite):
        _, suite = degraded_suite
        text = format_report(suite)
        assert "DEGRADED" in text and "delegate crashed" in text

    def test_checker_flags_degraded_submission(self, degraded_suite):
        harness, suite = degraded_suite
        sub = build_submission(
            harness, suite,
            SystemDescription("x", "dimensity_1100", "phone", "smartphone", "Android"),
        )
        problems = check_submission(sub)
        assert any("degraded" in p for p in problems)
