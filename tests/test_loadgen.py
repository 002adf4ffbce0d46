"""LoadGen: clock, QSL, scenarios, run-rule enforcement, log validation."""

import numpy as np
import pytest

from repro.analysis import full_graph_cache
from repro.backends import default_backend_for
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
    VirtualClock,
    loadgen_checksum,
    validate_log,
)


@pytest.fixture()
def perf_sut():
    soc = get_soc("dimensity_1100")
    be = default_backend_for(soc)
    g = full_graph_cache("mobilenet_edgetpu")
    cm = be.compile_single_stream(g, "image_classification")
    pipes = be.compile_offline(g, "image_classification")
    return PerformanceSUT(SimulatedDevice(soc), cm, pipes)


FAST = TestSettings(min_query_count=64, min_duration_s=0.05)


class TestClock:
    def test_advance(self):
        c = VirtualClock()
        assert c.now() == 0.0
        c.advance(1.5)
        assert c.now() == 1.5

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestQSL:
    def test_load_performance_set(self):
        qsl = QuerySampleLibrary(IndexDataset(5000), performance_sample_count=1024)
        loaded = qsl.load_performance_set()
        assert len(loaded) == 1024 and qsl.loaded_count == 1024

    def test_performance_count_capped_by_dataset(self):
        qsl = QuerySampleLibrary(IndexDataset(100), performance_sample_count=1024)
        assert len(qsl.load_performance_set()) == 100

    def test_seeded_sampling_deterministic(self):
        a = QuerySampleLibrary(IndexDataset(100), seed=7)
        b = QuerySampleLibrary(IndexDataset(100), seed=7)
        a.load_performance_set(); b.load_performance_set()
        np.testing.assert_array_equal(a.sample_indices(20), b.sample_indices(20))

    def test_sampling_before_load_raises(self):
        with pytest.raises(RuntimeError):
            QuerySampleLibrary(IndexDataset(10)).sample_indices(1)

    def test_samples_only_from_loaded(self):
        qsl = QuerySampleLibrary(IndexDataset(1000), performance_sample_count=16)
        loaded = set(int(i) for i in qsl.load_performance_set())
        drawn = set(int(i) for i in qsl.sample_indices(500))
        assert drawn <= loaded

    def test_unloaded_feed_rejected(self):
        qsl = QuerySampleLibrary(IndexDataset(10))
        qsl.load_samples(np.array([0, 1]))
        with pytest.raises(RuntimeError):
            qsl.get_feeds(np.array([5]))

    def test_unload(self):
        qsl = QuerySampleLibrary(IndexDataset(10))
        qsl.load_samples(np.array([0, 1, 2]))
        qsl.unload_samples(np.array([1]))
        assert qsl.loaded_count == 2


class TestSingleStream:
    def test_min_query_count_enforced(self, perf_sut):
        settings = TestSettings(min_query_count=200, min_duration_s=0.0)
        log = LoadGenerator(settings).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert log.query_count >= 200

    def test_min_duration_enforced(self, perf_sut):
        settings = TestSettings(min_query_count=1, min_duration_s=1.0)
        log = LoadGenerator(settings).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert log.total_duration_s >= 1.0
        assert log.query_count > 100  # ~2ms per query over 1 virtual second

    def test_one_sample_per_query(self, perf_sut):
        log = LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert all(len(r.sample_indices) == 1 for r in log.records)

    def test_log_validates_clean(self, perf_sut):
        log = LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert validate_log(log) == []

    def test_percentile_and_summary(self, perf_sut):
        log = LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        lat = log.latencies()
        assert log.percentile_latency(90) >= np.median(lat)
        s = log.summary()
        assert s["scenario"] == "single_stream" and "latency_p90_ms" in s

    def test_records_temperature(self, perf_sut):
        log = LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert log.records[-1].temperature_c > 0


class TestOffline:
    def test_throughput_reported(self, perf_sut):
        settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=4096)
        log = LoadGenerator(settings).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert log.offline_samples == 4096
        assert log.throughput_fps() > 0
        assert validate_log(log) == []
        assert log.energy_joules > 0

    def test_offline_beats_single_stream_throughput(self, perf_sut):
        """Batching + ALP must outperform one-at-a-time queries (paper §7.3)."""
        ss = LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        perf_sut.device = SimulatedDevice(perf_sut.device.soc)
        off_settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=4096)
        off = LoadGenerator(off_settings).run(perf_sut, QuerySampleLibrary(IndexDataset()))
        assert off.throughput_fps() > ss.throughput_fps()

    def test_accuracy_sut_rejected_for_offline(self, cls_exported, cls_dataset):
        sut = AccuracySUT(cls_exported, cls_dataset)
        settings = TestSettings(scenario=Scenario.OFFLINE)
        with pytest.raises(TypeError):
            LoadGenerator(settings).run(sut, QuerySampleLibrary(cls_dataset))


class TestAccuracyMode:
    def test_covers_whole_dataset(self, cls_exported, cls_dataset):
        sut = AccuracySUT(cls_exported, cls_dataset)
        settings = TestSettings(mode=Mode.ACCURACY)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(cls_dataset))
        covered = {i for r in log.records for i in r.sample_indices}
        assert covered == set(range(len(cls_dataset)))
        assert "top1" in log.accuracy
        assert validate_log(log) == []


class TestValidation:
    def _clean_log(self, perf_sut):
        return LoadGenerator(FAST).run(perf_sut, QuerySampleLibrary(IndexDataset()))

    def test_too_few_queries_flagged(self, perf_sut):
        log = self._clean_log(perf_sut)
        log.min_query_count = 10 ** 6
        assert any("queries" in p for p in validate_log(log))

    def test_too_short_flagged(self, perf_sut):
        log = self._clean_log(perf_sut)
        log.min_duration_s = 10 ** 6
        assert any("lasted" in p for p in validate_log(log))

    def test_tampered_loadgen_flagged(self, perf_sut):
        log = self._clean_log(perf_sut)
        log.metadata["loadgen_checksum"] = "deadbeef"
        assert any("checksum" in p for p in validate_log(log))

    def test_overlapping_queries_flagged(self, perf_sut):
        log = self._clean_log(perf_sut)
        object.__setattr__(log.records[5], "issue_time", 0.0)
        assert any("overlapping" in p for p in validate_log(log))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            TestSettings(min_query_count=0)

    def test_checksum_stable(self):
        assert loadgen_checksum() == loadgen_checksum()
