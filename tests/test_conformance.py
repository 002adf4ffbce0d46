"""Conformance subsystem: nearest-rank percentile, lossless log round-trip,
and the differential validator suite (every single-field log corruption is
caught by the serialized checker)."""

import copy
import json

import numpy as np
import pytest

from repro.analysis import full_graph_cache
from repro.backends import default_backend_for
from repro.datasets import IndexDataset
from repro.hardware import SimulatedDevice, get_soc
from repro.loadgen import (
    LOG_SCHEMA_VERSION,
    AccuracySUT,
    LoadGenerator,
    LoadGenLog,
    Mode,
    PerformanceSUT,
    QueryRecord,
    QuerySampleLibrary,
    Scenario,
    TestSettings,
    loadgen_checksum,
    validate_log,
    validate_serialized,
)


def _perf_sut():
    soc = get_soc("dimensity_1100")
    be = default_backend_for(soc)
    g = full_graph_cache("mobilenet_edgetpu")
    cm = be.compile_single_stream(g, "image_classification")
    pipes = be.compile_offline(g, "image_classification")
    return PerformanceSUT(SimulatedDevice(soc), cm, pipes)


FAST = TestSettings(min_query_count=128, min_duration_s=0.05)


@pytest.fixture(scope="module")
def perf_log():
    return LoadGenerator(FAST).run(_perf_sut(), QuerySampleLibrary(IndexDataset()))


@pytest.fixture(scope="module")
def offline_log():
    settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=4096)
    return LoadGenerator(settings).run(_perf_sut(), QuerySampleLibrary(IndexDataset()))


@pytest.fixture(scope="module")
def accuracy_log(cls_exported, cls_dataset):
    sut = AccuracySUT(cls_exported, cls_dataset)
    settings = TestSettings(mode=Mode.ACCURACY)
    return LoadGenerator(settings).run(sut, QuerySampleLibrary(cls_dataset))


def _write_bundle(root, accuracy_log, perf_log, offline_log=None):
    """A complete one-task submission bundle around the given logs, written
    by ``write_submission``; its summary row is computed from the logs."""
    from repro.core import (
        BenchmarkResult, Submission, SuiteResult, SystemDescription, write_submission,
    )

    result = BenchmarkResult(
        task="image_classification", version="v1.0", model_name="mobilenet_edgetpu",
        soc_name="dimensity_1100", backend_name="neuron", execution_config="test",
        numerics="uint8", accuracy=accuracy_log.accuracy,
        metric=next(iter(accuracy_log.accuracy)), quality_passed=True,
        latency_p90_ms=perf_log.percentile_latency() * 1e3,
        offline_fps=offline_log.throughput_fps() if offline_log else 0.0,
        accuracy_log=accuracy_log, performance_log=perf_log, offline_log=offline_log,
    )
    submission = Submission(
        SystemDescription("x", "dimensity_1100", "phone", "smartphone", "Android"), "v1.0",
        SuiteResult("dimensity_1100", "neuron", "v1.0", [result]),
        model_provenance={"image_classification": {}}, loadgen_checksum=loadgen_checksum(),
    )
    return write_submission(submission, root)


def _hand_log(latencies_ms):
    log = LoadGenLog(
        scenario="single_stream", mode="performance", task="t", model_name="m",
        sut_name="s", seed=0, min_query_count=1, min_duration_s=0.0,
    )
    t = 0.0
    for ms in latencies_ms:
        log.records.append(QueryRecord(t, ms * 1e-3, (0,)))
        t += ms * 1e-3
    return log


class TestNearestRankPercentile:
    """MLPerf's metric is the ordinal statistic: sorted[ceil(p/100*N) - 1]."""

    def test_no_interpolation(self):
        log = _hand_log(list(range(1, 11)))  # 1..10 ms
        # np.percentile would interpolate to 9.1 ms; nearest-rank is 9 ms
        assert log.percentile_latency(90.0) == pytest.approx(9e-3)
        assert log.percentile_latency(50.0) == pytest.approx(5e-3)

    def test_order_independent(self):
        shuffled = _hand_log([7, 2, 9, 1, 10, 3, 8, 5, 4, 6])
        assert shuffled.percentile_latency(90.0) == pytest.approx(9e-3)

    def test_extremes(self):
        log = _hand_log([4, 1, 3, 2])
        assert log.percentile_latency(100.0) == pytest.approx(4e-3)
        assert log.percentile_latency(0.5) == pytest.approx(1e-3)  # rank clamps to 1

    def test_single_record(self):
        assert _hand_log([5]).percentile_latency(90.0) == pytest.approx(5e-3)

    def test_matches_definition_against_numpy_sort(self, perf_log):
        lat = np.sort(perf_log.latencies())
        for p in (50.0, 90.0, 99.0):
            rank = max(int(np.ceil(p / 100.0 * lat.size)), 1)
            assert perf_log.percentile_latency(p) == lat[rank - 1]

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            _hand_log([1]).percentile_latency(0.0)
        with pytest.raises(ValueError):
            _hand_log([1]).percentile_latency(101.0)


class TestPercentilePlumbing:
    """TestSettings.latency_percentile reaches the log and its summary."""

    def test_log_carries_percentile(self):
        settings = TestSettings(min_query_count=128, min_duration_s=0.05,
                                latency_percentile=99.0)
        log = LoadGenerator(settings).run(_perf_sut(), QuerySampleLibrary(IndexDataset()))
        assert log.latency_percentile == 99.0
        s = log.summary()
        assert "latency_p99_ms" in s and "latency_p90_ms" not in s
        assert s["latency_p99_ms"] == pytest.approx(log.percentile_latency(99.0) * 1e3)

    def test_default_stays_p90(self, perf_log):
        assert perf_log.latency_percentile == 90.0
        assert "latency_p90_ms" in perf_log.summary()

    def test_settings_reject_bad_percentile(self):
        with pytest.raises(ValueError):
            TestSettings(latency_percentile=0.0)


class TestRoundTrip:
    """from_dict inverts to_dict losslessly, including through JSON text."""

    def test_perf_log(self, perf_log):
        assert LoadGenLog.from_dict(perf_log.to_dict()) == perf_log

    def test_offline_log(self, offline_log):
        assert LoadGenLog.from_dict(offline_log.to_dict()) == offline_log

    def test_accuracy_log(self, accuracy_log):
        assert LoadGenLog.from_dict(accuracy_log.to_dict()) == accuracy_log

    def test_through_json_text(self, perf_log):
        restored = LoadGenLog.from_dict(json.loads(json.dumps(perf_log.to_dict())))
        assert restored == perf_log
        # and the restored log still validates clean via the serialized path
        assert validate_serialized(restored.to_dict()) == []

    def test_schema_version_stamped(self, perf_log):
        assert perf_log.to_dict()["schema_version"] == LOG_SCHEMA_VERSION

    def test_unknown_schema_rejected(self, perf_log):
        payload = perf_log.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            LoadGenLog.from_dict(payload)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            LoadGenLog.from_dict({"schema_version": LOG_SCHEMA_VERSION})


# -- differential suite -----------------------------------------------------
# Each mutation edits one aspect of a clean serialized log; every single one
# must be rejected by validate_serialized.

def _set_summary(payload, key, value):
    payload["summary"][key] = value


PERF_MUTATIONS = {
    "edited_checksum": lambda p: p["metadata"].__setitem__("loadgen_checksum", "deadbeef"),
    "records_truncated": lambda p: p.__setitem__("records", p["records"][: len(p["records"]) // 2]),
    "duration_compressed": lambda p: p.__setitem__(
        "records", [[t * 0.5, lat, idx, c] for t, lat, idx, c in p["records"]]
    ),
    "multi_sample_past_64": lambda p: p["records"][100][2].append(7),
    "negative_latency_past_64": lambda p: p["records"][100].__setitem__(1, -1e-3),
    "nan_latency": lambda p: p["records"][10].__setitem__(1, float("nan")),
    "overlapping_queries": lambda p: p["records"][5].__setitem__(0, 0.0),
    "claimed_faster_p90": lambda p: _set_summary(
        p, "latency_p90_ms", p["summary"]["latency_p90_ms"] * 0.5
    ),
    "claimed_mean_edited": lambda p: _set_summary(
        p, "latency_mean_ms", p["summary"]["latency_mean_ms"] * 0.9
    ),
    "claimed_query_count": lambda p: _set_summary(
        p, "query_count", p["summary"]["query_count"] + 64
    ),
    "claimed_duration": lambda p: _set_summary(p, "duration_s", 1e6),
    "seed_rewritten": lambda p: p.__setitem__("seed", p["seed"] + 1),
    "schema_downgraded": lambda p: p.__setitem__("schema_version", 1),
    "record_garbage": lambda p: p["records"].__setitem__(0, "not a record"),
    "summary_dropped": lambda p: p.__setitem__("summary", {}),
    "injected_drop_flag": lambda p: p["metadata"].__setitem__("dropped_queries", 3),
    "partial_flag": lambda p: p["metadata"].__setitem__("partial", True),
}


class TestDifferentialValidator:
    def test_clean_log_validates(self, perf_log):
        assert validate_serialized(perf_log.to_dict()) == []

    @pytest.mark.parametrize("name", sorted(PERF_MUTATIONS))
    def test_perf_mutation_caught(self, perf_log, name):
        payload = copy.deepcopy(perf_log.to_dict())
        PERF_MUTATIONS[name](payload)
        problems = validate_serialized(payload)
        assert problems, f"mutation {name!r} was not caught"

    def test_mutations_are_distinct_corruptions(self, perf_log):
        """≥ 10 distinct corruptions, each caught (acceptance criterion)."""
        assert len(PERF_MUTATIONS) >= 10
        messages = set()
        for name, mutate in PERF_MUTATIONS.items():
            payload = copy.deepcopy(perf_log.to_dict())
            mutate(payload)
            problems = validate_serialized(payload)
            assert problems, name
            messages.add(problems[0])
        # the first reported violation differs across corruption classes
        assert len(messages) >= 10

    def test_first_violation_deterministic(self, perf_log):
        """Same corruption -> identical first report, run after run."""
        payload = copy.deepcopy(perf_log.to_dict())
        PERF_MUTATIONS["negative_latency_past_64"](payload)
        first = [validate_serialized(copy.deepcopy(payload))[0] for _ in range(3)]
        assert len(set(first)) == 1
        assert "record 100" in first[0]

    def test_accuracy_coverage_gap_caught(self, accuracy_log):
        payload = copy.deepcopy(accuracy_log.to_dict())
        payload["records"] = payload["records"][:-1]  # drop the last batch
        assert any("covered" in p for p in validate_serialized(payload))

    def test_accuracy_duplicate_sample_caught(self, accuracy_log):
        payload = copy.deepcopy(accuracy_log.to_dict())
        payload["records"][1][2][0] = payload["records"][0][2][0]
        assert any("repeated sample" in p for p in validate_serialized(payload))

    def test_accuracy_missing_metric_caught(self, accuracy_log):
        payload = copy.deepcopy(accuracy_log.to_dict())
        payload["accuracy"] = {}
        del payload["summary"]["accuracy"]
        assert any("no metric" in p for p in validate_serialized(payload))

    def test_accuracy_nan_metric_caught(self, accuracy_log):
        payload = copy.deepcopy(accuracy_log.to_dict())
        key = next(iter(payload["accuracy"]))
        payload["accuracy"][key] = float("nan")
        payload["summary"]["accuracy"][key] = float("nan")
        assert any("non-finite" in p for p in validate_serialized(payload))

    def test_accuracy_missing_dataset_size_caught(self, accuracy_log):
        payload = copy.deepcopy(accuracy_log.to_dict())
        del payload["metadata"]["total_sample_count"]
        assert any("total_sample_count" in p for p in validate_serialized(payload))

    def test_offline_short_burst_caught(self, offline_log):
        payload = copy.deepcopy(offline_log.to_dict())
        payload["offline_samples"] = payload["offline_samples"] // 2
        problems = validate_serialized(payload)
        assert any("burst" in p for p in problems)

    def test_offline_impossible_clock_caught(self, offline_log):
        payload = copy.deepcopy(offline_log.to_dict())
        payload["metadata"]["steady_clock_scale"] = 1.5  # faster than no throttle
        assert any("clock scale" in p for p in validate_serialized(payload))

    def test_offline_missing_duration_caught(self, offline_log):
        payload = copy.deepcopy(offline_log.to_dict())
        payload["offline_seconds"] = 0.0
        assert any("missing sample count or duration" in p
                   for p in validate_serialized(payload))


# JSON that parses but carries the wrong type in one field of an offline log
MALFORMED_FIELDS = {
    "seed_null": lambda p: p.__setitem__("seed", None),
    "offline_seconds_null": lambda p: p.__setitem__("offline_seconds", None),
    "accuracy_number": lambda p: p.__setitem__("accuracy", 5),
    "metadata_number": lambda p: p.__setitem__("metadata", 5),
    "scenario_list": lambda p: p.__setitem__("scenario", []),
    "clock_scale_string": lambda p: p["metadata"].__setitem__("steady_clock_scale", "0.9"),
    "expected_samples_string": lambda p: p["metadata"].__setitem__(
        "offline_expected_samples", "4096"
    ),
}


class TestValidatorFaultTolerance:
    """Garbage input yields violations, never exceptions."""

    @pytest.mark.parametrize("payload", [
        None, 42, "log", [], {}, {"schema_version": "two"},
        {"schema_version": LOG_SCHEMA_VERSION},
        {"schema_version": LOG_SCHEMA_VERSION, "scenario": "single_stream",
         "mode": "performance", "task": "t", "model": "m", "sut": "s",
         "seed": 0, "min_query_count": 1, "min_duration_s": 0.0,
         "records": [[0.0, "fast", [0], 0.0]]},
    ])
    def test_never_raises(self, payload):
        problems = validate_serialized(payload)
        assert problems and all(isinstance(p, str) for p in problems)

    @pytest.mark.parametrize("entry", ["serialized", "package"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_FIELDS))
    def test_malformed_field_is_a_violation(self, tmp_path, accuracy_log, perf_log,
                                            offline_log, entry, name):
        from repro.core import validate_package

        payload = copy.deepcopy(offline_log.to_dict())
        MALFORMED_FIELDS[name](payload)
        if entry == "serialized":
            problems = validate_serialized(payload)
        else:
            root = _write_bundle(tmp_path, accuracy_log, perf_log, offline_log)
            log_file = "results/image_classification/offline_log.json"
            (root / log_file).write_text(json.dumps(payload))
            problems = validate_package(root)
            assert any(p.startswith(log_file) for p in problems), problems
        assert problems and all(isinstance(p, str) for p in problems)

    def test_unknown_scenario_flagged(self):
        log = _hand_log([1, 2, 3])
        log.scenario = "burst_mode"
        assert any("unknown scenario" in p for p in validate_log(log))


class TestQSLDeterminism:
    """Seeded query streams are identical regardless of how the residency
    set was built (regression: set-iteration-order-dependent pools)."""

    def _stream(self, qsl, n=200):
        return [qsl.next_sample_index() for _ in range(n)]

    def test_insertion_order_invariant(self):
        a = QuerySampleLibrary(IndexDataset(500), seed=11)
        a.load_samples(np.arange(500))
        b = QuerySampleLibrary(IndexDataset(500), seed=11)
        b.load_samples(np.arange(499, -1, -1))  # reverse insertion order
        np.testing.assert_array_equal(a.sample_indices(100), b.sample_indices(100))
        assert self._stream(a) == self._stream(b)

    def test_unload_reload_history_invariant(self):
        a = QuerySampleLibrary(IndexDataset(400), seed=23)
        a.load_samples(np.arange(400))
        a.unload_samples(np.arange(0, 400, 2))
        a.load_samples(np.arange(0, 400, 2))  # same set, different history
        b = QuerySampleLibrary(IndexDataset(400), seed=23)
        b.load_samples(np.arange(400))
        assert self._stream(a) == self._stream(b)

    def test_pool_is_sorted(self):
        qsl = QuerySampleLibrary(IndexDataset(100), seed=5)
        qsl.load_samples(np.array([30, 4, 99, 17]))
        pool = qsl._loaded_pool()
        np.testing.assert_array_equal(pool, np.sort(pool))


class TestValidatePackage:
    """The checker sweeps an on-disk bundle; bad files become violations."""

    @pytest.fixture()
    def bundle(self, tmp_path, accuracy_log, perf_log):
        return _write_bundle(tmp_path / "bundle", accuracy_log, perf_log)

    def test_clean_bundle_passes(self, bundle):
        from repro.core import validate_package

        assert validate_package(bundle) == []

    def test_stub_metadata_rejected(self, tmp_path, perf_log):
        """``{}`` for the system description, provenance and summary is no
        submission, however clean the log beside it."""
        from repro.core import validate_package

        task_dir = tmp_path / "results" / "image_classification"
        task_dir.mkdir(parents=True)
        for name in ("system.json", "provenance.json", "summary.json"):
            (tmp_path / name).write_text("{}")
        (task_dir / "performance_log.json").write_text(json.dumps(perf_log.to_dict()))
        problems = validate_package(tmp_path)
        assert any(p.startswith("system.json") for p in problems), problems
        assert any(p.startswith("summary.json") for p in problems), problems

    @pytest.mark.parametrize("name", ["system.json", "provenance.json", "summary.json"])
    def test_wrongly_typed_metadata_is_a_problem(self, bundle, name):
        from repro.core import validate_package

        payload = {} if name == "summary.json" else []  # the other JSON container
        (bundle / name).write_text(json.dumps(payload))
        problems = validate_package(bundle)
        assert any(p.startswith(f"{name}: holds a {type(payload).__name__}") for p in problems)

    @pytest.mark.parametrize("key,edit", [
        ("quality", lambda row: row["quality"] + 0.001),
        ("latency_p90_ms", lambda row: row["latency_p90_ms"] * 0.5),
        ("offline_fps", lambda row: 1.0),  # the bundle ships no offline burst
        ("quality_target", lambda row: row["quality"] + 1.0),  # a pass below target
    ], ids=["quality", "latency_p90_ms", "offline_fps", "pass_below_target"])
    def test_summary_row_must_match_its_logs(self, bundle, key, edit):
        from repro.core import validate_package

        path = bundle / "summary.json"
        rows = json.loads(path.read_text())
        rows[0][key] = edit(rows[0])
        path.write_text(json.dumps(rows))
        problems = validate_package(bundle)
        assert problems and all(p.startswith("summary.json: [image_classification]")
                                for p in problems), problems

    def test_unreadable_log_reported_not_raised(self, bundle):
        from repro.core import validate_package

        path = bundle / "results" / "image_classification" / "performance_log.json"
        path.write_text("{ not json")
        problems = validate_package(bundle)
        assert any("unreadable" in p for p in problems)

    def test_edited_log_in_bundle_caught(self, bundle):
        from repro.core import validate_package

        path = bundle / "results" / "image_classification" / "performance_log.json"
        raw = json.loads(path.read_text())
        raw["summary"]["latency_p90_ms"] *= 0.5
        path.write_text(json.dumps(raw))
        problems = validate_package(bundle)
        assert any("latency_p90_ms" in p and "edited" in p for p in problems)

    def test_provenance_rules_match_in_memory_checker(self, bundle):
        """The on-disk validator applies every per-task provenance rule the
        in-memory checker does, not only the static-verification stamp."""
        from repro.core import validate_package

        (bundle / "provenance.json").write_text(json.dumps({"models": {
            "image_classification": {"quantization": {"calibration_samples": 600}},
            "object_detection": {"reference_source_checksum": "aaa",
                                 "reference_export_checksum": "bbb",
                                 "deployed_source_checksum": "ccc"},
        }}))
        problems = validate_package(bundle)
        assert any("[image_classification]" in p and "600 calibration samples" in p
                   for p in problems)
        assert any("[object_detection]" in p and "does not descend" in p
                   for p in problems)

    def test_missing_pieces_reported(self, tmp_path, bundle):
        from repro.core import validate_package

        (bundle / "system.json").unlink()
        assert any("system.json" in p for p in validate_package(bundle))
        empty = tmp_path / "empty"
        empty.mkdir()
        assert any("results" in p for p in validate_package(empty))
