"""Conformance subsystem: nearest-rank percentile, lossless log round-trip,
and the differential validator suite (every single-field log corruption is
caught by the serialized checker)."""

import copy
import json
import math

import numpy as np
import pytest

from repro.analysis import full_graph_cache
from repro.backends import default_backend_for
from repro.core.tasks import get_task
from repro.datasets import IndexDataset
from repro.hardware import SimulatedDevice, get_soc
from repro.loadgen import (
    LOG_SCHEMA_VERSION,
    AccuracySUT,
    LoadGenerator,
    LoadGenLog,
    Mode,
    PerformanceSUT,
    QueryFault,
    QuerySampleLibrary,
    RecordColumns,
    Scenario,
    TestSettings,
    loadgen_checksum,
    validate_log,
    validate_serialized,
)
from repro.loadgen.validation import _check_claimed_summary

from faulty_sut import FaultySUT


def _perf_sut():
    soc = get_soc("dimensity_1100")
    be = default_backend_for(soc)
    g = full_graph_cache("mobilenet_edgetpu")
    cm = be.compile_single_stream(g, "image_classification")
    pipes = be.compile_offline(g, "image_classification")
    return PerformanceSUT(SimulatedDevice(soc), cm, pipes)


FAST = TestSettings(min_query_count=128, min_duration_s=0.05)
TASK = "image_classification"  # the task the bundle tests ship these logs as


@pytest.fixture(scope="module")
def perf_log():
    return LoadGenerator(FAST).run(_perf_sut(), QuerySampleLibrary(IndexDataset()), task=TASK)


@pytest.fixture(scope="module")
def offline_log():
    settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=4096)
    return LoadGenerator(settings).run(_perf_sut(), QuerySampleLibrary(IndexDataset()),
                                       task=TASK)


@pytest.fixture(scope="module")
def accuracy_log(cls_exported, cls_dataset):
    sut = AccuracySUT(cls_exported, cls_dataset)
    settings = TestSettings(mode=Mode.ACCURACY)
    return LoadGenerator(settings).run(sut, QuerySampleLibrary(cls_dataset), task=TASK)


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
    issue_time, t = [], 0.0
    for ms in latencies_ms:
        issue_time.append(t)
        t += ms * 1e-3
    n = len(latencies_ms)
    log.records = RecordColumns(issue_time, [ms * 1e-3 for ms in latencies_ms], [0.0] * n,
                                [0] * n, range(n + 1))
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


def _keep(payload, n):
    """Keep the first ``n`` queries of a serialized log's record columns."""
    r = payload["records"]
    for name in ("issue_time", "latency_s", "temperature_c"):
        r[name] = r[name][:n]
    r["sample_offsets"] = r["sample_offsets"][: n + 1]
    r["sample_indices"] = r["sample_indices"][: r["sample_offsets"][-1]]


def _add_sample(payload, i, sample):
    """Query ``i`` of a serialized log carries one more sample."""
    r = payload["records"]
    r["sample_indices"].insert(r["sample_offsets"][i + 1], sample)
    r["sample_offsets"][i + 1:] = [o + 1 for o in r["sample_offsets"][i + 1:]]


def _set_record(payload, column, i, value):
    payload["records"][column][i] = value


PERF_MUTATIONS = {
    "edited_checksum": lambda p: p["metadata"].__setitem__("loadgen_checksum", "deadbeef"),
    "records_truncated": lambda p: _keep(p, len(p["records"]["issue_time"]) // 2),
    "duration_compressed": lambda p: p["records"].__setitem__(
        "issue_time", [t * 0.5 for t in p["records"]["issue_time"]]
    ),
    "multi_sample_past_64": lambda p: _add_sample(p, 100, 7),
    "negative_latency_past_64": lambda p: _set_record(p, "latency_s", 100, -1e-3),
    "nan_latency": lambda p: _set_record(p, "latency_s", 10, float("nan")),
    "overlapping_queries": lambda p: _set_record(p, "issue_time", 5, 0.0),
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
    "schema_downgraded": lambda p: p.__setitem__("schema_version", 2),
    "record_garbage": lambda p: _set_record(p, "issue_time", 0, "not a record"),
    "summary_dropped": lambda p: p.__setitem__("summary", {}),
    "injected_drop_flag": lambda p: p["metadata"].__setitem__("dropped_queries", 3),
    "partial_flag": lambda p: p["metadata"].__setitem__("partial", True),
}

# edits of the column layout itself; each must fail to deserialize
COLUMN_MUTATIONS = {
    "ragged_columns": lambda p: p["records"]["latency_s"].pop(),
    "column_not_a_list": lambda p: p["records"].__setitem__("temperature_c", 0.0),
    "column_missing": lambda p: p["records"].pop("sample_offsets"),
    "column_added": lambda p: p["records"].__setitem__("energy", []),
    "nested_value": lambda p: _set_record(p, "latency_s", 3, [1e-3]),
    "null_latency": lambda p: _set_record(p, "latency_s", 3, None),
    "sample_not_an_integer": lambda p: _set_record(p, "sample_indices", 3, "1.5"),
    "offsets_fall": lambda p: _set_record(p, "sample_offsets", 3, 0),
    "offsets_overrun": lambda p: p["records"]["sample_offsets"].__setitem__(-1, 10 ** 6),
    "records_as_rows": lambda p: p.__setitem__("records", [[0.0, 1e-3, [0], 0.0]]),
}


def _first_metric(payload, value):
    key = next(iter(payload["accuracy"]))
    payload["accuracy"][key] = value
    payload["summary"]["accuracy"][key] = value


def _repeat_first_sample(payload):
    r = payload["records"]
    r["sample_indices"][r["sample_offsets"][1]] = r["sample_indices"][0]


ACCURACY_MUTATIONS = {
    "coverage_gap": lambda p: _keep(p, len(p["records"]["issue_time"]) - 1),  # last batch
    "duplicate_sample": _repeat_first_sample,
    "missing_metric": lambda p: (p.__setitem__("accuracy", {}),
                                 p["summary"].pop("accuracy")),
    "nan_metric": lambda p: _first_metric(p, float("nan")),
    "missing_dataset_size": lambda p: p["metadata"].pop("total_sample_count"),
}

OFFLINE_MUTATIONS = {
    "short_burst": lambda p: p.__setitem__("offline_samples", p["offline_samples"] // 2),
    "impossible_clock": lambda p: p["metadata"].__setitem__("steady_clock_scale", 1.5),
    "missing_duration": lambda p: p.__setitem__("offline_seconds", 0.0),
}


def _mutated(log, mutate):
    """``validate_serialized``'s problems with ``log``'s payload after ``mutate``."""
    payload = copy.deepcopy(log.to_dict())
    mutate(payload)
    return validate_serialized(payload)


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

    @pytest.mark.parametrize("name", sorted(COLUMN_MUTATIONS))
    def test_column_mutation_caught(self, perf_log, name):
        problems = _mutated(perf_log, COLUMN_MUTATIONS[name])
        assert len(problems) == 1 and "does not deserialize" in problems[0], problems

    def test_first_violation_deterministic(self, perf_log):
        """Same corruption -> identical first report, run after run."""
        payload = copy.deepcopy(perf_log.to_dict())
        PERF_MUTATIONS["negative_latency_past_64"](payload)
        first = [validate_serialized(copy.deepcopy(payload))[0] for _ in range(3)]
        assert len(set(first)) == 1
        assert "record 100" in first[0]

    def test_accuracy_coverage_gap_caught(self, accuracy_log):
        problems = _mutated(accuracy_log, ACCURACY_MUTATIONS["coverage_gap"])
        assert any("covered" in p for p in problems)

    def test_accuracy_duplicate_sample_caught(self, accuracy_log):
        problems = _mutated(accuracy_log, ACCURACY_MUTATIONS["duplicate_sample"])
        assert any("repeated sample" in p for p in problems)

    def test_accuracy_missing_metric_caught(self, accuracy_log):
        problems = _mutated(accuracy_log, ACCURACY_MUTATIONS["missing_metric"])
        assert any("no metric" in p for p in problems)

    def test_accuracy_nan_metric_caught(self, accuracy_log):
        problems = _mutated(accuracy_log, ACCURACY_MUTATIONS["nan_metric"])
        assert any("non-finite" in p for p in problems)

    def test_accuracy_missing_dataset_size_caught(self, accuracy_log):
        problems = _mutated(accuracy_log, ACCURACY_MUTATIONS["missing_dataset_size"])
        assert any("total_sample_count" in p for p in problems)

    def test_offline_short_burst_caught(self, offline_log):
        problems = _mutated(offline_log, OFFLINE_MUTATIONS["short_burst"])
        assert any("burst" in p for p in problems)

    def test_offline_impossible_clock_caught(self, offline_log):
        problems = _mutated(offline_log, OFFLINE_MUTATIONS["impossible_clock"])
        assert any("clock scale" in p for p in problems)

    def test_offline_missing_duration_caught(self, offline_log):
        problems = _mutated(offline_log, OFFLINE_MUTATIONS["missing_duration"])
        assert any("missing sample count or duration" in p for p in problems)


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
         "records": {"issue_time": [0.0], "latency_s": ["fast"], "temperature_c": [0.0],
                     "sample_indices": [0], "sample_offsets": [0, 1]}},
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
        return [int(qsl.next_query()[0]) for _ in range(n)]

    def test_insertion_order_invariant(self):
        a = QuerySampleLibrary(IndexDataset(500), seed=11)
        a.load_samples(np.arange(500))
        b = QuerySampleLibrary(IndexDataset(500), seed=11)
        b.load_samples(np.arange(499, -1, -1))  # reverse insertion order
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


# -- the per-query loop and per-record validator, stated here -------------------
# The LoadGen used to draw one QSL index per query into a fresh array, retry
# around every query, keep one record object per query and validate record by
# record. These functions restate that code over rows ``[issue_time, latency,
# sample_indices, temperature_c]``. The columnar LoadGen must record the same
# floats (by ``float.hex``) and metadata, and its validator must report the
# same problems, message for message.

def _row_issue(settings, sut, indices, meta):
    """One query with the whole retry loop around it, first attempt included."""
    last_error = "unknown fault"
    for _ in range(1 + settings.query_retry_budget):
        try:
            latency = sut.issue_query(indices)
        except QueryFault as exc:
            last_error = str(exc)
            meta["fault_retries"] = meta.get("fault_retries", 0) + 1
            continue
        if latency is None or not math.isfinite(latency) or (
            settings.mode == Mode.PERFORMANCE and latency <= 0
        ):
            last_error = f"invalid latency reading {latency!r}"
            meta["fault_retries"] = meta.get("fault_retries", 0) + 1
            continue
        return float(latency)
    meta["dropped_queries"] = meta.get("dropped_queries", 0) + 1
    meta["last_fault"] = last_error
    return None


def _row_budget_spent(settings, meta):
    if meta.get("dropped_queries", 0) > settings.query_drop_budget:
        meta["partial"] = True
        meta["partial_reason"] = (
            f"dropped {meta['dropped_queries']} queries, over the "
            f"budget of {settings.query_drop_budget}"
        )
        return True
    return False


def _row_single_stream(settings, sut, dataset_size):
    """Single-stream, one size-1 generator draw and one row per query."""
    rng = np.random.default_rng(settings.seed)
    count = min(settings.performance_sample_count, dataset_size)
    pool = np.sort(rng.choice(dataset_size, size=count, replace=False))
    meta, rows, now = {}, [], 0.0
    while len(rows) < settings.min_query_count or now < settings.min_duration_s:
        idx = int(rng.choice(pool, size=1, replace=True)[0])
        latency = _row_issue(settings, sut, np.array([idx], dtype=np.int64), meta)
        if latency is None:
            if _row_budget_spent(settings, meta):
                break
            continue
        thermal = getattr(getattr(sut, "device", None), "thermal", None)
        rows.append([now, latency, [idx], thermal.temperature_c if thermal else 0.0])
        now += latency
    meta["loadgen_checksum"] = loadgen_checksum()
    return rows, meta


def _row_accuracy(settings, sut, dataset_size):
    """Accuracy mode: every sample once, one row per batch."""
    meta = {"total_sample_count": dataset_size}
    rows, now = [], 0.0
    indices = np.arange(dataset_size)
    for start in range(0, dataset_size, settings.accuracy_batch_size):
        idx = indices[start : start + settings.accuracy_batch_size]
        latency = _row_issue(settings, sut, idx, meta)
        if latency is None:
            if _row_budget_spent(settings, meta):
                break
            continue
        rows.append([now, latency, [int(i) for i in idx], 0.0])
        now += max(latency, 1e-9)
    meta["loadgen_checksum"] = loadgen_checksum()
    return rows, meta


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _row_validate_log(log, rows):
    """``validate_log`` with one loop per record rule, over ``rows``."""
    problems = []
    if log.metadata.get("loadgen_checksum") != loadgen_checksum():
        problems.append("loadgen checksum mismatch: the LoadGen was modified")
    if log.scenario not in ("single_stream", "offline"):
        problems.append(f"unknown scenario {log.scenario!r}")
    if log.mode not in ("performance", "accuracy"):
        problems.append(f"unknown mode {log.mode!r}")
    dropped = log.metadata.get("dropped_queries", 0)
    if dropped:
        problems.append(
            f"degraded run: {dropped} queries dropped after exhausting the retry budget")
    if log.metadata.get("partial"):
        problems.append(
            f"partial run: aborted early ({log.metadata.get('partial_reason', 'unknown reason')})")
    for i, (t, lat, _, _) in enumerate(rows):
        if not (_finite(t) and _finite(lat)):
            problems.append(f"record {i} contains non-finite timing values")
            break
    if log.mode == "performance":
        for i, (_, lat, _, _) in enumerate(rows):
            if not _finite(lat) or lat <= 0:
                problems.append(f"non-positive latency recorded at record {i}")
                break
    if log.mode == "performance" and log.scenario == "single_stream":
        duration = rows[-1][0] + rows[-1][1] if rows else log.offline_seconds
        if len(rows) < log.min_query_count:
            problems.append(f"only {len(rows)} queries; rules require >= {log.min_query_count}")
        if duration < log.min_duration_s:
            problems.append(f"run lasted {duration:.1f}s; rules require >= "
                            f"{log.min_duration_s:.0f}s")
        for i, (_, _, samples, _) in enumerate(rows):
            if len(samples) != 1:
                problems.append(f"single-stream query {i} carried {len(samples)} samples")
                break
        prev_end = -1.0
        for i, (t, lat, _, _) in enumerate(rows):
            if t < prev_end - 1e-9:
                problems.append(f"overlapping queries in single-stream log at record {i}")
                break
            prev_end = t + lat
    if log.mode == "performance" and log.scenario == "offline":
        if log.offline_samples <= 0 or log.offline_seconds <= 0:
            problems.append("offline log missing sample count or duration")
        elif not (_finite(log.offline_seconds) and _finite(log.energy_joules)):
            problems.append("offline log contains non-finite totals")
        expected = log.metadata.get("offline_expected_samples")
        if expected is not None and not _finite(expected):
            problems.append(f"offline_expected_samples {expected!r} is not a number")
        elif expected is not None and log.offline_samples < expected:
            problems.append(f"offline burst covered {log.offline_samples} samples; rules "
                            f"require the full {expected}-sample burst")
        scale = log.metadata.get("steady_clock_scale")
        if scale is not None and not (_finite(scale) and 0.0 < scale <= 1.0):
            problems.append(f"offline steady clock scale {scale!r} outside (0, 1]")
        if rows:
            problems.append(
                "offline run must be a single burst, but per-query records are present")
    if log.mode == "accuracy":
        if not log.accuracy:
            problems.append("accuracy run produced no metric")
        for name, value in log.accuracy.items():
            if not _finite(value):
                problems.append(f"accuracy metric {name!r} is non-finite")
        if not rows:
            problems.append("accuracy run issued no queries")
        seen = set()
        for i, (_, _, samples, _) in enumerate(rows):
            dup = [s for s in samples if s in seen]
            if dup:
                problems.append(f"accuracy run repeated sample index {dup[0]} at record {i}")
                break
            seen.update(samples)
        total = log.metadata.get("total_sample_count")
        if total is None:
            problems.append("accuracy log missing total_sample_count metadata; dataset "
                            "coverage cannot be verified")
        elif len(seen) != total:
            problems.append(f"accuracy run covered {len(seen)} of {total} dataset samples; "
                            f"rules require the entire validation set")
    return problems


def _columns_of(rows):
    return RecordColumns(
        [r[0] for r in rows], [r[1] for r in rows], [r[3] for r in rows],
        [s for r in rows for s in r[2]], np.cumsum([0] + [len(r[2]) for r in rows]),
    )


def _rows_of(columns):
    o = columns.sample_offsets.tolist()
    return [
        [t, lat, columns.sample_indices[o[i]:o[i + 1]].tolist(), c]
        for i, (t, lat, c) in enumerate(zip(columns.issue_time.tolist(),
                                            columns.latency_s.tolist(),
                                            columns.temperature_c.tolist()))
    ]


def _row_validate_serialized(payload):
    """``validate_serialized`` over a payload whose records are rows."""
    if payload.get("schema_version") != LOG_SCHEMA_VERSION:
        return [f"unsupported or missing log schema version "
                f"{payload.get('schema_version')!r} (expected {LOG_SCHEMA_VERSION})"]
    try:
        log = LoadGenLog.from_dict({**payload, "records": RecordColumns().to_dict()})
        rows = []
        for i, rec in enumerate(payload.get("records", [])):
            try:
                issue, latency, indices, temp = rec
                rows.append([float(issue), float(latency), [int(s) for s in indices],
                             float(temp)])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed record #{i}: {rec!r} ({exc})") from exc
    except ValueError as exc:
        return [f"log payload does not deserialize: {exc}"]
    log.records = _columns_of(rows)
    return _row_validate_log(log, rows) + _check_claimed_summary(payload, log)


def _as_rows(log):
    payload = copy.deepcopy(log.to_dict())
    payload["records"] = _rows_of(log.records)
    return payload


def _hex_rows(rows):
    return [[t.hex(), lat.hex(), list(samples), c.hex()] for t, lat, samples, c in rows]


# the row form of each mutation that edits records; the others edit the same
# fields in both forms
ROW_MUTATIONS = {
    "records_truncated": lambda p: p.__setitem__("records", p["records"][: len(p["records"]) // 2]),
    "duration_compressed": lambda p: p.__setitem__(
        "records", [[t * 0.5, lat, idx, c] for t, lat, idx, c in p["records"]]),
    "multi_sample_past_64": lambda p: p["records"][100][2].append(7),
    "negative_latency_past_64": lambda p: p["records"][100].__setitem__(1, -1e-3),
    "nan_latency": lambda p: p["records"][10].__setitem__(1, float("nan")),
    "overlapping_queries": lambda p: p["records"][5].__setitem__(0, 0.0),
    "record_garbage": lambda p: p["records"].__setitem__(0, "not a record"),
    "coverage_gap": lambda p: p.__setitem__("records", p["records"][:-1]),
    "duplicate_sample": lambda p: p["records"][1][2].__setitem__(0, p["records"][0][2][0]),
}

PARITY_PAIRS = [  # (SoC, task): three SoCs, three models
    ("dimensity_1100", "image_classification"),
    ("snapdragon_865plus", "object_detection"),
    ("exynos_2100", "question_answering"),
]

PARITY_FAULTS = {  # FaultySUT options, settings overrides
    "mixed_transient": (dict(failure_rate=0.2, timeout_rate=0.1, nan_rate=0.1), {}),
    "nan_twice": (dict(nan_rate=0.3, transient_attempts=2), {}),
    "timeouts_at_the_budget": (dict(timeout_rate=0.3, transient_attempts=3), {}),
    "sparse_drops": (dict(failure_rate=0.05, transient_attempts=5),
                     dict(query_retry_budget=1, query_drop_budget=1000)),
    "drop_budget_exhausted": (dict(failure_rate=1.0, transient_attempts=10),
                              dict(query_retry_budget=2, query_drop_budget=4)),
}


def _pair_sut(soc_name, task):
    soc = get_soc(soc_name)
    graph = full_graph_cache(get_task(task).models[soc.benchmark_version])
    return PerformanceSUT(SimulatedDevice(soc),
                          default_backend_for(soc).compile_single_stream(graph, task))


class TestRowParity:
    """The columnar loop and validator against the row forms stated above."""

    def _assert_same_run(self, log, rows, meta):
        assert _hex_rows(_rows_of(log.records)) == _hex_rows(rows)
        assert list(log.metadata.items()) == list(meta.items())
        assert validate_log(log) == _row_validate_log(log, rows)

    @pytest.mark.parametrize("soc_name,task", PARITY_PAIRS)
    def test_performance_sut(self, soc_name, task):
        settings = TestSettings(min_query_count=1024, min_duration_s=60.0, seed=5)
        log = LoadGenerator(settings).run(_pair_sut(soc_name, task),
                                          QuerySampleLibrary(IndexDataset(), seed=5))
        rows, meta = _row_single_stream(settings, _pair_sut(soc_name, task), 1024)
        assert len(rows) >= 1024 and rows[-1][3] > rows[0][3]  # the die heated
        self._assert_same_run(log, rows, meta)

    @pytest.mark.parametrize("name", sorted(PARITY_FAULTS))
    def test_faulty_sut(self, name):
        options, overrides = PARITY_FAULTS[name]
        settings = TestSettings(min_query_count=256, min_duration_s=0.5, **overrides)
        sut = FaultySUT(_pair_sut(*PARITY_PAIRS[0]), **options)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()))
        rows, meta = _row_single_stream(
            settings, FaultySUT(_pair_sut(*PARITY_PAIRS[0]), **options), 1024)
        assert meta.get("fault_retries", 0) > 0
        self._assert_same_run(log, rows, meta)
        if name == "drop_budget_exhausted":
            assert meta["partial"] and len(rows) < settings.min_query_count

    @pytest.mark.parametrize("faults", [None, dict(failure_rate=0.5, transient_attempts=10,
                                                   seed=3)], ids=["clean", "drops"])
    def test_accuracy(self, cls_exported, cls_dataset, faults):
        settings = TestSettings(mode=Mode.ACCURACY, accuracy_batch_size=8,
                                query_drop_budget=1000)

        def sut():
            inner = AccuracySUT(cls_exported, cls_dataset)
            return FaultySUT(inner, **faults) if faults else inner

        log = LoadGenerator(settings).run(sut(), QuerySampleLibrary(cls_dataset))
        rows, meta = _row_accuracy(settings, sut(), len(cls_dataset))
        self._assert_same_run(log, rows, meta)

    @pytest.mark.parametrize("name", sorted(PERF_MUTATIONS))
    def test_perf_mutation_messages(self, perf_log, name):
        self._assert_same_messages(perf_log, name, PERF_MUTATIONS[name])

    @pytest.mark.parametrize("name", sorted(ACCURACY_MUTATIONS))
    def test_accuracy_mutation_messages(self, accuracy_log, name):
        self._assert_same_messages(accuracy_log, name, ACCURACY_MUTATIONS[name])

    @pytest.mark.parametrize("name", sorted(OFFLINE_MUTATIONS) + sorted(MALFORMED_FIELDS))
    def test_offline_mutation_messages(self, offline_log, name):
        mutate = OFFLINE_MUTATIONS.get(name) or MALFORMED_FIELDS[name]
        self._assert_same_messages(offline_log, name, mutate)

    def test_clean_logs(self, perf_log, accuracy_log, offline_log):
        for log in (perf_log, accuracy_log, offline_log):
            assert validate_serialized(log.to_dict()) == _row_validate_serialized(_as_rows(log))

    def _assert_same_messages(self, log, name, mutate):
        payload = copy.deepcopy(log.to_dict())
        mutate(payload)
        problems = validate_serialized(payload)
        rows_payload = _as_rows(log)
        ROW_MUTATIONS.get(name, mutate)(rows_payload)
        expected = _row_validate_serialized(rows_payload)
        assert problems, name
        if name == "record_garbage":
            # the two forms fail to parse on different values, as one problem
            assert [p.split(":")[0] for p in problems] == [p.split(":")[0] for p in expected]
        else:
            assert problems == expected
