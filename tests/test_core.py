"""Core: task registry, run rules, harness wiring."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core.harness as harness_module
from repro.backends import default_backend_for
from repro.core import (
    DEFAULT_RULES,
    QUICK_RULES,
    BenchmarkHarness,
    RuleViolation,
    RunRules,
    TASK_ORDER,
    TASKS,
    get_task,
    tasks_for_version,
)
from repro.core.harness import full_graph
from repro.datasets import IndexDataset
from repro.hardware import SimulatedDevice, get_soc
from repro.kernels import Numerics
from repro.loadgen import (
    LoadGenerator,
    Mode,
    PerformanceSUT,
    QuerySampleLibrary,
    Scenario,
    TestSettings,
    validate_log,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestTasks:
    def test_table1_registry(self):
        # 4 Table-1 tasks + 2 App. E experimental tasks
        assert len(TASKS) == 6
        assert TASK_ORDER[0] == "image_classification"
        assert len(tasks_for_version("v1.0")) == 4  # experimental excluded
        assert len(tasks_for_version("experimental")) == 2

    def test_detection_model_changes_between_rounds(self):
        det = get_task("object_detection")
        assert det.models["v0.7"] == "ssd_mobilenet_v2"
        assert det.models["v1.0"] == "mobiledet_ssd"
        # v1.0 tightened the quality requirement (93% -> 95%)
        assert det.quality_ratio["v1.0"] > det.quality_ratio["v0.7"]

    def test_quality_ratios_match_table1(self):
        assert get_task("image_classification").quality_ratio["v1.0"] == 0.98
        assert get_task("semantic_segmentation").quality_ratio["v1.0"] == 0.97
        assert get_task("question_answering").quality_ratio["v1.0"] == 0.93

    def test_offline_only_classification(self):
        offline = [t for t in TASKS.values() if t.offline_scenario]
        assert [t.name for t in offline] == ["image_classification"]

    def test_versions(self):
        assert len(tasks_for_version("v0.7")) == 4
        assert len(tasks_for_version("v1.0")) == 4

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            get_task("style_transfer")


class TestRules:
    def test_defaults_match_paper(self):
        assert DEFAULT_RULES.loadgen.min_query_count == 1024
        assert DEFAULT_RULES.loadgen.min_duration_s == 60.0
        assert DEFAULT_RULES.loadgen.offline_sample_count == 24576
        assert DEFAULT_RULES.loadgen.latency_percentile == 90.0
        assert DEFAULT_RULES.audit_tolerance == 0.05
        assert (DEFAULT_RULES.ambient_min_c, DEFAULT_RULES.ambient_max_c) == (20.0, 25.0)

    def test_room_temperature_enforced(self):
        with pytest.raises(RuleViolation):
            DEFAULT_RULES.validate_conditions(ambient_c=30.0)
        DEFAULT_RULES.validate_conditions(ambient_c=22.0)

    def test_battery_required(self):
        rules = RunRules(battery_powered=False)
        with pytest.raises(RuleViolation):
            rules.validate_conditions(ambient_c=22.0)

    def test_loadgen_settings_thread_through(self):
        """Every field of the settings both rule sets hand LoadGen, spelled out."""
        for scenario in Scenario:
            for mode in Mode:
                assert DEFAULT_RULES.loadgen_settings(scenario, mode) == TestSettings(
                    scenario=scenario, mode=mode, min_query_count=1024, min_duration_s=60.0,
                    offline_sample_count=24576, performance_sample_count=1024,
                    seed=0x9E3779B9, latency_percentile=90.0, accuracy_batch_size=32,
                    query_retry_budget=3, query_drop_budget=16,
                )
                assert QUICK_RULES.loadgen_settings(scenario, mode) == TestSettings(
                    scenario=scenario, mode=mode, min_query_count=128, min_duration_s=5.0,
                    offline_sample_count=2048, performance_sample_count=1024,
                    seed=0x9E3779B9, latency_percentile=90.0, accuracy_batch_size=32,
                    query_retry_budget=3, query_drop_budget=16,
                )
        assert QUICK_RULES.cooldown_s == 30.0


@pytest.fixture(scope="module")
def harness():
    return BenchmarkHarness(
        version="v1.0", rules=QUICK_RULES,
        dataset_sizes={"imagenet": 64, "coco": 24, "ade20k": 16, "squad": 32},
    )


class TestHarness:
    def test_ambient_enforced_at_construction(self):
        with pytest.raises(RuleViolation):
            BenchmarkHarness(ambient_c=35.0)

    def test_artifact_caching(self, harness):
        a = harness.artifacts("image_classification")
        b = harness.artifacts("image_classification")
        assert a is b

    def test_model_for_version(self, harness):
        assert harness.model_for("object_detection") == "mobiledet_ssd"

    def test_deployment_graphs_cached_per_numerics(self, harness):
        q1 = harness.deployment_graph("image_classification", Numerics.UINT8)
        q2 = harness.deployment_graph("image_classification", Numerics.UINT8)
        assert q1 is q2
        f16 = harness.deployment_graph("image_classification", Numerics.FP16)
        assert f16 is not q1 and f16.numerics == Numerics.FP16

    def test_accuracy_run_produces_metric(self, harness):
        log = harness.run_accuracy("image_classification", Numerics.FP32)
        assert "top1" in log.accuracy
        assert 0 < log.accuracy["top1"] <= 100

    def test_fp32_accuracy_cached(self, harness):
        a = harness.fp32_accuracy("image_classification")
        b = harness.fp32_accuracy("image_classification")
        assert a is b

    def test_suite_single_task(self, harness):
        suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                                  include_offline=False)
        assert len(suite.results) == 1
        r = suite.results[0]
        assert r.task == "question_answering"
        assert r.numerics == "fp16"
        assert r.latency_p90_ms > 0
        assert r.quality_target == pytest.approx(
            0.93 * r.fp32_accuracy["f1"], rel=1e-6
        )

    def test_suite_respects_task_order(self, harness):
        suite = harness.run_suite(
            "dimensity_1100",
            tasks=["question_answering", "image_classification"],
            include_offline=False,
        )
        assert [r.task for r in suite.results] == [
            "image_classification", "question_answering"
        ]

    def test_v07_task_on_v10_harness_rejected(self, harness):
        with pytest.raises(KeyError):
            BenchmarkHarness(version="v0.7").model_for("nonexistent_task")


def _hexed(value):
    """``value`` with every float as its ``float.hex``: equality is bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def _inline_run_performance(harness, task, backend, device, scenario):
    """``BenchmarkHarness.run_performance`` stated inline: its own SUT, and a
    QSL over the task's real dataset at the QSL's default seed."""
    graph = harness.full_graph(task)
    where = f"{backend.soc.name}/{backend.name}"
    if scenario is Scenario.OFFLINE:
        sut = PerformanceSUT(device, None, backend.compile_offline(graph, task),
                             name=f"offline/{where}")
    else:
        sut = PerformanceSUT(device, backend.compile_single_stream(graph, task),
                             name=f"perf/{where}")
    settings = harness.rules.loadgen_settings(scenario, Mode.PERFORMANCE)
    return LoadGenerator(settings).run(
        sut, QuerySampleLibrary(harness.artifacts(task).dataset, settings.performance_sample_count),
        task=task, model_name=harness.model_for(task),
    )


class TestPerformanceLog:
    """One performance-mode path: ``run_performance`` over one full-graph cache."""

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_harness_run_matches_inline_run(self, harness, scenario):
        """Bit for bit the run the harness stated inline, QSL over the real dataset."""
        backend = default_backend_for(get_soc("dimensity_1100"))
        task = "image_classification"
        device, inline_device = SimulatedDevice(backend.soc), SimulatedDevice(backend.soc)
        log = harness.run_performance(task, backend, device, scenario)
        inline = _inline_run_performance(harness, task, backend, inline_device, scenario)
        assert len(inline.records) or inline.offline_seconds > 0
        np.testing.assert_array_equal(log.records.sample_indices, inline.records.sample_indices)
        assert log.metadata == inline.metadata
        assert _hexed(log.to_dict()) == _hexed(inline.to_dict())
        assert device.total_energy_joules.hex() == inline_device.total_energy_joules.hex()
        assert validate_log(log) == []

    def test_qsl_seed_follows_run_rules(self):
        rules = RunRules(loadgen=TestSettings(seed=123, min_query_count=128, min_duration_s=5.0))
        harness = BenchmarkHarness(version="v1.0", rules=rules, dataset_sizes={"imagenet": 64})
        backend = default_backend_for(get_soc("dimensity_1100"))
        log = harness.run_performance("image_classification", backend,
                                      SimulatedDevice(backend.soc))
        qsl = QuerySampleLibrary(IndexDataset(64), rules.loadgen.performance_sample_count,
                                 seed=123)
        qsl.load_performance_set()
        drawn = np.concatenate([qsl.next_query() for _ in range(log.query_count)])
        assert log.seed == 123
        np.testing.assert_array_equal(log.records.sample_indices, drawn)

    def test_performance_only_run_builds_no_accuracy_artifacts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a performance-mode run built an accuracy artifact")

        monkeypatch.setattr(harness_module, "create_dataset", refuse)
        monkeypatch.setattr(harness_module, "create_reference_model", refuse)
        harness = BenchmarkHarness(version="v1.0", rules=QUICK_RULES)
        backend = default_backend_for(get_soc("dimensity_1100"))
        for scenario in Scenario:
            log = harness.run_performance("image_classification", backend,
                                          SimulatedDevice(backend.soc), scenario)
            assert validate_log(log) == []

    def test_full_graph_shared_and_frozen(self):
        a = BenchmarkHarness(version="v1.0").full_graph("object_detection")
        b = BenchmarkHarness(version="v1.0").full_graph("object_detection")
        assert a is b is full_graph("mobiledet_ssd")
        assert a.frozen

    def test_one_performance_sut_call_site(self):
        """Only ``run_performance`` builds a performance SUT in the program."""
        sites = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and "PerformanceSUT" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    owner = [f.name for f in functions
                             if f.lineno <= node.lineno <= f.end_lineno]
                    sites.append((str(path.relative_to(SRC)), owner))
        assert sites == [("core/harness.py", ["run_performance"])]
