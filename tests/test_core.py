"""Core: task registry, run rules, harness wiring."""

import numpy as np
import pytest

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
from repro.kernels import Numerics
from repro.loadgen import Mode, Scenario, TestSettings


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
