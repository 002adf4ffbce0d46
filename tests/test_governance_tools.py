"""Calibration governance, graph summaries, and the iOS preview device."""

import numpy as np
import pytest

from repro.analysis import measure_single_stream
from repro.backends import create_backend, default_backend_for
from repro.core import (
    QUICK_RULES,
    BenchmarkHarness,
    SystemDescription,
    build_submission,
    check_submission,
)
from repro.core.harness import full_graph
from repro.graph import export_mobile, graph_summary
from repro.hardware import get_soc
from repro.models import create_full_model


class TestCalibrationGovernance:
    @pytest.fixture(scope="class")
    def quantized_submission(self):
        harness = BenchmarkHarness(version="v1.0", rules=QUICK_RULES,
                                   dataset_sizes={"ade20k": 24})
        suite = harness.run_suite("exynos_2100", tasks=["semantic_segmentation"],
                                  include_offline=False)
        sub = build_submission(
            harness, suite,
            SystemDescription("samsung", "exynos_2100", "d", "smartphone", "a"),
        )
        return sub

    def test_quantization_provenance_recorded(self, quantized_submission):
        quant = quantized_submission.model_provenance["semantic_segmentation"][
            "quantization"]
        assert quant["numerics"] in ("int8", "uint8")
        assert quant["calibration_samples"] <= 500
        assert "observer" in quant

    def test_oversized_calibration_rejected(self, quantized_submission):
        quant = quantized_submission.model_provenance["semantic_segmentation"][
            "quantization"]
        original = quant["calibration_samples"]
        quant["calibration_samples"] = 5000  # used the whole training set
        try:
            problems = check_submission(quantized_submission)
            assert any("calibration" in p for p in problems)
        finally:
            quant["calibration_samples"] = original

    def test_fp16_models_have_no_calibration_rule(self):
        harness = BenchmarkHarness(version="v1.0", rules=QUICK_RULES,
                                   dataset_sizes={"squad": 32})
        suite = harness.run_suite("exynos_2100", tasks=["question_answering"],
                                  include_offline=False)
        sub = build_submission(
            harness, suite,
            SystemDescription("samsung", "exynos_2100", "d", "smartphone", "a"),
        )
        assert check_submission(sub) == []


class TestGraphSummary:
    def test_contains_ops_and_totals(self, cls_exported):
        text = graph_summary(cls_exported)
        assert "conv2d" in text
        assert "total:" in text
        assert "[frozen]" in text
        assert f"{len(cls_exported.ops)} ops" in text

    def test_max_rows_truncation(self, cls_exported):
        text = graph_summary(cls_exported, max_rows=3)
        assert "more ops" in text
        assert text.count("conv2d") <= 4

    def test_symbolic_marker(self):
        g = export_mobile(create_full_model("mobilebert").graph)
        assert "(symbolic)" in graph_summary(g, max_rows=2)


class TestApplePreview:
    def test_competitive_vision_latency(self):
        """The A14 preview lands in the v1.0 flagship neighbourhood."""
        a14 = measure_single_stream("apple_a14", "image_classification", version="v1.0")
        d1100 = measure_single_stream("dimensity_1100", "image_classification")
        assert 0.5 < a14["latency_p90_ms"] / d1100["latency_p90_ms"] < 2.0

    def test_ane_runs_resize(self):
        """The ANE supports bilinear resize: DeepLab fragments less there."""
        g = full_graph("deeplab_v3plus")
        apple = default_backend_for(get_soc("apple_a14")).compile_single_stream(
            g, "semantic_segmentation")
        mtk = create_backend("neuron", get_soc("dimensity_1100")).compile_single_stream(
            g, "semantic_segmentation")
        assert len(apple.segments) < len(mtk.segments)

    def test_preview_excluded_from_generation_pairs(self):
        from repro.hardware import GENERATION_PAIRS

        paired = {s for pair in GENERATION_PAIRS.values() for s in pair}
        assert "apple_a14" not in paired
