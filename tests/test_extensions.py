"""Extension features: CLE, end-to-end AI tax, on-disk submission bundles."""

import json

import numpy as np
import pytest

from repro.analysis import ai_tax_breakdown, full_graph_cache
from repro.backends import PREPROCESS_CPU_OPS, default_backend_for
from repro.core import (
    QUICK_RULES,
    BenchmarkHarness,
    SystemDescription,
    build_submission,
    check_submission,
    write_submission,
)
from repro.graph import Executor
from repro.hardware import get_soc
from repro.loadgen import LoadGenLog, validate_log
from repro.quantization import equalize_cross_layer


class TestCrossLayerEqualization:
    def test_fp32_equivalence(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        eq = equalize_cross_layer(exported)
        want = Executor(exported).run(toy_inputs)[out]
        got = Executor(eq).run(toy_inputs)[out]
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_equalizes_pairs(self, cls_exported, toy_inputs):
        eq = equalize_cross_layer(cls_exported)
        assert eq.metadata["cle_pairs"] > 10

    def test_balances_weight_ranges(self, cls_exported):
        """After CLE, per-channel weight ranges are more uniform."""
        from repro.graph.ops import Conv2D

        def range_spread(graph):
            spreads = []
            for op in graph.ops:
                if isinstance(op, Conv2D) and not op.attrs.get("weight", "").endswith("pw/w"):
                    w = graph.params[op.attrs["weight"]]
                    if w is None or w.ndim != 4 or w.shape[3] < 4:
                        continue
                    r = np.abs(w).max(axis=(0, 1, 2))
                    spreads.append(r.max() / max(r.min(), 1e-9))
            return float(np.median(spreads))

        eq = equalize_cross_layer(cls_exported)
        assert range_spread(eq) < range_spread(cls_exported)

    def test_symbolic_rejected(self):
        from repro.graph import export_mobile
        from repro.models import create_full_model

        g = export_mobile(create_full_model("mobilenet_edgetpu").graph)
        with pytest.raises(ValueError):
            equalize_cross_layer(g)

    def test_preserves_frozen_state(self, cls_exported):
        eq = equalize_cross_layer(cls_exported)
        assert eq.frozen == cls_exported.frozen


class TestEndToEndMeasurement:
    def test_e2e_adds_preprocessing(self):
        be = default_backend_for(get_soc("snapdragon_865plus"))
        g = full_graph_cache("mobilenet_edgetpu")
        core = be.compile_single_stream(g, "image_classification")
        e2e = be.compile_single_stream(g, "image_classification", end_to_end=True)
        assert core.preprocess_cpu_ops == 0
        assert e2e.preprocess_cpu_ops == PREPROCESS_CPU_OPS["image_classification"]
        assert e2e.latency_seconds() > core.latency_seconds()

    def test_ai_tax_biggest_for_light_models(self):
        """Buch et al.: preprocessing dominates exactly when inference is fast."""
        cls = ai_tax_breakdown("snapdragon_865plus", "image_classification")
        seg = ai_tax_breakdown("snapdragon_865plus", "semantic_segmentation")
        assert cls["ai_tax_pct"] > seg["ai_tax_pct"]
        assert cls["ai_tax_pct"] > 5.0  # non-negligible
        assert seg["ai_tax_pct"] < 5.0

    def test_every_task_has_costs(self):
        from repro.backends import POSTPROCESS_CPU_OPS
        from repro.core.tasks import TASK_ORDER

        for task in TASK_ORDER:
            assert task in POSTPROCESS_CPU_OPS
            assert task in PREPROCESS_CPU_OPS


@pytest.fixture(scope="module")
def exported_submission(tmp_path_factory):
    harness = BenchmarkHarness(version="v1.0", rules=QUICK_RULES,
                               dataset_sizes={"squad": 48})
    suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                              include_offline=False)
    sub = build_submission(
        harness, suite,
        SystemDescription("mediatek", "dimensity_1100", "phone", "smartphone", "Android"),
    )
    root = write_submission(sub, tmp_path_factory.mktemp("bundle"))
    return sub, root


class TestSubmissionExport:
    def test_bundle_layout(self, exported_submission):
        _, root = exported_submission
        assert (root / "system.json").exists()
        assert (root / "provenance.json").exists()
        assert (root / "summary.json").exists()
        assert (root / "results/question_answering/accuracy_log.json").exists()
        assert (root / "results/question_answering/performance_log.json").exists()

    def test_summary_round_trip(self, exported_submission):
        sub, root = exported_submission
        summary = json.loads((root / "summary.json").read_text())
        assert summary[0]["task"] == "question_answering"
        # summaries round to 3 decimals on disk
        assert summary[0]["quality"] == pytest.approx(
            sub.suite.results[0].measured_quality, abs=5e-4
        )

    def test_log_round_trip_revalidates(self, exported_submission):
        _, root = exported_submission
        path = root / "results/question_answering/performance_log.json"
        log = LoadGenLog.from_dict(json.loads(path.read_text()))
        assert validate_log(log) == []
        assert log.query_count >= QUICK_RULES.loadgen.min_query_count

    def test_tampered_log_on_disk_detected(self, exported_submission, tmp_path):
        """Editing the 'unedited' log file breaks validation."""
        _, root = exported_submission
        path = root / "results/question_answering/performance_log.json"
        raw = json.loads(path.read_text())
        raw["metadata"]["loadgen_checksum"] = "edited"
        edited = tmp_path / "edited_log.json"
        edited.write_text(json.dumps(raw))
        log = LoadGenLog.from_dict(json.loads(edited.read_text()))
        assert any("checksum" in p for p in validate_log(log))

    def test_original_submission_still_clean(self, exported_submission):
        sub, _ = exported_submission
        assert check_submission(sub) == []
