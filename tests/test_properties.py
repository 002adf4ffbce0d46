"""Cross-cutting property-based tests and failure injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Executor, GraphBuilder, export_mobile
from repro.kernels import Numerics, choose_qparams, dequantize, quantize
from repro.metrics import edit_distance, span_f1
from repro.pipelines.detection import decode_boxes, encode_boxes, iou_matrix
from repro.quantization import calibrate, quantize_graph


# ---------------------------------------------------------------- kernels
class TestQuantizationProperties:
    @given(
        st.lists(st.floats(-20, 20), min_size=4, max_size=40),
        st.sampled_from([Numerics.INT8, Numerics.UINT8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantization_monotone(self, values, numerics):
        """Quantization must preserve ordering (up to ties)."""
        arr = np.asarray(sorted(values), dtype=np.float64)
        qp = choose_qparams(float(arr.min()), float(arr.max()), numerics)
        q = quantize(arr, qp).astype(np.int64)
        assert np.all(np.diff(q) >= 0)

    @given(st.floats(0.001, 10.0), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_dequantize_exact_on_grid(self, scale, zp_raw):
        """Grid points round-trip exactly: q -> real -> q is the identity."""
        from repro.kernels import QuantParams

        zp = int(np.clip(zp_raw, -128, 127))
        qp = QuantParams(scale=scale, zero_point=zp, numerics=Numerics.INT8)
        q = np.arange(-128, 128, dtype=np.int8)
        rt = quantize(dequantize(q, qp), qp)
        np.testing.assert_array_equal(rt, q)


class TestGeometryProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_iou_triangle_like(self, seed):
        """IoU is symmetric and 1 only for identical boxes."""
        rng = np.random.default_rng(seed)
        y0, x0 = rng.uniform(0, 0.5, 2)
        h, w = rng.uniform(0.1, 0.5, 2)
        a = np.array([[y0, x0, y0 + h, x0 + w]])
        b = a + rng.uniform(-0.05, 0.05, 4)
        m = iou_matrix(a, b)
        m_t = iou_matrix(b, a)
        assert m[0, 0] == pytest.approx(m_t[0, 0])
        assert iou_matrix(a, a)[0, 0] == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_box_coding_identity(self, seed):
        """decode(encode(box)) == box for any box/anchor pair."""
        rng = np.random.default_rng(seed)
        cy, cx = rng.uniform(0.3, 0.7, 2)
        h, w = rng.uniform(0.1, 0.4, 2)
        box = np.array([[cy - h / 2, cx - w / 2, cy + h / 2, cx + w / 2]])
        anchor = np.array([[rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                            rng.uniform(0.2, 0.5), rng.uniform(0.2, 0.5)]],
                          dtype=np.float32)
        rt = decode_boxes(encode_boxes(box, anchor), anchor)
        np.testing.assert_allclose(rt, box, atol=1e-3)


class TestMetricProperties:
    @given(st.lists(st.integers(0, 5), max_size=10),
           st.lists(st.integers(0, 5), max_size=10),
           st.lists(st.integers(0, 5), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_edit_distance_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(st.lists(st.integers(0, 5), max_size=10),
           st.lists(st.integers(0, 5), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_edit_distance_symmetry_and_identity(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0

    @given(st.integers(0, 20), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_span_f1_identity(self, start, length):
        span = (start, start + length)
        assert span_f1(span, span) == 1.0


# ---------------------------------------------------------- failure injection
class TestFailureInjection:
    def test_quantized_graph_rejects_wrong_input_keys(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        with pytest.raises(KeyError):
            Executor(q).run({"wrong_name": toy_inputs["images"]})

    def test_graph_structure_change_breaks_calibration(self, toy_inputs):
        """Calibration from one graph cannot quantize a structurally
        different one (extra layers mean uncovered tensors)."""
        from conftest import build_toy_graph

        g1 = export_mobile(build_toy_graph(seed=1)[0])
        b = GraphBuilder("other", seed=1)
        x = b.input("images", (-1, 12, 12, 3))
        h = b.conv(x, 8, k=3, stride=2, activation="relu6", use_bn=True)
        h = b.conv(h, 8, k=3, activation="relu6", use_bn=True)  # extra layer
        h = b.global_pool(h)
        h = b.reshape(h, (8,))
        h = b.fc(h, 10)
        b.outputs(b.softmax(h))
        g2 = export_mobile(b.build())
        stats = calibrate(g1, [toy_inputs])
        with pytest.raises(KeyError):
            quantize_graph(g2, stats)

    def test_harness_rejects_unknown_soc(self):
        from repro.core import BenchmarkHarness, QUICK_RULES

        harness = BenchmarkHarness(rules=QUICK_RULES)
        with pytest.raises(KeyError):
            harness.run_suite("kirin_9000")

    def test_audit_detects_swapped_model(self):
        """A submission whose deployed model is not derived from the frozen
        reference graph fails the checker (model-equivalence rule, §5.1)."""
        from repro.core import (
            QUICK_RULES, BenchmarkHarness, SystemDescription,
            build_submission, check_submission,
        )

        harness = BenchmarkHarness(rules=QUICK_RULES, dataset_sizes={"squad": 32})
        suite = harness.run_suite("dimensity_1100", tasks=["question_answering"],
                                  include_offline=False)
        sub = build_submission(
            harness, suite,
            SystemDescription("x", "dimensity_1100", "d", "smartphone", "a"),
        )
        sub.model_provenance["question_answering"]["deployed_source_checksum"] = "abcd"
        assert any("frozen" in p for p in check_submission(sub))

    def test_loadgen_degrades_on_zero_latency_sut(self):
        """A SUT claiming instantaneous inference yields a flagged partial
        run (every query dropped after retries), never a crashed suite."""
        from repro.datasets import IndexDataset
        from repro.loadgen import (
            LoadGenerator, QuerySampleLibrary, SystemUnderTest, TestSettings,
            validate_log,
        )

        class BrokenSUT(SystemUnderTest):
            name = "broken"

            def issue_query(self, indices):
                return 0.0  # claims instantaneous inference

        settings = TestSettings(min_query_count=4, min_duration_s=0.0)
        log = LoadGenerator(settings).run(BrokenSUT(), QuerySampleLibrary(IndexDataset()))
        assert log.metadata["partial"]
        assert log.metadata["dropped_queries"] > settings.query_drop_budget
        assert log.query_count == 0
        problems = validate_log(log)
        assert any("partial" in p for p in problems)
        assert any("dropped" in p for p in problems)

    def test_partition_rejects_missing_accelerator(self):
        from repro.core.harness import full_graph
        from repro.hardware import FrameworkProfile, compile_model, get_soc

        g = full_graph("mobilenet_edgetpu")
        soc = get_soc("core_i7_1165g7")  # laptops have no NPU
        with pytest.raises(KeyError):
            compile_model(g, soc, primary="npu", numerics=Numerics.INT8,
                          framework=FrameworkProfile("t"))


# ----------------------------------------------------- determinism end-to-end
class TestDeterminism:
    def test_quantized_accuracy_bit_stable(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        stats1 = calibrate(exported, [toy_inputs])
        stats2 = calibrate(exported, [toy_inputs])
        q1 = quantize_graph(exported, stats1)
        q2 = quantize_graph(exported, stats2)
        r1 = Executor(q1).run(toy_inputs)[out]
        r2 = Executor(q2).run(toy_inputs)[out]
        np.testing.assert_array_equal(r1, r2)
        assert q1.checksum() == q2.checksum()

    def test_performance_run_bit_stable(self):
        from repro.analysis import measure_single_stream

        a = measure_single_stream("exynos_2100", "image_classification")
        b = measure_single_stream("exynos_2100", "image_classification")
        assert a["latency_p90_ms"] == b["latency_p90_ms"]
        assert a["energy_per_query_mj"] == b["energy_per_query_mj"]
