"""Backend layer: vendor configs, gating, ALP, Table-2 descriptions."""

from dataclasses import replace

import pytest

from repro.backends import (
    Backend,
    BACKEND_FACTORIES,
    available_backends,
    create_backend,
    default_backend_for,
)
from repro.core.harness import full_graph
from repro.hardware import SOC_CATALOG, get_soc
from repro.kernels import Numerics


class TestRegistry:
    def test_backend_registry(self):
        assert set(available_backends()) == {
            "tflite", "nnapi", "neuron", "enn", "snpe", "openvino", "coreml",
            "dummy",
        }

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            create_backend("winml", get_soc("dimensity_1100"))

    def test_vendor_gating(self):
        with pytest.raises(ValueError):
            create_backend("snpe", get_soc("exynos_2100"))
        with pytest.raises(ValueError):
            create_backend("enn", get_soc("snapdragon_888"))

    def test_vendor_neutral_backends_run_anywhere(self):
        for soc_name in SOC_CATALOG:
            create_backend("tflite", get_soc(soc_name))
            create_backend("dummy", get_soc(soc_name))

    def test_apple_preview(self):
        """App. E: iOS support — ANE + Core ML, vendor-gated like any SDK."""
        be = default_backend_for(get_soc("apple_a14"))
        assert be.name == "coreml"
        assert be.describe("image_classification") == "INT8, Core ML, ANE"
        with pytest.raises(ValueError):
            create_backend("coreml", get_soc("exynos_2100"))

    def test_defaults_match_table2(self):
        assert default_backend_for(get_soc("exynos_990")).name == "enn"
        assert default_backend_for(get_soc("snapdragon_865plus")).name == "snpe"
        assert default_backend_for(get_soc("dimensity_820")).name == "nnapi"
        assert default_backend_for(get_soc("dimensity_1100")).name == "neuron"
        assert default_backend_for(get_soc("core_i7_1165g7")).name == "openvino"


class TestTaskConfigs:
    def test_nlp_uses_fp16_on_phone_gpus(self):
        """Paper Insight 5: NLP favours FP16 on GPUs for phone submissions."""
        for soc_name in ("exynos_990", "snapdragon_865plus", "dimensity_820"):
            be = default_backend_for(get_soc(soc_name))
            cfg = be.task_execution("question_answering")
            assert cfg.numerics == Numerics.FP16
            assert cfg.primary == "gpu"

    def test_vision_uses_int8_family(self):
        for soc_name in SOC_CATALOG:
            be = default_backend_for(get_soc(soc_name))
            for task in ("image_classification", "object_detection",
                         "semantic_segmentation"):
                assert be.task_execution(task).numerics in (Numerics.INT8, Numerics.UINT8)

    def test_laptop_nlp_int8(self):
        """Laptops are the exception: OpenVINO quantizes NLP (Table 2)."""
        be = default_backend_for(get_soc("core_i7_1165g7"))
        assert be.task_execution("question_answering").numerics == Numerics.INT8

    def test_describe_formats_table2_cell(self):
        be = default_backend_for(get_soc("snapdragon_865plus"))
        assert be.describe("image_classification") == "UINT8, SNPE, HTA"
        assert be.describe("image_classification", scenario="offline") == \
            "UINT8, SNPE, HTA+HVX"

    def test_unsupported_task(self):
        be = create_backend("tflite", get_soc("dimensity_1100"))
        with pytest.raises(KeyError):
            be.task_execution("style_transfer")

    def test_experimental_tasks_configured(self):
        """App. E tasks run on every backend: speech on the GPU in FP16
        (LSTM recurrence), SR quantized like vision."""
        for soc_name in ("exynos_2100", "dimensity_1100", "core_i7_11375h"):
            be = default_backend_for(get_soc(soc_name))
            assert be.task_execution("speech_recognition").numerics == Numerics.FP16
            sr = be.task_execution("super_resolution")
            assert sr.numerics in (Numerics.INT8, Numerics.UINT8)


class TestCompilation:
    def test_single_stream_compiles(self):
        g = full_graph("mobilenet_edgetpu")
        be = default_backend_for(get_soc("exynos_2100"))
        cm = be.compile_single_stream(g, "image_classification")
        assert cm.numerics == Numerics.INT8
        assert any(s.accelerator.name == "npu" for s in cm.segments)

    def test_offline_alp_pipelines(self):
        g = full_graph("mobilenet_edgetpu")
        be = default_backend_for(get_soc("snapdragon_865plus"))
        pipes = be.compile_offline(g, "image_classification")
        assert [p.segments[0].accelerator.name for p in pipes] == ["hta", "hvx"]

    def test_reference_backend_is_slowest(self):
        """The FP32 CPU reference backend must be slower than vendor SDKs."""
        g = full_graph("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        ref = create_backend("tflite", soc).compile_single_stream(g, "image_classification")
        vend = create_backend("neuron", soc).compile_single_stream(g, "image_classification")
        assert ref.latency_seconds() > 3 * vend.latency_seconds()

    def test_nnapi_slower_than_neuron(self):
        g = full_graph("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        nnapi = create_backend("nnapi", soc).compile_single_stream(g, "image_classification")
        neuron = create_backend("neuron", soc).compile_single_stream(g, "image_classification")
        assert nnapi.latency_seconds() > neuron.latency_seconds()

    def test_detection_pays_postprocess_tax(self):
        g = full_graph("mobiledet_ssd")
        be = default_backend_for(get_soc("dimensity_1100"))
        cm = be.compile_single_stream(g, "object_detection")
        assert cm.postprocess_cpu_ops > 0

    def test_derate_keeps_framework_op_exclusions(self):
        """A per-task kernel derate scales throughput only: the v0.7 ENN
        runtime's concat exclusion still splits DeepLab into more segments."""
        g = full_graph("deeplab_v3plus")
        soc = get_soc("exynos_990")
        config = BACKEND_FACTORIES["enn"](soc)
        task = "semantic_segmentation"
        assert "concat" in config.framework.unsupported_ops

        def segments(derate):
            tasks = {**config.tasks,
                     task: replace(config.tasks[task], tops_derate=derate)}
            backend = Backend(replace(config, tasks=tasks), soc)
            return len(backend.compile_single_stream(g, task).segments)

        assert segments(0.5) == segments(1.0)
