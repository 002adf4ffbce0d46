"""Insight 5 (§7.5) — numerics still matter for some tasks.

Vision tasks tolerate INT8 PTQ (quality gates pass without retraining);
extractive QA does not — FP16 is required — because the transformer's
float-island structure (softmax/LayerNorm/attention) plus long residual
chains amplify activation-quantization error.
"""

import pytest

from repro.core.tasks import get_task
from repro.kernels import Numerics

from conftest import save_result


@pytest.mark.benchmark(group="insight5")
def test_nlp_needs_fp16(benchmark, accuracy_harness):
    harness = accuracy_harness

    def run():
        spec = get_task("question_answering")
        fp32 = harness.fp32_accuracy("question_answering")[spec.metric]
        int8 = harness.run_accuracy("question_answering", Numerics.INT8).accuracy[spec.metric]
        fp16 = harness.run_accuracy("question_answering", Numerics.FP16).accuracy[spec.metric]
        return {"fp32_f1": fp32, "int8_f1": int8, "fp16_f1": fp16}

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("insight5_numerics", r)
    print(f"\nMobileBERT F1: fp32 {r['fp32_f1']:.2f}  int8 {r['int8_f1']:.2f}  "
          f"fp16 {r['fp16_f1']:.2f}")

    # INT8 loses a large fraction of quality; FP16 is essentially lossless
    assert r["int8_f1"] < 0.93 * r["fp32_f1"]
    assert r["fp16_f1"] >= 0.97 * r["fp32_f1"]


@pytest.mark.benchmark(group="insight5")
def test_vision_tolerates_int8(benchmark, accuracy_harness):
    harness = accuracy_harness

    def run():
        out = {}
        for task in ("image_classification", "semantic_segmentation"):
            spec = get_task(task)
            fp32 = harness.fp32_accuracy(task)[spec.metric]
            int8 = harness.run_accuracy(task, Numerics.INT8).accuracy[spec.metric]
            out[task] = int8 / fp32
        return out

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    for task, ratio in ratios.items():
        print(f"{task}: int8 retains {ratio*100:.1f}% of fp32")
        assert ratio >= get_task(task).quality_ratio["v1.0"], task


@pytest.mark.benchmark(group="insight5")
def test_fp16_faster_than_fp32_on_gpu(benchmark):
    """Why FP16 at all: GPUs run half precision ~2x faster than FP32."""
    from repro.core.harness import full_graph
    from repro.hardware import FrameworkProfile, get_soc
    from repro.hardware.scheduler import compile_model

    def run():
        g = full_graph("mobilebert")
        soc = get_soc("exynos_990")
        fw = FrameworkProfile("probe")
        f16 = compile_model(g, soc, primary="gpu", numerics=Numerics.FP16, framework=fw)
        f32 = compile_model(g, soc, primary="gpu", numerics=Numerics.FP32, framework=fw)
        return f32.latency_seconds() / f16.latency_seconds()

    ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nMobileBERT on Mali GPU: FP32/FP16 latency ratio {ratio:.2f}x")
    assert ratio > 1.3
