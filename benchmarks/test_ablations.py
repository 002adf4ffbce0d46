"""Ablations of the design decisions called out in DESIGN.md §4.

1. Run rules: the 60-second minimum exists because sustained load heats the
   die — a short burst underestimates the p90 latency a user would see.
2. Fitted heads ("trained" reference models): removing the closed-form head
   fit collapses task quality to chance, demonstrating that the quality-gate
   mechanism measures real signal recovery.
3. Cooldown intervals: back-to-back tests start hot; the mandated break
   restores cold-start latency.
"""

import numpy as np
import pytest

from repro.backends import default_backend_for
from repro.core.harness import full_graph
from repro.datasets import IndexDataset, create_dataset
from repro.graph import Executor, export_mobile
from repro.hardware import SimulatedDevice, get_soc
from repro.loadgen import LoadGenerator, PerformanceSUT, QuerySampleLibrary, TestSettings
from repro.models import create_reference_model

from conftest import save_result


@pytest.mark.benchmark(group="ablations")
def test_ablation_min_duration_rule(benchmark):
    """Short runs miss the thermal tail that the 60 s rule captures."""

    def run():
        soc = get_soc("dimensity_1100")
        be = default_backend_for(soc)
        g = full_graph("mobilenet_edgetpu")
        cm = be.compile_single_stream(g, "image_classification")

        sut = PerformanceSUT(SimulatedDevice(soc), cm)
        short = LoadGenerator(TestSettings(min_query_count=16, min_duration_s=0.0)).run(
            sut, QuerySampleLibrary(IndexDataset()))
        sut_long = PerformanceSUT(SimulatedDevice(soc), cm)
        long = LoadGenerator(TestSettings(min_query_count=16, min_duration_s=60.0)).run(
            sut_long, QuerySampleLibrary(IndexDataset()))
        return {
            "short_p90_ms": short.percentile_latency() * 1e3,
            "long_p90_ms": long.percentile_latency() * 1e3,
            "long_final_temp": float(long.records.temperature_c[-1]),
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_run_rules", r)
    print(f"\np90 over 16 queries: {r['short_p90_ms']:.2f} ms; "
          f"over 60 s: {r['long_p90_ms']:.2f} ms (final die {r['long_final_temp']:.1f} C)")
    assert r["long_p90_ms"] > r["short_p90_ms"] * 1.02


@pytest.mark.benchmark(group="ablations")
def test_ablation_fitted_heads(benchmark):
    """Unfitted (purely random) heads destroy task quality."""

    def run():
        fitted = create_reference_model("mobilenet_edgetpu", fitted=True)
        raw = create_reference_model("mobilenet_edgetpu", fitted=False)
        g_fit = export_mobile(fitted.graph)
        g_raw = export_mobile(raw.graph)
        ds = create_dataset("imagenet", g_fit, fitted.config, size=192)

        def top1(graph):
            ex = Executor(graph)
            correct = 0
            for s in range(0, len(ds), 64):
                idx = np.arange(s, min(s + 64, len(ds)))
                out = ex.run(ds.input_batch(idx))
                correct += (next(iter(out.values())).argmax(-1) == ds.truths[idx]).sum()
            return correct / len(ds) * 100

        return {"fitted_top1": top1(g_fit), "unfitted_top1": top1(g_raw)}

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_fitted_heads", r)
    print(f"\nfitted {r['fitted_top1']:.1f}% vs unfitted {r['unfitted_top1']:.1f}%")
    assert r["fitted_top1"] > 60.0
    assert r["unfitted_top1"] < 15.0  # near chance for 100 classes


@pytest.mark.benchmark(group="ablations")
def test_ablation_cooldown_interval(benchmark):
    """The mandated break restores cold-start latency between tests."""

    def run():
        soc = get_soc("exynos_990")
        be = default_backend_for(soc)
        g = full_graph("deeplab_v3plus")
        cm = be.compile_single_stream(g, "semantic_segmentation")
        dev = SimulatedDevice(soc)
        cold = dev.run_query(cm).latency_seconds
        for _ in range(800):  # heat the die (~2 virtual minutes of load)
            dev.run_query(cm)
        hot = dev.run_query(cm).latency_seconds
        dev.cooldown(300.0)  # the app's 5-minute break setting
        rested = dev.run_query(cm).latency_seconds
        return {"cold_ms": cold * 1e3, "hot_ms": hot * 1e3, "rested_ms": rested * 1e3}

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_cooldown", r)
    print(f"\ncold {r['cold_ms']:.2f}  hot {r['hot_ms']:.2f}  after-break {r['rested_ms']:.2f} ms")
    assert r["hot_ms"] > r["cold_ms"]
    assert r["rested_ms"] == pytest.approx(r["cold_ms"], rel=0.02)
