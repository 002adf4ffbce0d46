"""Hardware simulation: accelerators, partitioning, thermal, power, device."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import full_graph_cache
from repro.graph import export_mobile
from repro.hardware import (
    GENERATION_PAIRS,
    OP_SUPPORT,
    SOC_CATALOG,
    AcceleratorSpec,
    FrameworkProfile,
    PowerModel,
    SimulatedDevice,
    ThermalModel,
    compile_model,
    get_soc,
    partition_graph,
)
from repro.hardware.scheduler import OFFLINE_BATCH, offline_throughput
from repro.kernels import Numerics


FW = FrameworkProfile("test")


class TestAcceleratorSpec:
    def test_unsupported_numerics(self):
        acc = AcceleratorSpec("a", "npu", {Numerics.INT8: 1.0}, 10.0, 5.0, 1.0)
        assert not acc.supports(Numerics.FP32)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AcceleratorSpec("a", "tpu", {Numerics.INT8: 1.0}, 10.0, 5.0, 1.0)

    def test_op_support_hierarchy(self):
        assert OP_SUPPORT["npu"] < OP_SUPPORT["gpu"]  # GPU runs strictly more
        assert "attention" not in OP_SUPPORT["npu"]
        assert "attention" in OP_SUPPORT["gpu"]
        assert "resize_bilinear" not in OP_SUPPORT["npu"]


class TestCatalog:
    def test_catalog_rounds(self):
        # 8 chips across the two published rounds + the iOS preview device
        assert len(SOC_CATALOG) == 9
        v07 = [s for s in SOC_CATALOG.values() if s.benchmark_version == "v0.7"]
        v10 = [s for s in SOC_CATALOG.values() if s.benchmark_version == "v1.0"]
        assert len(v07) == len(v10) == 4
        assert SOC_CATALOG["apple_a14"].benchmark_version == "preview"

    def test_generation_pairs_valid(self):
        for old, new in GENERATION_PAIRS.values():
            assert SOC_CATALOG[old].benchmark_version == "v0.7"
            assert SOC_CATALOG[new].benchmark_version == "v1.0"
            assert SOC_CATALOG[old].vendor == SOC_CATALOG[new].vendor

    def test_every_soc_has_cpu(self):
        for soc in SOC_CATALOG.values():
            assert soc.accelerator("cpu").kind == "cpu"

    def test_unknown_soc(self):
        with pytest.raises(KeyError):
            get_soc("kirin_9000")

    def test_smartphone_tdp_capped(self):
        for soc in SOC_CATALOG.values():
            if soc.form_factor == "smartphone":
                assert soc.tdp_watts <= 3.0  # paper App. E


class TestPartitioning:
    def test_classification_splits_at_softmax(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        segs = partition_graph(g, soc.accelerator("apu"), soc.accelerator("cpu"),
                               Numerics.UINT8)
        assert len(segs) == 2
        assert segs[0].accelerator.name == "apu"
        assert segs[1].accelerator.name == "cpu"  # softmax falls back
        assert segs[1].num_ops == 1  # just the final softmax ("probs")

    def test_fp32_stays_off_npu(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        segs = partition_graph(g, soc.accelerator("apu"), soc.accelerator("cpu"),
                               Numerics.FP32)
        assert all(s.accelerator.name == "cpu" for s in segs)

    def test_dilated_convs_fall_back(self):
        g = full_graph_cache("deeplab_v3plus")
        soc = get_soc("dimensity_1100")
        segs = partition_graph(g, soc.accelerator("apu"), soc.accelerator("cpu"),
                               Numerics.UINT8, secondary=soc.accelerator("gpu"))
        gpu_ops = [op for s in segs if s.accelerator.name == "gpu" for op in s.op_names]
        assert any("rate6" in op or "rate12" in op for op in gpu_ops)

    def test_framework_exclusions(self):
        g = full_graph_cache("deeplab_v3plus")
        soc = get_soc("exynos_990")
        with_excl = partition_graph(
            g, soc.accelerator("npu"), soc.accelerator("cpu"), Numerics.INT8,
            secondary=soc.accelerator("gpu"),
            excluded_ops=frozenset({"concat"}),
        )
        without = partition_graph(
            g, soc.accelerator("npu"), soc.accelerator("cpu"), Numerics.INT8,
            secondary=soc.accelerator("gpu"),
        )
        assert len(with_excl) > len(without)

    def test_unfolded_bn_rejected(self, cls_bundle):
        soc = get_soc("dimensity_1100")
        with pytest.raises(ValueError):
            partition_graph(cls_bundle.graph, soc.accelerator("apu"),
                            soc.accelerator("cpu"), Numerics.UINT8)

    def test_mass_conservation(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("exynos_2100")
        segs = partition_graph(g, soc.accelerator("npu"), soc.accelerator("cpu"),
                               Numerics.INT8)
        assert sum(s.macs for s in segs) == g.total_macs
        assert sum(s.num_ops for s in segs) == len(g.ops)


class TestCompiledModel:
    @pytest.fixture()
    def compiled(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        return compile_model(g, soc, primary="apu", numerics=Numerics.UINT8, framework=FW)

    def test_latency_positive(self, compiled):
        assert compiled.latency_seconds() > 0

    def test_batching_amortizes(self, compiled):
        """Per-sample time must drop with batch size (overhead amortization)."""
        t1 = compiled.latency_seconds(batch=1)
        t64 = compiled.latency_seconds(batch=64) / 64
        assert t64 < t1

    def test_throttling_slows(self, compiled):
        hot = compiled.latency_seconds(0.6)
        assert hot > compiled.latency_seconds()

    def test_framework_overhead_additive(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        slow_fw = FrameworkProfile("slow", per_inference_ms=5.0)
        fast = compile_model(g, soc, primary="apu", numerics=Numerics.UINT8, framework=FW)
        slow = compile_model(g, soc, primary="apu", numerics=Numerics.UINT8, framework=slow_fw)
        assert slow.latency_seconds() - fast.latency_seconds() == pytest.approx(5e-3, rel=0.01)

    def test_busy_seconds_below_latency(self, compiled):
        latency, busy = compiled.query_seconds()
        assert latency == compiled.latency_seconds()
        assert sum(busy.values()) <= latency

    def test_offline_throughput_sums_pipelines(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("snapdragon_865plus")
        pipes = [
            compile_model(g, soc, primary=p, numerics=Numerics.UINT8, framework=FW)
            for p in ("hta", "hvx")
        ]
        per_pipe = [OFFLINE_BATCH / p.latency_seconds(batch=OFFLINE_BATCH) for p in pipes]
        assert offline_throughput(pipes) == sum(per_pipe)
        assert offline_throughput(pipes[:1]) == per_pipe[0]


class TestThermal:
    def test_heats_toward_steady_state(self):
        soc = get_soc("dimensity_1100")
        t = ThermalModel(soc, ambient_c=22.0)
        t.advance(1e6, power_watts=3.0)  # long enough to converge
        assert t.temperature_c == pytest.approx(22.0 + 3.0 * soc.thermal_resistance, rel=0.01)

    def test_cooldown_returns_to_ambient(self):
        soc = get_soc("dimensity_1100")
        t = ThermalModel(soc, ambient_c=22.0)
        t.temperature_c = 80.0
        t.cooldown(1e6)
        assert t.temperature_c == pytest.approx(22.0, abs=0.1)

    def test_throttle_curve(self):
        soc = get_soc("dimensity_1100")
        t = ThermalModel(soc)
        assert t.clock_scale() == 1.0
        t.temperature_c = soc.throttle_temp + 10
        assert t.clock_scale() == pytest.approx(1.0 - soc.throttle_slope * 10)
        t.temperature_c = 300.0
        assert t.clock_scale() == t.min_clock_scale

    def test_ambient_validation(self):
        with pytest.raises(ValueError):
            ThermalModel(get_soc("dimensity_1100"), ambient_c=50.0)

    def test_negative_time_rejected(self):
        t = ThermalModel(get_soc("dimensity_1100"))
        with pytest.raises(ValueError):
            t.advance(-1.0, 1.0)

    @given(st.floats(0.1, 10.0), st.floats(0.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_heating(self, seconds, power):
        t = ThermalModel(get_soc("exynos_2100"))
        before = t.temperature_c
        t.advance(seconds, power)
        if power > 0:
            assert t.temperature_c >= before - 1e-9


class TestPowerAndDevice:
    def test_energy_positive_and_capped(self):
        g = full_graph_cache("deeplab_v3plus")
        soc = get_soc("dimensity_1100")
        cm = compile_model(g, soc, primary="apu", numerics=Numerics.UINT8, framework=FW)
        pm = PowerModel(soc)
        lat, busy = cm.query_seconds()
        e = pm.query_energy(busy, lat)
        assert e.energy_joules > 0
        assert e.average_watts <= soc.tdp_watts + 1e-9

    def test_device_accumulates(self):
        g = full_graph_cache("mobilenet_edgetpu")
        soc = get_soc("dimensity_1100")
        cm = compile_model(g, soc, primary="apu", numerics=Numerics.UINT8, framework=FW)
        dev = SimulatedDevice(soc)
        for _ in range(10):
            dev.run_query(cm)
        assert dev.virtual_time > 0 and dev.total_energy_joules > 0
        t = dev.thermal.temperature_c
        assert t > 22.0

    def test_sustained_load_throttles(self):
        """Long single-stream runs drift latencies upward (run-rule rationale)."""
        g = full_graph_cache("deeplab_v3plus")
        soc = get_soc("exynos_990")
        cm = compile_model(g, soc, primary="npu", numerics=Numerics.INT8,
                           framework=FW, secondary="gpu")
        dev = SimulatedDevice(soc)
        first = dev.run_query(cm).latency_seconds
        for _ in range(900):  # ~1 virtual minute of sustained segmentation
            dev.run_query(cm)
        last = dev.run_query(cm).latency_seconds
        assert last > first

    def test_factory_reset(self):
        soc = get_soc("dimensity_1100")
        dev = SimulatedDevice(soc)
        dev.thermal.temperature_c = 70
        dev.virtual_time = 100
        dev.reset()
        assert dev.thermal.temperature_c == 22.0 and dev.virtual_time == 0
