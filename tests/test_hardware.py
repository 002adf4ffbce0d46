"""Hardware simulation: accelerators, partitioning, thermal, power, device."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import full_graph_cache
from repro.backends import default_backend_for
from repro.core.tasks import TASK_ORDER, get_task
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
from repro.hardware.scheduler import OFFLINE_BATCH, CompiledModel, offline_throughput
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

    def test_accelerator_names_unique(self):
        soc = get_soc("dimensity_1100")
        cpu = soc.accelerator("cpu")
        with pytest.raises(ValueError):
            dataclasses.replace(soc, accelerators=(cpu, cpu))


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

    def test_compiled_models_are_frozen(self, compiled):
        assert isinstance(compiled.segments, tuple)
        assert isinstance(compiled.segments[0].op_names, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.numerics = Numerics.FP32
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.segments[0].macs = 0.0

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


def unprepared_query(cm, clock_scale, batch):
    """A query's latency and busy seconds, walking the segments as stated."""
    total = cm.framework.per_inference_ms * 1e-3
    busy = {}
    for i, seg in enumerate(cm.segments):
        acc = seg.accelerator
        tops = acc.effective_tops[cm.numerics] * cm.framework.tops_derate
        compute = (2.0 * seg.macs) / (tops * 1e12) * batch
        memory = (seg.activation_bytes * batch + seg.weight_bytes) / (acc.memory_gbps * 1e9)
        active = max(compute / clock_scale, memory)
        busy[acc.name] = busy.get(acc.name, 0.0) + active
        overhead = (acc.dispatch_overhead_us + len(seg.op_names) * acc.per_op_overhead_us) * 1e-6
        total += active + overhead / clock_scale
        if i > 0:
            total += cm.framework.per_boundary_ms * 1e-3
            if cm.segments[i - 1].accelerator.kind != "cpu" and acc.kind != "cpu":
                total += cm.soc.segment_sync_ms * 1e-3
                total += seg.boundary_bytes * batch / (cm.soc.interconnect_gbps * 1e9)
    extra_cpu_ops = cm.postprocess_cpu_ops + cm.preprocess_cpu_ops
    if extra_cpu_ops:
        cpu = cm.soc.accelerator("cpu")
        total += batch * extra_cpu_ops / (cpu.effective_tops[Numerics.FP32] * 1e12)
    return total, busy


def unprepared_energy(soc, busy, latency):
    """A query's energy, looking each engine up in the SoC as stated."""
    active = 0.0
    for name, seconds in busy.items():
        active += seconds * soc.accelerator(name).tdp_watts
    energy = (active + soc.accelerator("cpu").tdp_watts * PowerModel.ORCHESTRATION_FRACTION
              * latency + sum(a.idle_watts for a in soc.accelerators) * latency)
    if energy / latency > soc.tdp_watts:
        return soc.tdp_watts * latency
    return energy


def sweep_models():
    """Every model perf-sweep compiles: single-stream and offline pipelines of
    each v0.7/v1.0 SoC x task."""
    for soc in SOC_CATALOG.values():
        if soc.benchmark_version not in ("v0.7", "v1.0"):
            continue
        backend = default_backend_for(soc)
        for task in TASK_ORDER:
            spec = get_task(task)
            graph = full_graph_cache(spec.models[soc.benchmark_version])
            yield soc, backend.compile_single_stream(graph, task)
            if spec.offline_scenario:
                for pipeline in backend.compile_offline(graph, task):
                    yield soc, pipeline


class TestPreparedQueries:
    """The prepared query terms and the device's reuse of its last result
    give the unprepared floats bit for bit."""

    def test_query_seconds_match_the_unprepared_walk(self):
        checked = 0
        for soc, cm in sweep_models():
            thermal = ThermalModel(soc)
            scales = (1.0, thermal.min_clock_scale,
                      thermal.clock_scale_at(soc.throttle_temp + 7.3))
            power = PowerModel(soc)
            for scale in scales:
                for batch in (1, 8, OFFLINE_BATCH):
                    latency, busy = cm.query_seconds(scale, batch)
                    want_latency, want_busy = unprepared_query(cm, scale, batch)
                    assert latency.hex() == want_latency.hex(), (soc.name, cm.model_name)
                    assert list(busy) == list(want_busy)
                    assert [v.hex() for v in busy.values()] == [
                        v.hex() for v in want_busy.values()]
                    energy = power.query_energy(busy, latency).energy_joules
                    assert energy.hex() == unprepared_energy(soc, busy, latency).hex()
                    checked += 1
        assert checked >= 32 * 9

    def test_reused_results_equal_a_fresh_device(self, monkeypatch):
        soc = get_soc("snapdragon_865plus")
        graph = full_graph_cache("mobilenet_edgetpu")
        a, b = (compile_model(graph, soc, primary=p, numerics=Numerics.UINT8, framework=FW)
                for p in ("hta", "hvx"))
        calls = []
        query_seconds = CompiledModel.query_seconds

        def counted(cm, clock_scale=1.0, batch=1):
            calls.append((cm, batch))
            return query_seconds(cm, clock_scale, batch)

        monkeypatch.setattr(CompiledModel, "query_seconds", counted)
        sequence = [(a, 1), (a, 1), (a, 8), (a, 8), (b, 8), (b, 1), (b, 1), (a, 1), (a, 1)]
        dev = SimulatedDevice(soc)
        asked = []
        for cm, batch in sequence:
            before, calls_before = dev.thermal.temperature_c, len(calls)
            result = dev.run_query(cm, batch)
            asked += calls[calls_before:]
            fresh = SimulatedDevice(soc)
            fresh.thermal.temperature_c = before
            assert result.clock_scale == 1.0
            assert fresh.run_query(cm, batch) == result
        # the device asked the model once per change of model or batch
        assert asked == [(a, 1), (a, 8), (b, 8), (b, 1), (a, 1)]


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
        """A factory reset is a fresh device: it repeats a cold run's first query."""
        soc = get_soc("dimensity_1100")
        cm = compile_model(full_graph_cache("mobilenet_edgetpu"), soc, primary="apu",
                           numerics=Numerics.UINT8, framework=FW)
        dev = SimulatedDevice(soc)
        cold = dev.run_query(cm)
        dev.thermal.temperature_c = 70
        dev.run_query(cm)
        dev = SimulatedDevice(soc)
        assert dev.thermal.temperature_c == 22.0 and dev.virtual_time == 0
        assert dev.run_query(cm) == cold
