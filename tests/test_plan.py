"""Planned execution engine: bit-exactness, liveness, threads, profiler, RNG blocks."""

import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.graph import ExecutionPlan, ExecutionProfiler, Executor, export_mobile
from repro.kernels import Numerics
from repro.loadgen.qsl import QuerySampleLibrary
from repro.datasets.base import IndexDataset
from repro.models import available_models, create_reference_model
from repro.quantization import calibrate, convert_fp16, quantize_graph

NUMERICS_MODES = [Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8]


def _random_feeds(graph, rng, batch=4):
    """Role-aware random feeds for any zoo reference graph."""
    feeds = {}
    for spec in graph.inputs:
        shape = spec.with_batch(batch)
        if spec.role == "ids":
            feeds[spec.name] = rng.integers(0, 28, size=shape).astype(np.float32)
        elif spec.role == "mask":
            feeds[spec.name] = np.ones(shape, dtype=np.float32)
        else:
            feeds[spec.name] = rng.normal(0, 0.5, size=shape).astype(np.float32)
    return feeds


@pytest.fixture(scope="module", params=available_models())
def zoo_artifacts(request):
    """Per-model: exported FP32 graph, feeds, and calibration stats."""
    name = request.param
    bundle = create_reference_model(name, fitted=False)
    exported = export_mobile(bundle.graph)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    feeds = _random_feeds(exported, rng)
    # read-only feeds: a plan that ever writes into an array it does not own
    # (e.g. an in-place epilogue on an operand) raises instead of passing
    for arr in feeds.values():
        arr.flags.writeable = False
    stats = calibrate(exported, [feeds])
    return exported, feeds, stats


def _deployment(exported, stats, numerics):
    if numerics == Numerics.FP32:
        return exported
    if numerics == Numerics.FP16:
        return convert_fp16(exported)
    return quantize_graph(exported, stats, numerics)


class TestBitExactness:
    @pytest.mark.parametrize("numerics", NUMERICS_MODES, ids=lambda n: n.value)
    def test_plan_matches_legacy_executor(self, zoo_artifacts, numerics):
        """ExecutionPlan output == legacy interpreting loop, bit for bit."""
        exported, feeds, stats = zoo_artifacts
        assert not any(arr.flags.writeable for arr in feeds.values())
        graph = _deployment(exported, stats, numerics)
        ex = Executor(graph)
        legacy = ex.run_unplanned(feeds)
        planned = ex.run(feeds)
        assert legacy.keys() == planned.keys()
        for name in legacy:
            np.testing.assert_array_equal(legacy[name], planned[name])
            assert legacy[name].dtype == planned[name].dtype

    def test_repeated_runs_deterministic(self, zoo_artifacts):
        exported, feeds, _ = zoo_artifacts
        plan = ExecutionPlan.for_graph(exported)
        a = plan.run(feeds)
        b = plan.run(feeds)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestPlanCompilation:
    def test_symbolic_rejected(self):
        from repro.models import create_full_model

        with pytest.raises(ValueError):
            ExecutionPlan(create_full_model("mobilenet_edgetpu").graph)

    def test_missing_feed_raises(self, toy_exported):
        exported, _ = toy_exported
        with pytest.raises(KeyError):
            ExecutionPlan(exported).run({})

    def test_plan_cache_shares_and_invalidates(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        plan_a = ExecutionPlan.for_graph(exported)
        assert ExecutionPlan.for_graph(exported) is plan_a
        # replacing a parameter array must invalidate the cached plan
        before = plan_a.run(toy_inputs)[out]
        w_name = next(n for n, v in exported.params.items() if v is not None and v.ndim == 4)
        exported.params[w_name] = exported.params[w_name] * 2.0
        plan_b = ExecutionPlan.for_graph(exported)
        assert plan_b is not plan_a
        after = plan_b.run(toy_inputs)[out]
        assert not np.array_equal(before, after)

    def test_integer_kernels_prepacked(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        plan = ExecutionPlan(q)
        prepacked_types = {
            s.op_type for s in plan._steps if s.prepacked
        }
        assert {"conv2d", "depthwise_conv2d", "fully_connected"} <= prepacked_types

    def test_observer_sees_all_float_tensors(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        seen = set()
        ExecutionPlan(exported).run(toy_inputs, observer=lambda n, v: seen.add(n))
        produced = {t for op in exported.ops for t in op.outputs}
        assert produced <= seen

    def test_executor_run_arena_is_run(self, toy_exported, toy_inputs):
        ex = Executor(toy_exported[0])
        a = ex.run(toy_inputs)
        b = ex.run_arena(toy_inputs)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_observer_rejected_off_fp32(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        g = convert_fp16(exported)
        with pytest.raises(ValueError):
            ExecutionPlan(g).run(toy_inputs, observer=lambda n, v: None)


class TestLiveness:
    def test_peak_live_bytes_drops(self, cls_exported):
        """Liveness release must shrink the peak activation working set well
        below the no-reuse footprint (every tensor resident at once)."""
        rng = np.random.default_rng(0)
        shape = tuple(4 if d == -1 else d for d in cls_exported.inputs[0].shape)
        feeds = {"images": rng.normal(0, 0.5, shape).astype(np.float32)}
        prof = ExecutionProfiler()
        ExecutionPlan(cls_exported).run(feeds, profiler=prof)
        seen: dict[str, int] = {}
        Executor(cls_exported).run_unplanned(
            feeds, tap=lambda name, arr: seen.__setitem__(name, arr.nbytes)
        )
        no_reuse = sum(seen.values())
        assert prof.peak_live_bytes < 0.6 * no_reuse

    def test_outputs_never_released(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        plan = ExecutionPlan(exported)
        released = {t for s in plan._steps for t in s.release}
        assert out not in released


class TestSharedPlan:
    def test_threads_sharing_one_plan_match_sequential(self, cls_exported):
        """One plan run by more threads than cores: every result equals the
        sequential one bit for bit (a plan holds no mutable run state)."""
        plan = ExecutionPlan(cls_exported)
        rng = np.random.default_rng(3)
        shape = cls_exported.inputs[0].with_batch(4)
        feeds = [{"images": rng.normal(0, 0.5, shape).astype(np.float32)} for _ in range(8)]
        expected = [plan.run(f) for f in feeds]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(plan.run, feeds[i % 8]) for i in range(32)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for i, got in enumerate(results):
            for name, arr in expected[i % 8].items():
                np.testing.assert_array_equal(arr, got[name])


class TestProfiler:
    def test_profile_covers_every_op(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        prof = ExecutionProfiler()
        Executor(exported).run(toy_inputs, profiler=prof)
        assert set(prof.ops) == {op.name for op in exported.ops}
        assert all(p.calls == 1 for p in prof.ops.values())
        assert all(p.bytes_moved > 0 for p in prof.ops.values())
        assert prof.total_seconds > 0
        assert prof.runs == 1

    def test_top_sorted_and_summary_renders(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        prof = ExecutionProfiler()
        Executor(exported).run(toy_inputs, profiler=prof)
        top = prof.top(3)
        assert len(top) == 3
        assert top[0].total_seconds >= top[1].total_seconds >= top[2].total_seconds
        text = prof.summary()
        assert "peak live activations" in text
        payload = prof.as_dict()
        assert payload["runs"] == 1 and len(payload["ops"]) == len(exported.ops)


class TestQSLBlockSampling:
    def test_block_draw_matches_per_query_stream(self):
        """Pre-drawn blocks reproduce the legacy per-query sequence exactly."""
        a = QuerySampleLibrary(IndexDataset(64), performance_sample_count=32, seed=99)
        b = QuerySampleLibrary(IndexDataset(64), performance_sample_count=32, seed=99)
        a.load_performance_set()
        b.load_performance_set()
        # cross the block boundary to cover at least one refill
        n = a.block_size + 50
        legacy = [int(a.sample_indices(1)[0]) for _ in range(n)]
        blocked = [b.next_sample_index() for _ in range(n)]
        assert legacy == blocked

    def test_residency_change_invalidates_block(self):
        qsl = QuerySampleLibrary(IndexDataset(64), performance_sample_count=8, seed=7)
        qsl.load_performance_set()
        first = qsl.next_sample_index()
        assert isinstance(first, int)
        qsl.load_samples(np.array([63]))
        assert qsl._block is None  # block discarded on residency change
        assert 0 <= qsl.next_sample_index() < 64
