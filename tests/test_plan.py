"""Planned execution engine: bit-exactness, liveness, threads, profiler, RNG blocks."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.graph import (
    ExecutionPlan, ExecutionProfiler, Executor, export_mobile,
)
from repro.graph import ops as graph_ops
from repro.hardware import OP_SUPPORT
from repro.kernels import Numerics, quantize
from repro.loadgen.qsl import BLOCK_SIZE, QuerySampleLibrary
from repro.datasets.base import IndexDataset
from repro.models import available_models, create_reference_model, model_feeds
from repro.quantization import calibrate, convert_fp16, quantize_graph
from repro.staticcheck import deployment_variants

import references

INTEGER_KERNELS = ("conv2d", "depthwise_conv2d", "fully_connected")


@pytest.fixture(scope="module", params=available_models())
def zoo_artifacts(request, unfitted_zoo):
    """Per-model: exported FP32 graph and its fixed read-only feeds."""
    name = request.param
    _, exported = unfitted_zoo[name]
    return exported, model_feeds(name, exported, references.GOLDEN_BATCH)


class TestBitExactness:
    @pytest.mark.parametrize("numerics", references.NUMERICS)
    @pytest.mark.parametrize("model", available_models())
    def test_plan_matches_legacy_executor(self, reference_check, model, numerics):
        """Plan outputs hash to the golden digests, which were recorded from
        the legacy interpreting loop before it was deleted (zoo model on
        fixed read-only batch-4 feeds, BLAS pinned to 2 threads)."""
        proc, verdicts = reference_check
        golden = verdicts.get("golden_outputs", {})
        assert golden.get(f"{model}/{numerics}") == "ok", proc.stdout + proc.stderr

    def test_golden_check_passes(self, reference_check):
        """Every golden pair is computed and matches; nothing is stale."""
        proc, verdicts = reference_check
        assert set(verdicts.get("golden_outputs", {}).values()) == {"ok"}, proc.stdout + proc.stderr

    def test_repeated_runs_deterministic(self, zoo_artifacts):
        exported, feeds = zoo_artifacts
        plan = ExecutionPlan.for_graph(exported)
        a = plan.run(feeds)
        b = plan.run(feeds)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


@pytest.fixture(scope="module")
def zoo_graphs(unfitted_zoo):
    """Every zoo model, unfitted, as built (batch norms unfolded) and exported."""
    return [(name, graph) for name, pair in unfitted_zoo.items() for graph in pair]


class TestShapeOracle:
    """Every ``Op.infer_shapes`` against what its kernel really returns.

    Staticcheck's DF006 re-runs ``infer_shapes`` on recorded specs, so it can
    only show that the specs are consistent with the inference; this run-time
    tap shows that the inference is right.
    """

    BATCH = 4

    @staticmethod
    def _mismatches(graph, feeds, batch):
        bad, seen = [], []

        def tap(name, arr):
            expected = graph.spec(name).with_batch(batch)
            seen.append(name)
            if arr.shape != expected:
                bad.append((name, arr.shape, expected))

        ExecutionPlan.for_graph(graph).run(feeds, tap=tap)
        assert sorted(seen) == sorted(graph.tensor_specs), graph.name  # none escapes
        return bad

    def test_zoo_tensors_match_their_specs(self, zoo_graphs):
        for name, g in zoo_graphs:
            feeds = model_feeds(name, g, self.BATCH)
            assert self._mismatches(g, feeds, self.BATCH) == [], name

    def test_every_op_type_is_exercised(self, zoo_graphs):
        """The zoo alone reaches every op type, every activation kind and
        every op type an accelerator table lists, so none of them is code
        that only a test runs."""
        ops = [op for _, g in zoo_graphs for op in g.ops]
        exercised = {op.op_type for op in ops}
        op_types = {
            cls.op_type for cls in vars(graph_ops).values()
            if isinstance(cls, type) and issubclass(cls, graph_ops.Op)
            and cls.op_type != graph_ops.Op.op_type
        }
        assert op_types - exercised == set()
        assert set().union(*OP_SUPPORT.values()) - exercised == set()
        kinds = {op.attrs["kind"] for op in ops if op.op_type == "activation"}
        kinds |= {op.attrs.get("activation") for op in ops}
        assert set(graph_ops.ACTIVATION_FUNCTIONS) - kinds == set()


class TestIntegerOperands:
    @pytest.mark.parametrize("fitted", [False, True])
    @pytest.mark.parametrize("name", available_models())
    def test_zoo_integer_kernels_prove_float32(self, name, fitted, unfitted_zoo):
        """Every integer kernel of every zoo model, INT8 and UINT8, fitted or
        not, passes the float32 exactness bound, so losing the proof fails
        here instead of silently running float64 operands at twice the cost."""
        if fitted:
            exported = export_mobile(create_reference_model(name).graph)
        else:
            _, exported = unfitted_zoo[name]
        feeds = model_feeds(name, exported, references.GOLDEN_BATCH)
        for _, q in deployment_variants(exported, (Numerics.INT8, Numerics.UINT8), [feeds]):
            kernels = sum(op.op_type in INTEGER_KERNELS for op in q.ops)
            operands = ExecutionPlan(q).describe()["integer_operands"]
            assert operands == {"float32": kernels, "float64": 0}


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

    def test_frozen_params_read_only(self, toy_exported, toy_inputs):
        """An in-place edit of a frozen graph's parameter raises, so a cached
        plan can never serve prepared constants the graph no longer has."""
        exported, out = toy_exported
        assert exported.frozen
        plan = ExecutionPlan.for_graph(exported)
        before = plan.run(toy_inputs)[out]
        w_name = next(n for n, v in exported.params.items() if v is not None and v.ndim == 4)
        with pytest.raises(ValueError):
            exported.params[w_name][...] *= 2
        assert ExecutionPlan.for_graph(exported) is plan
        np.testing.assert_array_equal(ExecutionPlan(exported).run(toy_inputs)[out], before)

    def test_integer_kernels_emit_codes(self, toy_exported, toy_inputs):
        """conv, depthwise and FC outputs of an INT8 plan are integer codes:
        no integer-kernel op silently falls back to float."""
        exported, _ = toy_exported
        q = quantize_graph(exported, calibrate(exported, [toy_inputs]), Numerics.INT8)
        dtypes = {}
        ExecutionPlan(q).run(toy_inputs, tap=lambda n, v: dtypes.__setitem__(n, v.dtype))
        kernels = [op for op in q.ops if op.op_type in INTEGER_KERNELS]
        assert {op.op_type for op in kernels} == set(INTEGER_KERNELS)
        assert all(dtypes[op.outputs[0]] == np.int8 for op in kernels)

    def test_tap_sees_every_tensor_in_stored_form(self, toy_exported, toy_inputs):
        """The tap sees each input after boundary quantization, then every op
        output in execution order, as the raw INT8 codes the plan stores."""
        exported, _ = toy_exported
        q = quantize_graph(exported, calibrate(exported, [toy_inputs]), Numerics.INT8)
        seen = []
        ExecutionPlan(q).run(toy_inputs, tap=lambda n, v: seen.append((n, v)))
        assert [n for n, _ in seen] == (
            [s.name for s in q.inputs] + [t for op in q.ops for t in op.outputs])
        stored = dict(seen)
        assert all(v.dtype == np.int8 for v in stored.values())
        np.testing.assert_array_equal(
            stored["images"], quantize(toy_inputs["images"], q.inputs[0].qparams))

    def test_executor_run_arena_is_run(self, toy_exported, toy_inputs):
        ex = Executor(toy_exported[0])
        a = ex.run(toy_inputs)
        b = ex.run_arena(toy_inputs)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_calibrate_rejected_off_fp32(self, toy_exported, toy_inputs):
        """Calibration records FP32 ranges; an FP16 graph is refused."""
        exported, _ = toy_exported
        with pytest.raises(ValueError):
            calibrate(convert_fp16(exported), [toy_inputs])


class TestLiveness:
    def test_peak_live_bytes_drops(self, cls_exported):
        """Liveness release must shrink the peak activation working set well
        below the no-reuse footprint (every tensor resident at once)."""
        rng = np.random.default_rng(0)
        shape = tuple(4 if d == -1 else d for d in cls_exported.inputs[0].shape)
        feeds = {"images": rng.normal(0, 0.5, shape).astype(np.float32)}
        prof = ExecutionProfiler()
        seen: dict[str, int] = {}
        ExecutionPlan(cls_exported).run(
            feeds, tap=lambda name, arr: seen.__setitem__(name, arr.nbytes), profiler=prof
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
        """Pre-drawn blocks reproduce one size-1 generator draw per query."""
        qsl = QuerySampleLibrary(IndexDataset(64), performance_sample_count=32, seed=99)
        qsl.load_performance_set()
        # the per-query stream, stated here: the same generator loads the
        # performance set, then draws each query alone from the sorted pool
        rng = np.random.default_rng(99)
        pool = np.sort(rng.choice(64, size=32, replace=False))
        # cross the block boundary to cover at least one refill
        n = BLOCK_SIZE + 50
        per_query = [int(rng.choice(pool, size=1, replace=True)[0]) for _ in range(n)]
        assert [int(qsl.next_query()[0]) for _ in range(n)] == per_query

    def test_residency_change_invalidates_block(self):
        qsl = QuerySampleLibrary(IndexDataset(64), performance_sample_count=8, seed=7)
        qsl.load_performance_set()
        first = qsl.next_query()
        assert first.shape == (1,)
        qsl.load_samples(np.array([63]))
        assert qsl._block is None  # block discarded on residency change
        assert 0 <= qsl.next_query()[0] < 64
