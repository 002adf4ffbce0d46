"""Executor: numerics dispatch, tensor taps, error handling."""

import numpy as np
import pytest

from repro.graph import Executor, export_mobile
from repro.kernels import Numerics, cast_fp16
from repro.models import create_full_model
from repro.quantization import calibrate, convert_fp16, quantize_graph


class TestFloatExecution:
    def test_missing_feed_raises(self, toy_graph):
        graph, _ = toy_graph
        with pytest.raises(KeyError):
            Executor(graph).run({})

    def test_symbolic_rejected(self):
        bundle = create_full_model("mobilenet_edgetpu")
        with pytest.raises(ValueError):
            Executor(bundle.graph)

    def test_deterministic(self, toy_graph, toy_inputs):
        graph, out = toy_graph
        ex = Executor(graph)
        a = ex.run(toy_inputs)[out]
        b = ex.run(toy_inputs)[out]
        np.testing.assert_array_equal(a, b)

    def test_batch_independence(self, toy_graph, toy_inputs):
        """Each sample's output is independent of its batch neighbours."""
        graph, out = toy_graph
        ex = Executor(graph)
        full = ex.run(toy_inputs)[out]
        single = ex.run({"images": toy_inputs["images"][2:3]})[out]
        np.testing.assert_allclose(full[2], single[0], atol=1e-5)

    def test_tap_sees_all_tensors(self, toy_graph, toy_inputs):
        graph, _ = toy_graph
        seen = set()
        Executor(graph).run(toy_inputs, tap=lambda n, v: seen.add(n))
        produced = {t for op in graph.ops for t in op.outputs}
        assert produced | {s.name for s in graph.inputs} == seen


class TestFP16Execution:
    def test_outputs_differ_slightly(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        f32 = Executor(exported).run(toy_inputs)[out]
        f16_graph = convert_fp16(exported)
        f16 = Executor(f16_graph).run(toy_inputs)[out]
        diff = np.abs(f32 - f16).max()
        assert 0 < diff < 0.05

    def test_tap_sees_half_precision_values(self, toy_exported, toy_inputs):
        """On FP16 the tap sees each op output after the half-precision cast."""
        g = convert_fp16(toy_exported[0])
        seen = {}
        Executor(g).run(toy_inputs, tap=seen.__setitem__)
        for t in (t for op in g.ops for t in op.outputs):
            assert seen[t].dtype == np.float32
            np.testing.assert_array_equal(seen[t], cast_fp16(seen[t]))


class TestQuantizedExecution:
    @pytest.fixture()
    def quantized(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        stats = calibrate(exported, [toy_inputs])
        return quantize_graph(exported, stats), out

    def test_outputs_close_to_float(self, quantized, toy_exported, toy_inputs):
        q, out = quantized
        exported, _ = toy_exported
        f32 = Executor(exported).run(toy_inputs)[out]
        q_out = Executor(q).run(toy_inputs)[out]
        assert q_out.dtype == np.float32  # boundary dequantization
        assert np.abs(f32 - q_out).mean() < 0.05

    def test_intermediate_dtype_is_integer(self, quantized, toy_inputs):
        """Integer-kernel ops must produce genuinely integer tensors."""
        q, _ = quantized
        from repro.kernels.numerics import quantize as quantize_values

        env = {}
        for spec in q.inputs:
            arr = toy_inputs[spec.name]
            env[spec.name] = quantize_values(arr, spec.qparams)
        first = q.ops[0]
        outs = first.prepare(q)([env[t] for t in first.inputs])
        assert outs[0].dtype == q.numerics.np_dtype
