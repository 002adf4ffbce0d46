"""PTQ pipeline: calibration, graph quantization, FP16 conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Executor, GraphBuilder, export_mobile
from repro.kernels import Numerics
from repro.quantization import calibrate, convert_fp16, quantize_graph


def _relu_graph():
    """One relu op over a (batch, 4) float input."""
    b = GraphBuilder("relu", seed=0)
    out = b.activation(b.input("x", (-1, 4)), "relu")
    b.outputs(out)
    return export_mobile(b.build()), out


class TestObservers:
    """The moving-average range observer folded into ``calibrate``."""

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=48))
    @settings(max_examples=40, deadline=None)
    def test_minmax_bounds_data(self, values):
        g, _ = _relu_graph()
        arr = np.asarray(values[: len(values) // 4 * 4], dtype=np.float32).reshape(-1, 4)
        lo, hi = calibrate(g, [{"x": arr}]).ranges["x"]
        assert lo <= arr.min() and hi >= arr.max()

    def test_minmax_empty_raises(self):
        g, _ = _relu_graph()
        with pytest.raises(RuntimeError, match="no data"):
            calibrate(g, [{"x": np.zeros((0, 4), dtype=np.float32)}])

    def test_moving_average_discounts_outliers(self, rng):
        g, _ = _relu_graph()
        batches = [{"x": rng.normal(0, 1, (25, 4)).astype(np.float32)} for _ in range(50)]
        batches.append({"x": np.full((1, 4), 1000.0, dtype=np.float32)})
        _, hi = calibrate(g, batches).ranges["x"]
        assert hi < 200  # the spike is smoothed away


class TestCalibrate:
    def test_covers_every_tensor(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        produced = {t for op in exported.ops for t in op.outputs}
        assert produced <= set(stats.ranges)
        assert "images" in stats.ranges  # inputs observed too
        assert stats.num_samples == 6

    def test_single_batch_gives_exact_minmax(self, toy_exported, toy_inputs):
        """One calibration batch records each tensor's exact min and max,
        which is why the one-batch golden digests are unaffected by the
        moving average."""
        exported, _ = toy_exported
        seen = {"images": toy_inputs["images"]}

        def tap(name, values):
            if np.issubdtype(values.dtype, np.floating):
                seen[name] = values

        Executor(exported).run(toy_inputs, tap=tap)
        stats = calibrate(exported, [toy_inputs])
        assert set(stats.ranges) == set(seen)
        for name, values in seen.items():
            assert stats.ranges[name] == (float(values.min()), float(values.max()))

    def test_two_batches_blend(self):
        g, out = _relu_graph()
        first = np.array([[1.0, -2.0, 3.0, 4.0]], dtype=np.float32)
        second = np.array([[0.0, -1.0, 2.0, 5.0]], dtype=np.float32)
        stats = calibrate(g, [{"x": first}, {"x": second}])
        # momentum 0.9, in exactly the float expression calibration uses
        m = 0.9
        hi = m * 4.0 + (1 - m) * 5.0
        assert stats.ranges["x"] == (m * -2.0 + (1 - m) * -1.0, hi)
        assert stats.ranges[out] == (0.0, hi)
        assert stats.num_samples == 2

    def test_rejects_non_fp32(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        f16 = convert_fp16(exported)
        with pytest.raises(ValueError):
            calibrate(f16, [toy_inputs])

    def test_provenance_names_the_recipe(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        q = quantize_graph(exported, calibrate(exported, [toy_inputs]))
        meta = q.metadata["quantization"]
        assert meta["observer"] == "moving_average"
        assert meta["calibration_samples"] == 6


class TestQuantizeGraph:
    def test_structure(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        assert q.numerics == Numerics.INT8
        assert q.frozen
        # weights are integers, biases int32
        for op in q.ops:
            if op.op_type in ("conv2d", "depthwise_conv2d", "fully_connected"):
                assert q.params[op.attrs["weight"]].dtype == np.int8
                if op.attrs.get("bias"):
                    assert q.params[op.attrs["bias"]].dtype == np.int32
        meta = q.metadata["quantization"]
        assert meta["numerics"] == "int8" and meta["per_channel"]

    def test_weight_qparams_per_channel_symmetric(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        conv = next(op for op in q.ops if op.op_type == "conv2d")
        qp = q.param_qparams[conv.attrs["weight"]]
        assert qp.per_channel and qp.axis == 3
        assert np.all(qp.zero_point == 0)  # symmetric int8

    def test_missing_calibration_tensor_raises(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        del stats.ranges[exported.ops[0].outputs[0]]
        with pytest.raises(KeyError):
            quantize_graph(exported, stats)

    def test_uint8_variant(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats, Numerics.UINT8)
        got = Executor(q).run(toy_inputs)[out]
        want = Executor(exported).run(toy_inputs)[out]
        assert np.abs(got - want).mean() < 0.05

    def test_rejects_float_target(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        with pytest.raises(ValueError):
            quantize_graph(exported, stats, Numerics.FP16)

    def test_pass_through_shares_qparams(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        reshape = next(op for op in q.ops if op.op_type == "reshape")
        in_qp = q.spec(reshape.inputs[0]).qparams
        out_qp = q.spec(reshape.outputs[0]).qparams
        assert in_qp is out_qp


class TestFP16Convert:
    def test_weights_rounded(self, toy_exported):
        exported, _ = toy_exported
        f16 = convert_fp16(exported)
        name = next(n for n, v in exported.params.items()
                    if v is not None and v.dtype == np.float32 and v.size > 10)
        w32 = exported.params[name]
        w16 = f16.params[name]
        np.testing.assert_array_equal(w16, w32.astype(np.float16).astype(np.float32))

    def test_metadata(self, toy_exported):
        exported, _ = toy_exported
        f16 = convert_fp16(exported)
        assert f16.metadata["quantization"]["numerics"] == "fp16"
        assert f16.numerics == Numerics.FP16
