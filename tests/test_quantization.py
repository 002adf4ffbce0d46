"""PTQ pipeline: observers, calibration, graph quantization, bias correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Executor, export_mobile
from repro.kernels import Numerics
from repro.quantization import (
    MinMaxObserver,
    MovingAverageObserver,
    PercentileObserver,
    apply_bias_correction,
    calibrate,
    convert_fp16,
    make_observer,
    quantize_graph,
)


class TestObservers:
    def test_minmax_tracks_extremes(self, rng):
        obs = MinMaxObserver()
        obs.update(np.array([1.0, 5.0]))
        obs.update(np.array([-2.0, 3.0]))
        assert obs.range() == (-2.0, 5.0)

    def test_minmax_empty_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxObserver().range()

    def test_moving_average_discounts_outliers(self, rng):
        obs = MovingAverageObserver(momentum=0.9)
        for _ in range(50):
            obs.update(rng.normal(0, 1, 100))
        obs.update(np.array([1000.0]))
        lo, hi = obs.range()
        assert hi < 200  # the spike is smoothed away

    def test_moving_average_momentum_validation(self):
        with pytest.raises(ValueError):
            MovingAverageObserver(momentum=1.5)

    def test_percentile_clips_outliers(self, rng):
        obs = PercentileObserver(percentile=99.0)
        values = rng.normal(0, 1, 10_000)
        values[0] = 1e6
        obs.update(values)
        _, hi = obs.range()
        assert hi < 10

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            PercentileObserver(percentile=10.0)

    def test_factory(self):
        assert isinstance(make_observer("minmax"), MinMaxObserver)
        with pytest.raises(ValueError):
            make_observer("magic")

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_minmax_bounds_data(self, values):
        obs = MinMaxObserver()
        arr = np.asarray(values)
        obs.update(arr)
        lo, hi = obs.range()
        assert lo <= arr.min() and hi >= arr.max()

    def test_percentile_reservoir_bounded(self, rng):
        obs = PercentileObserver(reservoir=1000)
        for _ in range(10):
            obs.update(rng.normal(0, 1, 5000))
        assert obs.samples.size <= 1000


class TestCalibrate:
    def test_covers_every_tensor(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        produced = {t for op in exported.ops for t in op.outputs}
        assert produced <= set(stats.ranges)
        assert "images" in stats.ranges  # inputs observed too
        assert stats.num_samples == 6

    def test_rejects_non_fp32(self, toy_exported, toy_inputs):
        exported, _ = toy_exported
        f16 = convert_fp16(exported)
        with pytest.raises(ValueError):
            calibrate(f16, [toy_inputs])


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

    def test_metadata_records_calibration_ranges(self, toy_exported, toy_inputs):
        """The static value-range engine (VR003) audits deployed graphs
        against exactly what calibration saw."""
        exported, _ = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        cal = q.metadata["quantization"]["calibration_ranges"]
        assert set(cal) == set(stats.ranges)
        for name, (lo, hi) in stats.ranges.items():
            assert cal[name] == [pytest.approx(lo), pytest.approx(hi)]

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


class TestBiasCorrection:
    def test_runs_and_preserves_structure(self, toy_exported, toy_inputs):
        exported, out = toy_exported
        stats = calibrate(exported, [toy_inputs])
        q = quantize_graph(exported, stats)
        qc = apply_bias_correction(q, exported, [toy_inputs])
        assert qc.frozen
        assert "bias_corrected_layers" in qc.metadata["quantization"]
        got = Executor(qc).run(toy_inputs)[out]
        want = Executor(exported).run(toy_inputs)[out]
        assert np.abs(got - want).mean() < 0.1  # still a sane model
