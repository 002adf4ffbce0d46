"""Numerics: formats, quantization parameters, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Numerics,
    QuantParams,
    cast_fp16,
    choose_qparams,
    dequantize,
    quantize,
)


class TestNumerics:
    def test_format_properties(self):
        assert Numerics.FP32.is_float and not Numerics.FP32.is_quantized
        assert Numerics.INT8.is_quantized and not Numerics.INT8.is_float
        assert Numerics.FP16.bits == 16
        assert Numerics.INT8.bytes_per_element == 1.0
        assert Numerics.UINT8.qmin == 0 and Numerics.UINT8.qmax == 255
        assert Numerics.INT8.qmin == -128 and Numerics.INT8.qmax == 127

    def test_qmin_on_float_raises(self):
        with pytest.raises(ValueError):
            _ = Numerics.FP32.qmin


class TestQuantParams:
    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0, zero_point=0)
        with pytest.raises(ValueError):
            QuantParams(scale=-1.0, zero_point=0)
        with pytest.raises(ValueError):
            QuantParams(scale=[0.1, 0.2], zero_point=[0, 0])  # per-tensor must be scalar

    def test_per_channel(self):
        qp = QuantParams(scale=[0.1, 0.2], zero_point=[0, 0], axis=3)
        assert qp.per_channel
        assert qp.broadcast_shape(4) == (1, 1, 1, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuantParams(scale=[0.1, 0.2], zero_point=[0], axis=0)


class TestChooseQparams:
    def test_range_includes_zero(self):
        qp = choose_qparams(2.0, 5.0, Numerics.UINT8)
        # representable range must include 0 -> lo clamps to 0
        assert dequantize(np.array([qp.zero_point[0]], dtype=np.uint8), qp)[0] == pytest.approx(0, abs=1e-6)

    def test_symmetric_int8_zero_point(self):
        qp = choose_qparams(-3.0, 2.0, Numerics.INT8, symmetric=True)
        assert int(qp.zero_point[0]) == 0

    def test_symmetric_uint8_midrange(self):
        qp = choose_qparams(-1.0, 1.0, Numerics.UINT8, symmetric=True)
        assert int(qp.zero_point[0]) == 128

    def test_degenerate_range(self):
        qp = choose_qparams(0.0, 0.0, Numerics.INT8)
        assert qp.scale[0] > 0  # never a zero scale

    @given(lo=st.floats(-100, 0), hi=st.floats(0.001, 100))
    @settings(max_examples=50, deadline=None)
    def test_extremes_representable(self, lo, hi):
        qp = choose_qparams(lo, hi, Numerics.INT8)
        vals = np.array([lo, hi], dtype=np.float64)
        err = np.abs(dequantize(quantize(vals, qp), qp) - vals)
        assert np.all(err <= qp.scale[0] * 1.01)


class TestRoundTrips:
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=64),
        st.sampled_from([Numerics.INT8, Numerics.UINT8, Numerics.INT16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_error_bounded_by_scale(self, values, numerics):
        arr = np.asarray(values, dtype=np.float64)
        qp = choose_qparams(float(arr.min()), float(arr.max()), numerics)
        rt = dequantize(quantize(arr, qp), qp)
        assert np.all(np.abs(rt - arr) <= qp.scale[0] * 0.51 + 1e-9)

    def test_subnormal_range_yields_positive_scale(self):
        # a subnormal span must not underflow the scale division to 0.0
        for numerics in (Numerics.INT8, Numerics.UINT8):
            for symmetric in (False, True):
                qp = choose_qparams(0.0, 5e-324, numerics, symmetric=symmetric)
                assert qp.scale[0] > 0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_fake_quant_idempotent(self, values):
        arr = np.asarray(values, dtype=np.float32)
        qp = choose_qparams(float(arr.min()), float(arr.max()), Numerics.INT8)
        once = dequantize(quantize(arr, qp), qp)
        twice = dequantize(quantize(once, qp), qp)
        np.testing.assert_allclose(once, twice, atol=1e-6)

    def test_quantize_saturates(self):
        qp = QuantParams(scale=0.1, zero_point=0, numerics=Numerics.INT8)
        q = quantize(np.array([1e6, -1e6]), qp)
        assert q[0] == 127 and q[1] == -128

    def test_per_channel_quantize(self):
        w = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 10.0)], axis=-1)
        qp = choose_qparams(w.min(axis=(0, 1)), w.max(axis=(0, 1)),
                            Numerics.INT8, symmetric=True, axis=2)
        rt = dequantize(quantize(w, qp), qp)
        # each channel quantized at its own scale: both nearly exact
        np.testing.assert_allclose(rt, w, rtol=0.02)


class TestFP16:
    def test_cast_fp16_rounds(self):
        x = np.array([1.0 + 1e-4], dtype=np.float32)
        assert cast_fp16(x)[0] != x[0]  # below half precision
        assert cast_fp16(np.array([1.5]))[0] == 1.5  # exactly representable

    def test_cast_preserves_dtype(self):
        assert cast_fp16(np.zeros(3)).dtype == np.float32
