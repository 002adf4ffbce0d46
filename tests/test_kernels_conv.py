"""Convolution / pooling kernels against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Numerics,
    avg_pool2d,
    choose_qparams,
    conv2d,
    conv2d_quantized,
    conv_output_shape,
    depthwise_conv2d,
    depthwise_conv2d_quantized,
    dequantize,
    global_avg_pool,
    max_pool2d,
    quantize,
    resize_bilinear,
    resize_nearest,
)


def naive_conv2d(x, w, b, stride, pads_h, pads_w, dilation=1):
    """Direct-loop reference convolution."""
    n, ih, iw, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.pad(x, ((0, 0), pads_h, pads_w, (0, 0)))
    eff_h, eff_w = (kh - 1) * dilation + 1, (kw - 1) * dilation + 1
    oh = (xp.shape[1] - eff_h) // stride + 1
    ow = (xp.shape[2] - eff_w) // stride + 1
    out = np.zeros((n, oh, ow, cout), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, i * stride : i * stride + eff_h : dilation,
                       j * stride : j * stride + eff_w : dilation, :]
            out[:, i, j, :] = np.tensordot(patch, w, axes=([1, 2, 3], [0, 1, 2]))
    if b is not None:
        out += b
    return out.astype(np.float32)


class TestConvOutputShape:
    def test_same_preserves_size_stride1(self):
        oh, ow, _, _ = conv_output_shape(17, 13, 3, 3, 1, "same")
        assert (oh, ow) == (17, 13)

    def test_same_stride2_ceil(self):
        oh, ow, _, _ = conv_output_shape(15, 15, 3, 3, 2, "same")
        assert (oh, ow) == (8, 8)

    def test_valid(self):
        oh, ow, ph, pw = conv_output_shape(10, 10, 3, 3, 1, "valid")
        assert (oh, ow) == (8, 8) and ph == (0, 0) and pw == (0, 0)

    def test_dilation_extends_kernel(self):
        oh, _, _, _ = conv_output_shape(10, 10, 3, 3, 1, "valid", dilation=2)
        assert oh == 6  # effective kernel 5

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            conv_output_shape(2, 2, 5, 5, 1, "valid")

    def test_unknown_padding(self):
        with pytest.raises(ValueError):
            conv_output_shape(8, 8, 3, 3, 1, "reflect")


class TestConv2D:
    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, "same", 1), (2, "same", 1), (1, "valid", 1), (1, "same", 2), (2, "valid", 1),
    ])
    def test_matches_naive(self, rng, stride, padding, dilation):
        x = rng.normal(0, 1, (2, 9, 9, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 5)).astype(np.float32)
        b = rng.normal(0, 0.1, 5).astype(np.float32)
        got = conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation)
        _, _, ph, pw = conv_output_shape(9, 9, 3, 3, stride, padding, dilation)
        want = naive_conv2d(x, w, b, stride, ph, pw, dilation)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_1x1_conv_is_matmul(self, rng):
        x = rng.normal(size=(2, 5, 5, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 4, 6)).astype(np.float32)
        got = conv2d(x, w)
        want = x @ w[0, 0]
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestDepthwise:
    def test_matches_per_channel_conv(self, rng):
        x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4, 1)).astype(np.float32)
        got = depthwise_conv2d(x, w, stride=1, padding="same")
        for c in range(4):
            wc = np.zeros((3, 3, 1, 1), dtype=np.float32)
            wc[:, :, 0, 0] = w[:, :, c, 0]
            want_c = conv2d(x[..., c : c + 1], wc)
            np.testing.assert_allclose(got[..., c], want_c[..., 0], atol=1e-4)

    def test_bad_weight_shape(self, rng):
        x = rng.normal(size=(1, 8, 8, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            depthwise_conv2d(x, rng.normal(size=(3, 3, 4, 2)).astype(np.float32))


def _quantize_setup(rng, x, w, b, numerics):
    x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
    w_qp = choose_qparams(w.min(axis=tuple(range(w.ndim - 1))),
                          w.max(axis=tuple(range(w.ndim - 1))),
                          numerics, symmetric=True, axis=w.ndim - 1)
    xq = quantize(x, x_qp)
    wq = quantize(w, w_qp)
    bq = np.round(b / (x_qp.scale[0] * w_qp.scale)).astype(np.int32)
    return xq, wq, bq, x_qp, w_qp


class TestQuantizedConv:
    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_close_to_float(self, rng, numerics, stride):
        x = rng.normal(0, 1, (2, 8, 8, 4)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 4, 6)).astype(np.float32)
        b = rng.normal(0, 0.1, 6).astype(np.float32)
        ref = conv2d(x, w, b, stride=stride)
        xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, numerics)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = conv2d_quantized(xq, wq, bq, x_qp, w_qp, out_qp, stride=stride)
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_depthwise_close_to_float(self, rng, numerics):
        x = rng.normal(0, 1, (2, 8, 8, 4)).astype(np.float32)
        w = rng.normal(0, 0.4, (3, 3, 4, 1)).astype(np.float32)
        b = rng.normal(0, 0.1, 4).astype(np.float32)
        ref = depthwise_conv2d(x, w, b)
        x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
        w_qp = choose_qparams(w.min(axis=(0, 1, 3)), w.max(axis=(0, 1, 3)),
                              numerics, symmetric=True, axis=2)
        xq, wq = quantize(x, x_qp), quantize(w, w_qp)
        bq = np.round(b / (x_qp.scale[0] * w_qp.scale)).astype(np.int32)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = depthwise_conv2d_quantized(xq, wq, bq, x_qp, w_qp, out_qp)
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])

    def test_int8_uint8_equivalent(self, rng):
        """Symmetric int8 and uint8 must produce the same dequantized values."""
        x = rng.normal(0, 1, (1, 6, 6, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 4)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        ref = conv2d(x, w, b)
        outs = []
        for numerics in (Numerics.INT8, Numerics.UINT8):
            xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, numerics)
            out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
            outq = conv2d_quantized(xq, wq, bq, x_qp, w_qp, out_qp)
            outs.append(dequantize(outq, out_qp))
        np.testing.assert_allclose(outs[0], outs[1], atol=float(out_qp.scale[0]) * 2)


class TestFast1x1:
    def test_pointwise_fast_path_bit_exact(self, rng):
        """The 1x1 stride-1 path (no im2col) equals the general im2col path.

        A 1x1 conv at stride 2 over a 2x nearest-upsampled input reads exactly
        the original pixels, but it has to go through padding and im2col.
        """
        x = rng.normal(0, 1, (3, 6, 6, 8)).astype(np.float32)
        w = rng.normal(0, 0.3, (1, 1, 8, 16)).astype(np.float32)
        b = rng.normal(0, 0.1, 16).astype(np.float32)
        up = x.repeat(2, axis=1).repeat(2, axis=2)
        fast = conv2d(x, w, b)
        np.testing.assert_array_equal(fast, conv2d(up, w, b, stride=2))

        xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, Numerics.INT8)
        out_qp = choose_qparams(float(fast.min()), float(fast.max()), Numerics.INT8)
        upq = xq.repeat(2, axis=1).repeat(2, axis=2)
        fast_q = conv2d_quantized(xq, wq, bq, x_qp, w_qp, out_qp)
        general_q = conv2d_quantized(upq, wq, bq, x_qp, w_qp, out_qp, stride=2)
        assert fast_q.dtype == np.int8
        np.testing.assert_array_equal(fast_q, general_q)


class TestPooling:
    def test_avg_pool(self, rng):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        out = avg_pool2d(x, k=2)
        np.testing.assert_allclose(out[0, 0, 0], x[0, :2, :2].mean(axis=(0, 1)), atol=1e-6)

    def test_max_pool(self, rng):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        out = max_pool2d(x, k=2)
        np.testing.assert_allclose(out[0, 0, 0], x[0, :2, :2].max(axis=(0, 1)), atol=1e-6)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(3, 5, 5, 4)).astype(np.float32)
        np.testing.assert_allclose(
            global_avg_pool(x, keepdims=False), x.mean(axis=(1, 2)), atol=1e-6
        )
        assert global_avg_pool(x).shape == (3, 1, 1, 4)


class TestResize:
    def test_identity(self, rng):
        x = rng.normal(size=(1, 6, 6, 3)).astype(np.float32)
        np.testing.assert_array_equal(resize_bilinear(x, 6, 6), x)

    def test_constant_field_preserved(self):
        x = np.full((1, 4, 4, 1), 3.5, dtype=np.float32)
        np.testing.assert_allclose(resize_bilinear(x, 9, 9), 3.5, atol=1e-6)

    def test_upsample_range_bounded(self, rng):
        x = rng.uniform(0, 1, (1, 5, 5, 2)).astype(np.float32)
        out = resize_bilinear(x, 16, 16)
        assert out.min() >= x.min() - 1e-6 and out.max() <= x.max() + 1e-6

    def test_nearest_exact_2x(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 2, 2, 1)
        out = resize_nearest(x, 4, 4)
        assert out[0, 0, 0, 0] == 0 and out[0, 3, 3, 0] == 3

    @given(st.integers(2, 10), st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_bilinear_shape(self, oh, ow):
        x = np.ones((1, 4, 6, 2), dtype=np.float32)
        assert resize_bilinear(x, oh, ow).shape == (1, oh, ow, 2)
