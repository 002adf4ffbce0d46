"""Convolution / pooling kernels against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Numerics,
    QuantParams,
    avg_pool2d,
    choose_qparams,
    conv_output_shape,
    dequantize,
    global_avg_pool,
    max_pool2d,
    prepare_conv2d,
    prepare_conv2d_quantized,
    prepare_depthwise_conv2d,
    prepare_depthwise_conv2d_quantized,
    prepare_fully_connected_quantized,
    quantize,
    requantize,
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
        got = prepare_conv2d(w, b, stride=stride, padding=padding, dilation=dilation)(x)
        _, _, ph, pw = conv_output_shape(9, 9, 3, 3, stride, padding, dilation)
        want = naive_conv2d(x, w, b, stride, ph, pw, dilation)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
        with pytest.raises(ValueError):
            prepare_conv2d(w, None)(x)

    def test_1x1_conv_is_matmul(self, rng):
        x = rng.normal(size=(2, 5, 5, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 4, 6)).astype(np.float32)
        got = prepare_conv2d(w, None)(x)
        want = x @ w[0, 0]
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestDepthwise:
    def test_matches_per_channel_conv(self, rng):
        x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4, 1)).astype(np.float32)
        got = prepare_depthwise_conv2d(w, None, stride=1, padding="same")(x)
        for c in range(4):
            wc = np.zeros((3, 3, 1, 1), dtype=np.float32)
            wc[:, :, 0, 0] = w[:, :, c, 0]
            want_c = prepare_conv2d(wc, None)(x[..., c : c + 1])
            np.testing.assert_allclose(got[..., c], want_c[..., 0], atol=1e-4)

    def test_bad_weight_shape(self, rng):
        x = rng.normal(size=(1, 8, 8, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            prepare_depthwise_conv2d(rng.normal(size=(3, 3, 4, 2)).astype(np.float32), None)(x)


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
        ref = prepare_conv2d(w, b, stride=stride)(x)
        xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, numerics)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = prepare_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp, stride=stride)(xq)
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_depthwise_close_to_float(self, rng, numerics):
        x = rng.normal(0, 1, (2, 8, 8, 4)).astype(np.float32)
        w = rng.normal(0, 0.4, (3, 3, 4, 1)).astype(np.float32)
        b = rng.normal(0, 0.1, 4).astype(np.float32)
        ref = prepare_depthwise_conv2d(w, b)(x)
        x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
        w_qp = choose_qparams(w.min(axis=(0, 1, 3)), w.max(axis=(0, 1, 3)),
                              numerics, symmetric=True, axis=2)
        xq, wq = quantize(x, x_qp), quantize(w, w_qp)
        bq = np.round(b / (x_qp.scale[0] * w_qp.scale)).astype(np.int32)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = prepare_depthwise_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp)(xq)
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])

    def test_int8_uint8_equivalent(self, rng):
        """Symmetric int8 and uint8 must produce the same dequantized values."""
        x = rng.normal(0, 1, (1, 6, 6, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 4)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        ref = prepare_conv2d(w, b)(x)
        outs = []
        for numerics in (Numerics.INT8, Numerics.UINT8):
            xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, numerics)
            out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
            outq = prepare_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp)(xq)
            outs.append(dequantize(outq, out_qp))
        np.testing.assert_allclose(outs[0], outs[1], atol=float(out_qp.scale[0]) * 2)


class TestIntegerGemmExact:
    """The integer kernels against an int64 reference accumulator, bit for
    bit, at the code extremes: x codes pinned at qmin/qmax, full-range weight
    codes, a bias, and (UINT8) symmetric weights with w_zp = 128; plus the
    float32 exactness bound itself, met exactly and missed by one code."""

    def _operands(self, rng, numerics, x_shape, w_shape):
        lo, hi = numerics.qmin, numerics.qmax
        xq = rng.integers(lo, hi + 1, x_shape).astype(numerics.np_dtype)
        xq[0] = lo
        xq[-1] = hi
        wq = rng.integers(lo, hi + 1, w_shape).astype(numerics.np_dtype)
        wq.reshape(-1, w_shape[-1])[:2] = [[lo], [hi]]
        x_qp = choose_qparams(-1.5, 2.5, numerics)
        w_qp = choose_qparams(-np.ones(w_shape[-1]), np.ones(w_shape[-1]), numerics,
                              symmetric=True, axis=len(w_shape) - 1)
        bq = rng.integers(-5000, 5000, w_shape[-1]).astype(np.int32)
        return xq, wq, bq, x_qp, w_qp

    def _check(self, prepare, xq, acc, x_qp, w_qp, numerics):
        """Run the kernel at the model's own output format over 0.8 of the
        range (both saturation ends hit), then at INT16 with one code per
        accumulator unit of channel 0, where an off-by-one accumulator
        shows: one zero point per 65535-wide window, so every channel-0
        accumulator lands unclipped in one of them. Returns the kernel's
        operand dtype."""
        eff_scale = x_qp.scale[0] * w_qp.scale
        real = acc * eff_scale
        coarse = choose_qparams(0.8 * float(real.min()), 0.8 * float(real.max()), numerics)
        lowest, highest = int(acc[..., 0].min()), int(acc[..., 0].max())
        units = [QuantParams(eff_scale[0], -start - 32767, Numerics.INT16)
                 for start in range(lowest, highest + 1, 65535)]
        for out_qp in (coarse, *units):
            kernel = prepare(out_qp)
            got = kernel(xq)
            assert got.dtype == out_qp.numerics.np_dtype
            np.testing.assert_array_equal(
                got, requantize(acc.astype(np.float64), eff_scale, out_qp))
        return kernel.operand_dtype

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    @pytest.mark.parametrize("x_shape", [(6, 40), (2, 3, 40)])
    def test_fully_connected(self, rng, numerics, x_shape):
        xq, wq, bq, x_qp, w_qp = self._operands(rng, numerics, x_shape, (40, 7))
        x_c = xq.astype(np.int64) - x_qp.zero_point[0]
        w_c = wq.astype(np.int64) - w_qp.zero_point
        self._check(
            lambda out_qp: prepare_fully_connected_quantized(wq, bq, x_qp, w_qp, out_qp),
            xq, x_c @ w_c + bq, x_qp, w_qp, numerics)

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_conv_same_stride2(self, rng, numerics):
        xq, wq, bq, x_qp, w_qp = self._operands(rng, numerics, (2, 7, 7, 5), (3, 3, 5, 6))
        _, _, ph, pw = conv_output_shape(7, 7, 3, 3, 2, "same")
        # centered codes padded with 0, i.e. the raw input padded with x_zp
        x_c = np.pad(xq.astype(np.int64) - x_qp.zero_point[0], ((0, 0), ph, pw, (0, 0)))
        w_c = wq.astype(np.int64) - w_qp.zero_point
        acc = np.stack([
            np.stack([np.tensordot(x_c[:, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3], w_c, 3)
                      for j in range(4)], axis=1)
            for i in range(4)], axis=1) + bq
        self._check(
            lambda out_qp: prepare_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp, stride=2),
            xq, acc, x_qp, w_qp, numerics)

    @pytest.mark.parametrize("past, dtype", [(0, np.float32), (1, np.float64)])
    def test_float32_bound(self, rng, past, dtype):
        """Centred weights and extreme codes that put the exactness bound at
        exactly 2**24, then one weight code past it.

        INT8 weights with zero point 10: column 0 holds 1024 codes of -118
        (centred -128) and one of 10 - ``past``, so for x codes bounded by
        128, ``128 * sum_k |w_c[k, 0]| = 2**24 + 128 * past``. Rows of x
        codes at -128 drive ``x @ w_c`` for column 0 to that bound itself.
        At the bound the kernel must take float32, past it float64, and
        both must match the int64 accumulator bit for bit.
        """
        numerics = Numerics.INT8
        k, n = 1025, 5
        wq = rng.integers(-60, 60, (k, n)).astype(np.int8)
        wq[:, 0] = -118
        wq[-1, 0] = 10 - past
        w_qp = QuantParams(np.full(n, 0.01), np.full(n, 10), numerics, axis=1)
        x_qp = choose_qparams(-1.5, 2.5, numerics)
        xq = np.full((6, k), -128, dtype=np.int8)
        for i in range(1, 6):  # rows a few codes off the extreme
            xq[i, rng.choice(k, 40 * i, replace=False)] = rng.integers(-128, 128, 40 * i)
        bq = rng.integers(-5000, 5000, n).astype(np.int32)
        x_c = xq.astype(np.int64) - x_qp.zero_point[0]
        w_c = wq.astype(np.int64) - w_qp.zero_point
        acc = x_c @ w_c + bq
        assert (xq.astype(np.int64) @ w_c)[0, 0] == 2**24 + 128 * past
        got = self._check(
            lambda out_qp: prepare_fully_connected_quantized(wq, bq, x_qp, w_qp, out_qp),
            xq, acc, x_qp, w_qp, numerics)
        assert got == dtype

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise(self, rng, numerics, stride):
        """Depthwise at the code extremes: x codes pinned at qmin/qmax, every
        weight code at an end of its range, an input zero point at qmin so
        centred codes span the full 255, and SAME padding."""
        lo, hi = numerics.qmin, numerics.qmax
        xq = rng.choice([lo, hi], (2, 7, 7, 6)).astype(numerics.np_dtype)
        xq[1, 2:5, 2:5] = rng.integers(lo, hi + 1, (3, 3, 6))
        wq = rng.choice([lo, hi], (3, 3, 6, 1)).astype(numerics.np_dtype)
        x_qp = QuantParams(0.02, lo, numerics)
        w_qp = choose_qparams(-np.ones(6), np.ones(6), numerics, symmetric=True, axis=3)
        bq = rng.integers(-5000, 5000, 6).astype(np.int32)
        _, _, ph, pw = conv_output_shape(7, 7, 3, 3, stride, "same")
        x_c = np.pad(xq.astype(np.int64) - lo, ((0, 0), ph, pw, (0, 0)))
        w_c = wq[..., 0].astype(np.int64) - w_qp.zero_point
        out = -(-7 // stride)
        acc = sum(
            x_c[:, a : a + stride * out : stride, b : b + stride * out : stride] * w_c[a, b]
            for a in range(3) for b in range(3)) + bq
        got = self._check(
            lambda out_qp: prepare_depthwise_conv2d_quantized(
                wq, bq, x_qp, w_qp, out_qp, stride=stride),
            xq, acc, x_qp, w_qp, numerics)
        assert got == np.float32


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
        fast = prepare_conv2d(w, b)(x)
        np.testing.assert_array_equal(fast, prepare_conv2d(w, b, stride=2)(up))

        xq, wq, bq, x_qp, w_qp = _quantize_setup(rng, x, w, b, Numerics.INT8)
        out_qp = choose_qparams(float(fast.min()), float(fast.max()), Numerics.INT8)
        upq = xq.repeat(2, axis=1).repeat(2, axis=2)
        fast_q = prepare_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp)(xq)
        general_q = prepare_conv2d_quantized(wq, bq, x_qp, w_qp, out_qp, stride=2)(upq)
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


def four_gather_resize_bilinear(x, out_h, out_w, align_corners=False):
    """The original (non-separable) bilinear resize: both row pairs gathered
    for every output row, then both column pairs from each."""
    n, in_h, in_w, c = x.shape
    if (in_h, in_w) == (out_h, out_w):
        return np.asarray(x, dtype=np.float32)
    if align_corners and out_h > 1 and out_w > 1:
        ys = np.linspace(0, in_h - 1, out_h)
        xs = np.linspace(0, in_w - 1, out_w)
    else:
        ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
        xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0).astype(np.float32)[None, :, None, None]
    wx = (xs - x0).astype(np.float32)[None, None, :, None]
    x = np.asarray(x, dtype=np.float32)
    top = x[:, y0][:, :, x0] * (1 - wx) + x[:, y0][:, :, x1] * wx
    bot = x[:, y1][:, :, x0] * (1 - wx) + x[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


RESIZE_CASES = [
    ((3, 28, 28, 3), 112, 112),   # batched upsample (smooth_field)
    ((2, 13, 13, 3), 54, 54),
    ((2, 112, 112, 3), 96, 96),   # downsample (preprocessing)
    ((1, 54, 54, 3), 46, 46),
    ((2, 30, 17, 4), 7, 41),      # mixed: down in y, up in x
    ((1, 9, 9, 2), 30, 5),        # mixed: up in y, down in x
    ((1, 9, 9, 2), 9, 9),         # identity
]


class TestResizeSeparableExact:
    """The separable resize must reproduce the four-gather bytes exactly."""

    @pytest.mark.parametrize("align_corners", [False, True])
    @pytest.mark.parametrize("shape,out_h,out_w", RESIZE_CASES)
    def test_float_bytes(self, rng, shape, out_h, out_w, align_corners):
        x = rng.normal(size=shape).astype(np.float32)
        got = resize_bilinear(x, out_h, out_w, align_corners)
        want = four_gather_resize_bilinear(x, out_h, out_w, align_corners)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape,out_h,out_w", RESIZE_CASES)
    def test_uint8_bytes(self, rng, shape, out_h, out_w):
        x = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert (resize_bilinear(x, out_h, out_w).tobytes()
                == four_gather_resize_bilinear(x, out_h, out_w).tobytes())

    @pytest.mark.parametrize("align_corners", [False, True])
    def test_graph_op_bytes(self, rng, align_corners):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder("resize")
        x = b.input("x", (2, 12, 12, 64))
        b.outputs(b.resize(x, 48, 48, align_corners=align_corners))
        graph = b.build()
        feed = rng.normal(size=(2, 12, 12, 64)).astype(np.float32)
        (out,) = graph.ops[0].prepare(graph)([feed])
        assert out.tobytes() == four_gather_resize_bilinear(feed, 48, 48, align_corners).tobytes()
