"""Activations, LUTs, normalization, attention, linear kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Numerics,
    apply_quantized_lut,
    batch_norm,
    batched_matmul,
    choose_qparams,
    dequantize,
    fold_batch_norm,
    gelu,
    hard_sigmoid,
    hard_swish,
    layer_norm,
    log_softmax,
    multi_head_attention,
    prepare_fully_connected,
    prepare_fully_connected_quantized,
    quantize,
    quantized_lut,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_relu6_clamps(self):
        np.testing.assert_array_equal(relu6(np.array([-1.0, 3.0, 9.0])), [0, 3, 6])

    def test_hard_swish_matches_definition(self, rng):
        x = rng.normal(0, 3, 100).astype(np.float32)
        np.testing.assert_allclose(
            hard_swish(x), x * np.clip(x + 3, 0, 6) / 6, atol=1e-6
        )

    def test_hard_sigmoid_range(self, rng):
        out = hard_sigmoid(rng.normal(0, 10, 1000).astype(np.float32))
        assert out.min() >= 0 and out.max() <= 1

    def test_sigmoid_symmetry(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])
        np.testing.assert_allclose(
            sigmoid(np.array([2.0])) + sigmoid(np.array([-2.0])), [1.0], atol=1e-6
        )

    def test_gelu_near_relu_for_large(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_tanh(self):
        np.testing.assert_allclose(tanh(np.array([0.0])), [0.0])


class TestSoftmax:
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, logits):
        p = softmax(np.asarray(logits, dtype=np.float32))
        assert p.sum() == pytest.approx(1.0, abs=1e-5)
        assert np.all(p >= 0)

    def test_shift_invariance(self, rng):
        x = rng.normal(0, 5, (3, 7)).astype(np.float32)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(0, 2, (2, 5)).astype(np.float32)
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-5)

    def test_overflow_safe(self):
        p = softmax(np.array([1e4, 0.0], dtype=np.float32))
        assert np.isfinite(p).all()


class TestQuantizedLUT:
    def test_lut_matches_float_within_scale(self, rng):
        in_qp = choose_qparams(-4.0, 4.0, Numerics.INT8)
        out_qp = choose_qparams(0.0, 1.0, Numerics.INT8)
        lut = quantized_lut(sigmoid, in_qp, out_qp)
        assert lut.shape == (256,)
        x = rng.normal(0, 2, 200).astype(np.float32)
        xq = quantize(x, in_qp)
        got = dequantize(apply_quantized_lut(xq, lut, in_qp), out_qp)
        want = sigmoid(dequantize(xq, in_qp))
        assert np.abs(got - want).max() <= float(out_qp.scale[0])

    def test_uint8_lut_size(self):
        in_qp = choose_qparams(0.0, 6.0, Numerics.UINT8)
        lut = quantized_lut(relu6, in_qp, in_qp)
        assert lut.shape == (256,)


class TestNormalization:
    def test_batch_norm_identity(self, rng):
        x = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        out = batch_norm(x, np.zeros(3), np.ones(3) - 1e-3, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, x, atol=1e-3)

    def test_fold_batch_norm_equivalence(self, rng):
        from repro.kernels import prepare_conv2d

        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 5)).astype(np.float32)
        mean = rng.normal(0, 0.2, 5).astype(np.float32)
        var = (1 + rng.uniform(-0.3, 0.3, 5)).astype(np.float32)
        gamma = (1 + rng.normal(0, 0.1, 5)).astype(np.float32)
        beta = rng.normal(0, 0.1, 5).astype(np.float32)
        want = batch_norm(prepare_conv2d(w, None)(x), mean, var, gamma, beta)
        wf, bf = fold_batch_norm(w, None, mean, var, gamma, beta)
        got = prepare_conv2d(wf, bf)(x)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_fold_depthwise(self, rng):
        from repro.kernels import prepare_depthwise_conv2d

        x = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 4, 1)).astype(np.float32)
        mean = rng.normal(0, 0.2, 4).astype(np.float32)
        var = np.ones(4, dtype=np.float32)
        gamma = (1 + rng.normal(0, 0.1, 4)).astype(np.float32)
        beta = rng.normal(0, 0.1, 4).astype(np.float32)
        want = batch_norm(prepare_depthwise_conv2d(w, None)(x), mean, var, gamma, beta)
        wf, bf = fold_batch_norm(w, None, mean, var, gamma, beta, depthwise=True)
        np.testing.assert_allclose(prepare_depthwise_conv2d(wf, bf)(x), want, atol=1e-4)

    def test_layer_norm_stats(self, rng):
        x = rng.normal(3, 5, (2, 7, 16)).astype(np.float32)
        out = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1, atol=1e-2)


class TestLinear:
    def test_fully_connected(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)
        w = rng.normal(size=(8, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        np.testing.assert_allclose(prepare_fully_connected(w, b)(x), x @ w + b, atol=1e-5)

    def test_fully_connected_3d(self, rng):
        x = rng.normal(size=(2, 5, 8)).astype(np.float32)
        w = rng.normal(size=(8, 4)).astype(np.float32)
        assert prepare_fully_connected(w, None)(x).shape == (2, 5, 4)

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_quantized_fc(self, rng, numerics):
        x = rng.normal(0, 1, (3, 16)).astype(np.float32)
        w = rng.normal(0, 0.3, (16, 8)).astype(np.float32)
        b = rng.normal(0, 0.1, 8).astype(np.float32)
        ref = prepare_fully_connected(w, b)(x)
        x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
        w_qp = choose_qparams(w.min(axis=0), w.max(axis=0), numerics, symmetric=True, axis=1)
        bq = np.round(b / (x_qp.scale[0] * w_qp.scale)).astype(np.int32)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = prepare_fully_connected_quantized(
            quantize(w, w_qp), bq, x_qp, w_qp, out_qp)(quantize(x, x_qp))
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])


class TestAttention:
    def test_shapes(self, rng):
        q = rng.normal(size=(2, 6, 16)).astype(np.float32)
        out = multi_head_attention(q, q, q, num_heads=4)
        assert out.shape == (2, 6, 16)

    def test_head_divisibility(self, rng):
        q = rng.normal(size=(1, 4, 10)).astype(np.float32)
        with pytest.raises(ValueError):
            multi_head_attention(q, q, q, num_heads=3)

    def test_masked_positions_ignored(self, rng):
        q = rng.normal(size=(1, 5, 8)).astype(np.float32)
        k = q.copy()
        v = q.copy()
        mask = np.array([[1, 1, 1, 0, 0]], dtype=np.float32)
        out_masked = multi_head_attention(q, k, v, 2, mask)
        # changing the masked values must not affect the output
        v2 = v.copy()
        v2[:, 3:] += 100.0
        k2 = k.copy()
        k2[:, 3:] -= 50.0
        out_masked2 = multi_head_attention(q, k2, v2, 2, mask)
        np.testing.assert_allclose(out_masked, out_masked2, atol=1e-4)

    def test_uniform_attention_averages(self):
        # identical keys -> uniform attention -> context is the mean of values
        q = np.ones((1, 3, 4), dtype=np.float32)
        k = np.ones((1, 3, 4), dtype=np.float32)
        v = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
        out = multi_head_attention(q, k, v, 1)
        np.testing.assert_allclose(out[0, 0], v[0].mean(axis=0), atol=1e-5)

    def test_batched_matmul(self, rng):
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        np.testing.assert_allclose(batched_matmul(a, b), a @ b, atol=1e-5)


# ---------------------------------------------------------------------------
# bit-exactness oracles: the in-place rewrites of gelu, softmax, layer_norm
# and attention against the expressions they replaced, kept here verbatim
# ---------------------------------------------------------------------------

def _old_gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


def _old_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def _old_layer_norm(x, gamma, beta, eps=1e-6):
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)


def _old_batched_matmul(a, b):
    return (np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)).astype(np.float32)


def _old_multi_head_attention(q, k, v, num_heads, mask=None):
    b, s, hidden = q.shape
    d = hidden // num_heads

    def split(x):
        return x.reshape(b, -1, num_heads, d).transpose(0, 2, 1, 3)  # (b, h, s, d)

    qh, kh, vh = split(q), split(k), split(v)
    scores = _old_batched_matmul(qh, kh.transpose(0, 1, 3, 2)) / np.sqrt(d)
    if mask is not None:
        neg = np.where(mask[:, None, None, :] > 0, 0.0, -1e9).astype(np.float32)
        scores = scores + neg
    probs = _old_softmax(scores, axis=-1)
    ctx = _old_batched_matmul(probs, vh)  # (b, h, s, d)
    return ctx.transpose(0, 2, 1, 3).reshape(b, s, hidden).astype(np.float32)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _assert_fresh_same_bytes(got, want, *operands):
    """``got`` is a new float32 array holding exactly ``want``'s bytes."""
    assert got.dtype == np.float32 and got.shape == want.shape
    for operand in operands:
        assert not np.shares_memory(got, operand)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestBitExactRewrites:
    def test_gelu_every_float16_value(self):
        """All 65536 patterns: +-0, subnormals, +-inf and the NaNs."""
        x, = _read_only(np.arange(2**16, dtype=np.uint16).view(np.float16).astype(np.float32))
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_fresh_same_bytes(gelu(x), _old_gelu(x), x)

    def test_gelu_float32_extremes(self):
        f = np.finfo(np.float32)
        mags = [f.max, f.smallest_normal, f.smallest_subnormal, 0.0, np.inf]
        x, = _read_only(np.array(mags + [-m for m in mags], dtype=np.float32))
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_fresh_same_bytes(gelu(x), _old_gelu(x), x)

    def test_gelu_a_million_float32(self):
        rng = np.random.default_rng(17)
        scale = 10.0 ** rng.uniform(-4, 3, 10**6)
        x, = _read_only((rng.standard_normal(10**6) * scale).astype(np.float32))
        _assert_fresh_same_bytes(gelu(x), _old_gelu(x), x)

    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    @pytest.mark.parametrize("span", [1e-3, 0.05, 0.7, 4.0, 30.0, 500.0])
    def test_gelu_lut(self, numerics, span):
        """The quantized path: gelu over the 256 dequantized codes, requantized."""
        def read_only_gelu(x):
            _read_only(x)
            return gelu(x)

        for lo in (-span, -span / 4, 0.0):
            in_qp = choose_qparams(lo, span, numerics)
            out_qp = choose_qparams(-0.2, span, numerics)
            got = quantized_lut(read_only_gelu, in_qp, out_qp)
            want = quantized_lut(_old_gelu, in_qp, out_qp)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, 2, 3, -1])
    def test_softmax_every_axis(self, dtype, axis):
        x = np.random.default_rng(3).normal(0, 4, (3, 5, 7, 16)).astype(dtype)
        x[0, 0, 0] = 80.0  # a dominant logit
        x, = _read_only(x)
        _assert_fresh_same_bytes(softmax(x, axis), _old_softmax(x, axis), x)

    def test_softmax_strided_input(self):
        """A transposed view: the private copy keeps the operand's layout, so
        each sum runs in the same order as before."""
        base, = _read_only(np.random.default_rng(4).normal(0, 3, (6, 9, 32)).astype(np.float32))
        x = base.transpose(2, 0, 1)
        for axis in range(3):
            _assert_fresh_same_bytes(softmax(x, axis), _old_softmax(x, axis), base)

    def test_layer_norm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (4, 24, 128)) * rng.uniform(0.01, 50, (4, 24, 1)) + 7.0
        gamma = rng.normal(1, 0.2, 128)
        beta = rng.normal(0, 0.3, 128)
        x, gamma, beta = _read_only(*(a.astype(np.float32) for a in (x, gamma, beta)))
        _assert_fresh_same_bytes(
            layer_norm(x, gamma, beta), _old_layer_norm(x, gamma, beta), x, gamma, beta)

    def test_attention_partial_and_fully_masked(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(0, 1, (3, 20, 32)).astype(np.float32) for _ in range(3))
        mask = np.ones((3, 20), dtype=np.float32)
        mask[1, 13:] = 0.0  # padding
        mask[2] = 0.0  # a row with no valid token at all
        q, k, v, mask = _read_only(q, k, v, mask)
        for heads in (1, 4):
            _assert_fresh_same_bytes(
                multi_head_attention(q, k, v, heads, mask),
                _old_multi_head_attention(q, k, v, heads, mask), q, k, v, mask)
        _assert_fresh_same_bytes(
            multi_head_attention(q, k, v, 4), _old_multi_head_attention(q, k, v, 4), q, k, v)
