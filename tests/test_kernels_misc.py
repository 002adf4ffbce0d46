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
