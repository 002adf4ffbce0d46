"""Activation and normalization-free elementwise kernels.

Quantized activations follow the TFLite convention of a 256-entry lookup
table built from the dequantize -> f -> requantize composition, so the
integer path never leaves the int8/uint8 domain.
"""

from __future__ import annotations

import numpy as np

from .numerics import QuantParams, dequantize, quantize

__all__ = [
    "relu",
    "relu6",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "softmax_inplace",
    "quantized_lut",
    "apply_quantized_lut",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0).astype(np.float32)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0).astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (1.0 / (1.0 + np.exp(-x))).astype(np.float32)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64)).astype(np.float32)


_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh approximation of GELU, as used by MobileBERT.

    Evaluated in place on one float64 buffer; ``x`` itself is only read. The
    cube is ``x*x*x``, not ``x**3`` (float64 ``pow``): for a float32 operand
    ``x*x`` is exact in float64, so ``x*x*x`` is the correctly rounded cube.
    """
    x = np.asarray(x)
    y = np.multiply(x, x, dtype=np.float64)
    y *= x
    y *= 0.044715
    y += x
    y *= _SQRT_2_OVER_PI
    np.tanh(y, out=y)
    y += 1.0
    np.multiply(x, y, out=y)  # x first: a NaN operand keeps its payload
    y *= 0.5
    return y.astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return softmax_inplace(np.array(x, dtype=np.float64), axis)


def softmax_inplace(y: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax of a private float64 buffer, computed in it; returns float32."""
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y.astype(np.float32)


def quantized_lut(fn, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """Build the 2**bits-entry lookup table implementing ``fn`` on ints."""
    lo, hi = in_qp.numerics.qmin, in_qp.numerics.qmax
    q_in = np.arange(lo, hi + 1, dtype=np.int64)
    real = dequantize(q_in.astype(in_qp.numerics.np_dtype), in_qp)
    return quantize(fn(real), out_qp)


def apply_quantized_lut(xq: np.ndarray, lut: np.ndarray, in_qp: QuantParams) -> np.ndarray:
    """Index the LUT with integer inputs shifted to start at qmin."""
    idx = xq.astype(np.int64) - in_qp.numerics.qmin
    return lut[idx]
