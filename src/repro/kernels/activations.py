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
    "hard_swish",
    "hard_sigmoid",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "log_softmax",
    "quantized_lut",
    "apply_quantized_lut",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0).astype(np.float32)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0).astype(np.float32)


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return (np.clip(x + 3.0, 0.0, 6.0) / 6.0).astype(np.float32)


def hard_swish(x: np.ndarray) -> np.ndarray:
    return (x * hard_sigmoid(x)).astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (1.0 / (1.0 + np.exp(-x))).astype(np.float32)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64)).astype(np.float32)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh approximation of GELU, as used by MobileBERT."""
    x = np.asarray(x, dtype=np.float64)
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    return (x - np.log(np.exp(x).sum(axis=axis, keepdims=True))).astype(np.float32)


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
