"""Fully-connected / matmul kernels, float and integer paths.

Like :mod:`repro.kernels.conv`, each kernel is one ``prepare_*`` function
that does the constant-operand work once and returns the per-call closure.
:func:`prepare_integer_gemm` is the one integer zero-point / bias /
requantize sequence; quantized conv and quantized FC both run it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .numerics import QuantParams, requantize

__all__ = [
    "prepare_fully_connected",
    "prepare_fully_connected_quantized",
    "prepare_integer_gemm",
    "batched_matmul",
]

# a prepared kernel: the per-call closure x -> y
Kernel = Callable[[np.ndarray], np.ndarray]


def prepare_fully_connected(weight: np.ndarray, bias: np.ndarray | None) -> Kernel:
    """``weight``: (in_features, out_features); the closure maps (..., in) to a
    fresh float32 (..., out) array (bias added in place). The N-D input goes
    to the matmul unreshaped, which fixes the float summation order."""
    w = np.asarray(weight, dtype=np.float32)
    b = None if bias is None else bias.astype(np.float32)

    def fully_connected(x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32) @ w
        if b is not None:
            out += b
        return out

    return fully_connected


def prepare_integer_gemm(
    wq_2d: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
) -> Kernel:
    """Integer GEMM with requantization: (M, K) input codes -> (M, N) output codes.

    The accumulator is ``sum_k (x - x_zp)(w - w_zp) + bias``, expanded as
    ``x @ w - x_zp * colsum(w) - (rowsum(x) - K * x_zp) * w_zp + bias`` so the
    matmul runs on the raw codes. It runs as a float64 BLAS matmul, which is
    exact here (|acc| <= 255 * 255 * K << 2**53) and an order of magnitude
    faster than NumPy's integer matmul; every term after it is int64.
    """
    k, _ = wq_2d.shape
    w_mat = wq_2d.astype(np.float64)
    x_zp = int(x_qp.zero_point[0])
    zp_colsum = x_zp * np.rint(w_mat.sum(axis=0, keepdims=True)).astype(np.int64)
    w_zp = w_qp.zero_point.reshape(1, -1)  # per output channel, or one shared
    w_zp_any = bool(np.any(w_zp != 0))
    b = None if bias_q is None else bias_q.astype(np.int64)
    eff_scale = (x_qp.scale[0] * w_qp.scale).reshape(1, -1)

    def integer_gemm(xq_2d: np.ndarray) -> np.ndarray:
        rows = np.asarray(xq_2d, dtype=np.float64)
        acc = np.rint(rows @ w_mat).astype(np.int64)
        acc -= zp_colsum
        if w_zp_any:
            acc -= (np.rint(rows.sum(axis=1, keepdims=True)).astype(np.int64) - x_zp * k) * w_zp
        if b is not None:
            acc += b
        return requantize(acc, eff_scale, out_qp)

    return integer_gemm


def prepare_fully_connected_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
) -> Kernel:
    """Integer fully-connected: the integer GEMM over ``x.reshape(-1, K)``."""
    f_in, f_out = wq.shape
    gemm = prepare_integer_gemm(wq, bias_q, x_qp, w_qp, out_qp)
    return lambda xq: gemm(xq.reshape(-1, f_in)).reshape(*xq.shape[:-1], f_out)


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float batched matmul used inside attention blocks."""
    return (np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)).astype(np.float32)
