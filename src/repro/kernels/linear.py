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


# float32 holds every integer of magnitude <= 2**24 exactly
F32_EXACT_BOUND = 2**24


def max_column_l1(w_c: np.ndarray) -> int:
    """``max_n sum_k |w_c[k, n]|`` of a (K, N) integer weight matrix: the
    largest ``|x @ w_c|`` over operands ``|x| <= 1``, so ``code_bound`` times
    this bounds every partial sum of the GEMM over codes ``|x| <= code_bound``."""
    return int(np.abs(w_c).sum(axis=0).max())


def exact_operand_dtype(code_bound: int, w_c: np.ndarray) -> np.dtype:
    """The cheapest float dtype in which ``x @ w_c`` is exact for any integer
    operand ``x`` with ``|x| <= code_bound``; ``w_c`` is (K, N), reduced over K.

    float32 when ``code_bound * max_n sum_k |w_c[k, n]| <= 2**24``: every
    product and every partial sum is then an integer of magnitude at most
    2**24, which float32 holds exactly, so the result is exact in any
    summation order (BLAS blocking and threading, FMA). float64 otherwise,
    exact up to 2**53, far past any 8-bit GEMM.
    """
    worst = code_bound * max_column_l1(w_c)
    return np.dtype(np.float32 if worst <= F32_EXACT_BOUND else np.float64)


def prepare_integer_gemm(
    wq_2d: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
) -> Kernel:
    """Integer GEMM with requantization: (M, K) input codes -> (M, N) output codes.

    The accumulator is ``sum_k (x - x_zp)(w - w_zp) + bias``. The weights are
    centred here, once: ``w_c = w - w_zp`` per output channel, so it becomes
    ``x @ w_c + (bias - x_zp * colsum(w_c))``, a matmul of the raw input codes
    plus one constant row. The matmul is a BLAS GEMM, an order of magnitude
    faster than NumPy's integer matmul, whose operand dtype is proved exact
    over exactly these operands by :func:`exact_operand_dtype` (raw codes
    bounded by the input format's largest magnitude). The accumulator is
    then float64, exact below 2**53, and :func:`requantize` rescales it in
    place. The closure's ``operand_dtype`` attribute records the choice.
    """
    w_c = wq_2d.astype(np.int64) - w_qp.zero_point.reshape(1, -1)  # per channel, or shared
    numerics = x_qp.numerics
    dtype = exact_operand_dtype(max(-numerics.qmin, numerics.qmax), w_c)
    w_mat = w_c.astype(dtype)
    offset = -int(x_qp.zero_point[0]) * w_c.sum(axis=0, keepdims=True)
    if bias_q is not None:
        offset += bias_q.astype(np.int64)
    offset = offset.astype(np.float64)
    eff_scale = (x_qp.scale[0] * w_qp.scale).reshape(1, -1)

    def integer_gemm(xq_2d: np.ndarray) -> np.ndarray:
        acc = (np.asarray(xq_2d, dtype=dtype) @ w_mat).astype(np.float64, copy=False)
        acc += offset
        return requantize(acc, eff_scale, out_qp)

    integer_gemm.operand_dtype = dtype
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

    def fully_connected_quantized(xq: np.ndarray) -> np.ndarray:
        return gemm(xq.reshape(-1, f_in)).reshape(*xq.shape[:-1], f_out)

    fully_connected_quantized.operand_dtype = gemm.operand_dtype
    return fully_connected_quantized


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float batched matmul used inside attention blocks."""
    return np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
