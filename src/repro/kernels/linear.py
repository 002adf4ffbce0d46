"""Fully-connected / matmul kernels, float and integer paths.

Like :mod:`repro.kernels.conv`, each kernel has a prepacked form that hoists
the constant-operand casts/reductions out of the per-query path; the plain
entry points are thin wrappers over it, so the two are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import QuantParams, requantize

__all__ = [
    "fully_connected",
    "fully_connected_quantized",
    "batched_matmul",
    "LinearPack",
    "QuantLinearPack",
    "prepack_fully_connected",
    "fully_connected_prepacked",
    "prepack_fully_connected_quantized",
    "fully_connected_quantized_prepacked",
]


@dataclass(frozen=True)
class LinearPack:
    """Constant operands of a float fully-connected layer."""

    w: np.ndarray  # float32 (in, out)
    bias: np.ndarray | None  # float32 (out,)


def prepack_fully_connected(weight: np.ndarray, bias: np.ndarray | None = None) -> LinearPack:
    return LinearPack(
        np.asarray(weight, dtype=np.float32),
        None if bias is None else bias.astype(np.float32),
    )


def fully_connected_prepacked(x: np.ndarray, pack: LinearPack) -> np.ndarray:
    """Float fully-connected; returns a fresh float32 array (bias added in place)."""
    out = np.asarray(x, dtype=np.float32) @ pack.w
    if pack.bias is not None:
        out += pack.bias
    return out


def fully_connected(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """``x``: (..., in_features); ``weight``: (in_features, out_features)."""
    return fully_connected_prepacked(x, prepack_fully_connected(weight, bias))


@dataclass(frozen=True)
class QuantLinearPack:
    """Constant operands of an integer fully-connected layer."""

    w_mat: np.ndarray  # float64 (in, out)
    w_zp: np.ndarray | int  # per-channel (1, out) or scalar
    w_zp_any: bool
    bias: np.ndarray | None  # int64 (out,)
    eff_scale: np.ndarray  # float64 (1, out)
    x_zp: int
    f_in: int
    f_out: int


def prepack_fully_connected_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
) -> QuantLinearPack:
    f_in, f_out = wq.shape
    if w_qp.per_channel:
        w_zp = w_qp.zero_point.reshape(1, -1)
    else:
        w_zp = int(w_qp.zero_point[0])
    return QuantLinearPack(
        w_mat=wq.astype(np.float64),
        w_zp=w_zp,
        w_zp_any=bool(np.any(w_zp != 0)),
        bias=None if bias_q is None else bias_q.astype(np.int64),
        eff_scale=(x_qp.scale[0] * w_qp.scale).reshape(1, -1),
        x_zp=int(x_qp.zero_point[0]),
        f_in=f_in,
        f_out=f_out,
    )


def fully_connected_quantized_prepacked(
    xq: np.ndarray, pack: QuantLinearPack, out_qp: QuantParams
) -> np.ndarray:
    """Integer fully-connected with int32 accumulation and requantization."""
    lead = xq.shape[:-1]
    k = xq.shape[-1]
    # exact float64 BLAS path (see conv.py): |acc| is far below 2**53
    x2 = xq.reshape(-1, k).astype(np.float64)
    acc = np.rint((x2 - pack.x_zp) @ pack.w_mat).astype(np.int64)
    if pack.w_zp_any:
        acc -= (
            np.rint(x2.sum(axis=1, keepdims=True)).astype(np.int64) - pack.x_zp * k
        ) * pack.w_zp
    if pack.bias is not None:
        acc = acc + pack.bias
    return requantize(acc, pack.eff_scale, out_qp).reshape(*lead, pack.f_out)


def fully_connected_quantized(
    xq: np.ndarray,
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
) -> np.ndarray:
    """Integer fully-connected with int32 accumulation and requantization."""
    pack = prepack_fully_connected_quantized(wq, bias_q, x_qp, w_qp)
    return fully_connected_quantized_prepacked(xq, pack, out_qp)


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float batched matmul used inside attention blocks."""
    return (np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)).astype(np.float32)
