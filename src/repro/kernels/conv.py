"""Convolution kernels (NHWC layout) implemented with im2col + BLAS matmul.

Float kernels accumulate in float32; the quantized kernels perform a genuine
integer convolution followed by requantization, matching the TFLite
reference INT8 path the paper's submissions start from.

Each kernel has one form, a ``prepare_*`` function in the TFLite
prepare/invoke mould: it does the constant-operand work once (weight
reshapes and casts, and for the integer kernels the centred weights, the
operand dtype proved exact for them, the zero-point and bias offsets and
the effective scales) and returns the per-call closure
``x -> y``. Graph ops call it from ``Op.prepare`` (:mod:`repro.graph.ops`).
Quantized conv runs the integer GEMM shared with fully-connected
(:func:`repro.kernels.linear.prepare_integer_gemm`) over its patch rows;
depthwise keeps its own per-channel einsum.
"""

from __future__ import annotations

import numpy as np

from .linear import Kernel, exact_operand_dtype, prepare_integer_gemm
from .numerics import QuantParams, requantize

__all__ = [
    "pad_input",
    "im2col",
    "conv_output_shape",
    "prepare_conv2d",
    "prepare_conv2d_quantized",
    "prepare_depthwise_conv2d",
    "prepare_depthwise_conv2d_quantized",
]


def conv_output_shape(
    in_h: int, in_w: int, k_h: int, k_w: int, stride: int, padding: str, dilation: int = 1
) -> tuple[int, int, tuple[int, int], tuple[int, int]]:
    """Output spatial dims plus (top,bottom)/(left,right) padding for SAME/VALID."""
    k_h = (k_h - 1) * dilation + 1  # effective (dilated) kernel extent
    k_w = (k_w - 1) * dilation + 1
    if padding == "same":
        out_h = -(-in_h // stride)
        out_w = -(-in_w // stride)
        pad_h = max((out_h - 1) * stride + k_h - in_h, 0)
        pad_w = max((out_w - 1) * stride + k_w - in_w, 0)
        pads_h = (pad_h // 2, pad_h - pad_h // 2)
        pads_w = (pad_w // 2, pad_w - pad_w // 2)
    elif padding == "valid":
        out_h = (in_h - k_h) // stride + 1
        out_w = (in_w - k_w) // stride + 1
        pads_h = (0, 0)
        pads_w = (0, 0)
    else:
        raise ValueError(f"unknown padding mode {padding!r}")
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution output would be empty")
    return out_h, out_w, pads_h, pads_w


def pad_input(
    x: np.ndarray, pads_h: tuple[int, int], pads_w: tuple[int, int], value: float = 0.0
) -> np.ndarray:
    if pads_h == (0, 0) and pads_w == (0, 0):
        return x
    return np.pad(x, ((0, 0), pads_h, pads_w, (0, 0)), constant_values=value)


def _windows(
    x: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int, dilation: int = 1
) -> np.ndarray:
    """Strided (N, out_h, out_w, k_h, k_w, C) window view over padded NHWC input."""
    n, _, _, c = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, k_h, k_w, c),
        strides=(s0, s1 * stride, s2 * stride, s1 * dilation, s2 * dilation, s3),
        writeable=False,
    )


def im2col(
    x: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int, dilation: int = 1
) -> np.ndarray:
    """Extract (N, out_h, out_w, k_h*k_w*C) patches from padded NHWC input."""
    n, _, _, c = x.shape
    patches = _windows(x, k_h, k_w, stride, out_h, out_w, dilation)
    return patches.reshape(n, out_h, out_w, k_h * k_w * c)


def _patch_rows(
    x: np.ndarray, k_h: int, k_w: int, stride: int, padding: str, dilation: int,
    pad_value: float = 0.0,
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The (N*out_h*out_w, k_h*k_w*C) patch-row matrix and the (N, out_h, out_w)
    output dims. A 1x1/stride-1 convolution skips padding and im2col: its
    input already is the row matrix, so no patch copy is made."""
    n, in_h, in_w, c = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(
        in_h, in_w, k_h, k_w, stride, padding, dilation
    )
    if k_h == 1 and k_w == 1 and stride == 1:
        return x.reshape(-1, c), (n, out_h, out_w)
    xp = pad_input(x, pads_h, pads_w, pad_value)
    rows = im2col(xp, k_h, k_w, stride, out_h, out_w, dilation).reshape(-1, k_h * k_w * c)
    return rows, (n, out_h, out_w)


def _dw_windows(x: np.ndarray, k_h: int, k_w: int, stride: int, padding: str) -> np.ndarray:
    """Zero-pad ``x`` for a depthwise window and return the window view over it."""
    _, in_h, in_w, _ = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, k_h, k_w, stride, padding)
    return _windows(pad_input(x, pads_h, pads_w), k_h, k_w, stride, out_h, out_w)


def prepare_conv2d(
    weight: np.ndarray,
    bias: np.ndarray | None,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> Kernel:
    """Standard convolution. ``weight``: (kh,kw,Cin,Cout); the closure takes
    (N,H,W,Cin) and returns a fresh float32 (N,out_h,out_w,Cout) array (the
    bias is added into the matmul result in place)."""
    k_h, k_w, c_in, c_out = weight.shape
    w_mat = np.ascontiguousarray(weight.reshape(-1, c_out).astype(np.float32))
    b = None if bias is None else bias.astype(np.float32)

    def conv2d(x: np.ndarray) -> np.ndarray:
        if x.shape[3] != c_in:
            raise ValueError(f"channel mismatch: input {x.shape[3]}, weight {c_in}")
        rows, lead = _patch_rows(
            np.ascontiguousarray(x, dtype=np.float32), k_h, k_w, stride, padding, dilation
        )
        out = (rows @ w_mat).reshape(*lead, c_out)
        if b is not None:
            out += b
        return out

    return conv2d


def prepare_conv2d_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> Kernel:
    """Integer convolution: the shared integer GEMM over the patch rows.

    ``bias_q`` is pre-quantized to int32 with scale ``x_scale * w_scale``
    (per output channel when weights are per-channel), as TFLite requires.
    Padding taps hold ``x_zp``, the code of real zero.
    """
    k_h, k_w, _, c_out = wq.shape
    gemm = prepare_integer_gemm(wq.reshape(-1, c_out), bias_q, x_qp, w_qp, out_qp)
    dtype = gemm.operand_dtype
    x_zp = int(x_qp.zero_point[0])

    def conv2d_quantized(xq: np.ndarray) -> np.ndarray:
        # the patch rows are built in the GEMM's operand dtype, so the GEMM
        # takes them as they are
        rows, lead = _patch_rows(
            xq.astype(dtype), k_h, k_w, stride, padding, dilation, pad_value=x_zp
        )
        return gemm(rows).reshape(*lead, c_out)

    conv2d_quantized.operand_dtype = dtype
    return conv2d_quantized


def prepare_depthwise_conv2d(
    weight: np.ndarray,
    bias: np.ndarray | None,
    *,
    stride: int = 1,
    padding: str = "same",
) -> Kernel:
    """Depthwise convolution. ``weight``: (kh,kw,C,1) — multiplier 1 only."""
    k_h, k_w, c, mult = weight.shape
    if mult != 1:
        raise ValueError("depthwise weight must be (kh,kw,C,1) — multiplier 1 only")
    w = weight[..., 0].astype(np.float32)
    b = None if bias is None else bias.astype(np.float32)

    def depthwise_conv2d(x: np.ndarray) -> np.ndarray:
        if x.shape[3] != c:
            raise ValueError("depthwise weight must be (kh,kw,C,1) matching input channels")
        windows = _dw_windows(np.ascontiguousarray(x, dtype=np.float32), k_h, k_w, stride, padding)
        out = np.einsum("nhwklc,klc->nhwc", windows, w)
        if b is not None:
            out += b
        return out

    return depthwise_conv2d


def prepare_depthwise_conv2d_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
) -> Kernel:
    """Integer depthwise convolution: a per-channel einsum over centred codes.

    The weights are centred by their (per-channel) zero point here, and the
    input by ``x_zp`` before padding, so padding taps are 0, the centred
    code of real zero, and the einsum is the accumulator
    ``sum (x - x_zp)(w - w_zp)``. It runs in the operand dtype that
    :func:`~repro.kernels.linear.exact_operand_dtype` proves exact for the
    centred input range, as in the integer GEMM; the accumulator plus the
    bias is then float64 and is requantized in place.
    """
    k_h, k_w, _, _ = wq.shape
    # symmetric int8 pins w_zp at 0 but symmetric uint8 pins it mid-range (128)
    w_c = wq[..., 0].astype(np.int64) - w_qp.zero_point.reshape(1, 1, -1)
    numerics = x_qp.numerics
    x_zp = int(x_qp.zero_point[0])
    dtype = exact_operand_dtype(
        max(x_zp - numerics.qmin, numerics.qmax - x_zp), w_c.reshape(k_h * k_w, -1)
    )
    w = w_c.astype(dtype)
    b = None if bias_q is None else bias_q.astype(np.float64)
    eff_scale = (x_qp.scale[0] * w_qp.scale).reshape(1, 1, 1, -1)

    def depthwise_conv2d_quantized(xq: np.ndarray) -> np.ndarray:
        windows = _dw_windows(np.subtract(xq, x_zp, dtype=dtype), k_h, k_w, stride, padding)
        acc = np.einsum("nhwklc,klc->nhwc", windows, w).astype(np.float64, copy=False)
        if b is not None:
            acc += b
        return requantize(acc, eff_scale, out_qp)

    depthwise_conv2d_quantized.operand_dtype = dtype
    return depthwise_conv2d_quantized
