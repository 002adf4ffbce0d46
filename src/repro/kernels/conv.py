"""Convolution kernels (NHWC layout) implemented with im2col + BLAS matmul.

Float kernels accumulate in float32/float64; the quantized kernel performs a
genuine integer convolution with int32 accumulation followed by requantization,
matching the TFLite reference INT8 path the paper's submissions start from.

Every kernel comes in two forms: the plain entry point (self-contained, derives
everything from its arguments on each call) and a *prepacked* pair
(``prepack_* `` + ``*_prepacked``). Prepacking hoists the constant-operand work
— weight reshapes/casts, zero-point column sums, effective scales, bias
widening — out of the per-query path; the plain kernels are implemented on top
of the prepacked ones, so both paths are bit-exact by construction. The
execution planner (:mod:`repro.graph.plan`) prepacks once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import QuantParams, requantize

__all__ = [
    "pad_input",
    "im2col",
    "conv2d",
    "depthwise_conv2d",
    "conv2d_quantized",
    "depthwise_conv2d_quantized",
    "conv_output_shape",
    "ConvPack",
    "QuantConvPack",
    "DepthwiseConvPack",
    "QuantDepthwiseConvPack",
    "prepack_conv2d",
    "conv2d_prepacked",
    "prepack_conv2d_quantized",
    "conv2d_quantized_prepacked",
    "prepack_depthwise_conv2d",
    "depthwise_conv2d_prepacked",
    "prepack_depthwise_conv2d_quantized",
    "depthwise_conv2d_quantized_prepacked",
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


def im2col(
    x: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int, dilation: int = 1
) -> np.ndarray:
    """Extract (N, out_h, out_w, k_h*k_w*C) patches from padded NHWC input."""
    n, _, _, c = x.shape
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, k_h, k_w, c),
        strides=(s0, s1 * stride, s2 * stride, s1 * dilation, s2 * dilation, s3),
        writeable=False,
    )
    return patches.reshape(n, out_h, out_w, k_h * k_w * c)


def _dw_patches(xp: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int):
    """Strided (N, out_h, out_w, k_h, k_w, C) window view over padded input."""
    n = xp.shape[0]
    c = xp.shape[3]
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, out_h, out_w, k_h, k_w, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )


# -- float path --------------------------------------------------------------


@dataclass(frozen=True)
class ConvPack:
    """Constant operands of a float convolution, ready for the matmul."""

    w_mat: np.ndarray  # float32 (kh*kw*Cin, Cout)
    bias: np.ndarray | None  # float32 (Cout,)
    k_h: int
    k_w: int
    c_in: int
    c_out: int


def prepack_conv2d(weight: np.ndarray, bias: np.ndarray | None = None) -> ConvPack:
    """Hoist the per-call weight reshape/cast of :func:`conv2d`."""
    k_h, k_w, c_in, c_out = weight.shape
    w_mat = np.ascontiguousarray(weight.reshape(-1, c_out).astype(np.float32))
    b = None if bias is None else bias.astype(np.float32)
    return ConvPack(w_mat, b, k_h, k_w, c_in, c_out)


def conv2d_prepacked(
    x: np.ndarray,
    pack: ConvPack,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> np.ndarray:
    """Float convolution against prepacked constants; bit-exact with :func:`conv2d`.

    Returns a freshly allocated float32 (N, out_h, out_w, Cout) array (the
    bias is added into the matmul result in place). A 1x1/stride-1
    convolution skips padding and im2col entirely: the input *is* the patch
    matrix, so the BLAS call sees the identical operand without
    materializing a copy.
    """
    n, in_h, in_w, c_in = x.shape
    if pack.c_in != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, weight {pack.c_in}")
    out_h, out_w, pads_h, pads_w = conv_output_shape(
        in_h, in_w, pack.k_h, pack.k_w, stride, padding, dilation
    )
    if pack.k_h == 1 and pack.k_w == 1 and stride == 1:
        cols = np.ascontiguousarray(x, dtype=np.float32).reshape(-1, c_in)
    else:
        xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w)
        cols = im2col(xp, pack.k_h, pack.k_w, stride, out_h, out_w, dilation).reshape(
            -1, pack.k_h * pack.k_w * c_in
        )
    out = (cols @ pack.w_mat).reshape(n, out_h, out_w, pack.c_out)
    if pack.bias is not None:
        out += pack.bias
    return out


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> np.ndarray:
    """Standard convolution. ``x``: (N,H,W,Cin); ``weight``: (kh,kw,Cin,Cout)."""
    return conv2d_prepacked(
        x, prepack_conv2d(weight, bias), stride=stride, padding=padding, dilation=dilation
    )


@dataclass(frozen=True)
class DepthwiseConvPack:
    """Constant operands of a float depthwise convolution."""

    w: np.ndarray  # float32 (kh, kw, C)
    bias: np.ndarray | None  # float32 (C,)
    k_h: int
    k_w: int
    c: int


def prepack_depthwise_conv2d(
    weight: np.ndarray, bias: np.ndarray | None = None
) -> DepthwiseConvPack:
    k_h, k_w, c, mult = weight.shape
    if mult != 1:
        raise ValueError("depthwise weight must be (kh,kw,C,1) — multiplier 1 only")
    b = None if bias is None else bias.astype(np.float32)
    return DepthwiseConvPack(weight[..., 0].astype(np.float32), b, k_h, k_w, c)


def depthwise_conv2d_prepacked(
    x: np.ndarray,
    pack: DepthwiseConvPack,
    *,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    n, in_h, in_w, c = x.shape
    if pack.c != c:
        raise ValueError("depthwise weight must be (kh,kw,C,1) matching input channels")
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, pack.k_h, pack.k_w, stride, padding)
    xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w)
    patches = _dw_patches(xp, pack.k_h, pack.k_w, stride, out_h, out_w)
    # einsum over the kernel window, per channel
    out = np.einsum("nhwklc,klc->nhwc", patches, pack.w)
    if pack.bias is not None:
        out += pack.bias
    return out


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    """Depthwise convolution. ``weight``: (kh,kw,C,1) — multiplier 1 only."""
    return depthwise_conv2d_prepacked(
        x, prepack_depthwise_conv2d(weight, bias), stride=stride, padding=padding
    )


# -- quantized path ----------------------------------------------------------


@dataclass(frozen=True)
class QuantConvPack:
    """Constant operands of an integer convolution.

    Everything :func:`conv2d_quantized` used to recompute per call: the
    float64 weight matrix, the x-zero-point column-sum correction, the weight
    zero points, the int64-widened bias and the effective accumulator scale.
    """

    w_mat: np.ndarray  # float64 (kh*kw*Cin, Cout)
    zp_colsum: np.ndarray  # int64 (1, Cout): x_zp * sum_k(w)
    w_zp: np.ndarray | int  # per-channel (1, Cout) or scalar
    w_zp_any: bool
    bias: np.ndarray | None  # int64 (Cout,)
    eff_scale: np.ndarray  # float64 (1, Cout)
    x_zp: int
    k_h: int
    k_w: int
    c_in: int
    c_out: int


def prepack_conv2d_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
) -> QuantConvPack:
    """Hoist every constant-operand reduction of :func:`conv2d_quantized`."""
    k_h, k_w, c_in, c_out = wq.shape
    x_zp = int(x_qp.zero_point[0])
    w_mat = wq.astype(np.float64).reshape(-1, c_out)
    zp_colsum = x_zp * np.rint(w_mat.sum(axis=0, keepdims=True)).astype(np.int64)
    if w_qp.per_channel:
        w_zp = w_qp.zero_point.reshape(1, -1)
    else:
        w_zp = int(w_qp.zero_point[0])
    return QuantConvPack(
        w_mat=w_mat,
        zp_colsum=zp_colsum,
        w_zp=w_zp,
        w_zp_any=bool(np.any(w_zp != 0)),
        bias=None if bias_q is None else bias_q.astype(np.int64),
        eff_scale=(x_qp.scale[0] * w_qp.scale).reshape(1, -1),
        x_zp=x_zp,
        k_h=k_h,
        k_w=k_w,
        c_in=c_in,
        c_out=c_out,
    )


def conv2d_quantized_prepacked(
    xq: np.ndarray,
    pack: QuantConvPack,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> np.ndarray:
    """Integer convolution with int32 accumulation against prepacked constants.

    float64 BLAS matmul is exact here: |acc| <= 255 * 127 * K << 2**53,
    and is an order of magnitude faster than NumPy's integer matmul.
    The 1x1/stride-1 fast path feeds the widened input straight into the
    matmul (no padding, no im2col patch copy).
    """
    n, in_h, in_w, c_in = xq.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(
        in_h, in_w, pack.k_h, pack.k_w, stride, padding, dilation
    )
    if pack.k_h == 1 and pack.k_w == 1 and stride == 1:
        cols = xq.astype(np.float64).reshape(-1, c_in)
    else:
        xp = pad_input(xq.astype(np.float64), pads_h, pads_w, value=pack.x_zp)
        cols = im2col(xp, pack.k_h, pack.k_w, stride, out_h, out_w, dilation).reshape(
            -1, pack.k_h * pack.k_w * c_in
        )
    acc = np.rint(cols @ pack.w_mat).astype(np.int64)
    # subtract zero-point contributions: sum over the patch of x_zp * w
    acc -= pack.zp_colsum
    if pack.w_zp_any:
        col_sums = np.rint(cols.sum(axis=1, keepdims=True)).astype(np.int64)
        acc -= (col_sums - pack.x_zp * cols.shape[1]) * pack.w_zp
    if pack.bias is not None:
        acc = acc + pack.bias
    return requantize(acc, pack.eff_scale, out_qp).reshape(n, out_h, out_w, pack.c_out)


def conv2d_quantized(
    xq: np.ndarray,
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
    dilation: int = 1,
) -> np.ndarray:
    """Integer convolution with int32 accumulation.

    ``bias_q`` is pre-quantized to int32 with scale ``x_scale * w_scale``
    (per output channel when weights are per-channel), as TFLite requires.
    """
    pack = prepack_conv2d_quantized(wq, bias_q, x_qp, w_qp)
    return conv2d_quantized_prepacked(
        xq, pack, out_qp, stride=stride, padding=padding, dilation=dilation
    )


@dataclass(frozen=True)
class QuantDepthwiseConvPack:
    """Constant operands of an integer depthwise convolution."""

    w: np.ndarray  # float64 (kh, kw, C), already centered by the weight zero point
    bias: np.ndarray | None  # int64 (C,)
    eff_scale: np.ndarray  # float64 (1, 1, 1, C)
    x_zp: int
    k_h: int
    k_w: int
    c: int


def prepack_depthwise_conv2d_quantized(
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
) -> QuantDepthwiseConvPack:
    k_h, k_w, c, _ = wq.shape
    w = wq[..., 0].astype(np.float64)
    # center weights by their (per-channel) zero point: symmetric int8 pins
    # w_zp at 0 but symmetric uint8 pins it mid-range (128)
    w = w - w_qp.zero_point.astype(np.float64).reshape(1, 1, -1)
    return QuantDepthwiseConvPack(
        w=w,
        bias=None if bias_q is None else bias_q.astype(np.int64),
        eff_scale=(x_qp.scale[0] * w_qp.scale).reshape(1, 1, 1, -1),
        x_zp=int(x_qp.zero_point[0]),
        k_h=k_h,
        k_w=k_w,
        c=c,
    )


def depthwise_conv2d_quantized_prepacked(
    xq: np.ndarray,
    pack: QuantDepthwiseConvPack,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    """Integer depthwise convolution with int32 accumulation."""
    n, in_h, in_w, c = xq.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, pack.k_h, pack.k_w, stride, padding)
    xp = pad_input(xq.astype(np.float64), pads_h, pads_w, value=pack.x_zp)
    patches = _dw_patches(xp, pack.k_h, pack.k_w, stride, out_h, out_w)
    acc = np.rint(np.einsum("nhwklc,klc->nhwc", patches - pack.x_zp, pack.w)).astype(np.int64)
    if pack.bias is not None:
        acc = acc + pack.bias
    return requantize(acc, pack.eff_scale, out_qp)


def depthwise_conv2d_quantized(
    xq: np.ndarray,
    wq: np.ndarray,
    bias_q: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    *,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    """Integer depthwise convolution with int32 accumulation."""
    pack = prepack_depthwise_conv2d_quantized(wq, bias_q, x_qp, w_qp)
    return depthwise_conv2d_quantized_prepacked(xq, pack, out_qp, stride=stride, padding=padding)
