"""Pooling and spatial resampling kernels (NHWC layout)."""

from __future__ import annotations

import numpy as np

from .conv import conv_output_shape, im2col, pad_input

__all__ = [
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "resize_bilinear",
    "resize_nearest",
]


def _pool_window_view(x: np.ndarray, k: int, stride: int, padding: str, pad_value: float):
    """Strided (N, out_h, out_w, k, k, C) window view over the padded input.

    No patch materialization: reductions that are order-insensitive (max)
    run directly on the view instead of forcing the contiguous copy that
    ``im2col(...).reshape`` implies.
    """
    n, in_h, in_w, c = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, k, k, stride, padding)
    xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w, value=pad_value)
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, out_h, out_w, k, k, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )


def _pool_patches(x: np.ndarray, k: int, stride: int, padding: str, pad_value: float):
    n, in_h, in_w, c = x.shape
    out_h, out_w, pads_h, pads_w = conv_output_shape(in_h, in_w, k, k, stride, padding)
    xp = pad_input(np.ascontiguousarray(x, dtype=np.float32), pads_h, pads_w, value=pad_value)
    cols = im2col(xp, k, k, stride, out_h, out_w)
    return cols.reshape(n, out_h, out_w, k * k, c)


def avg_pool2d(x: np.ndarray, k: int, stride: int | None = None, padding: str = "valid") -> np.ndarray:
    # mean keeps the materialized-patch path: its summation order (and hence
    # float rounding) must stay identical to the historical im2col layout
    stride = stride or k
    patches = _pool_patches(x, k, stride, padding, 0.0)
    return patches.mean(axis=3).astype(np.float32)


def max_pool2d(x: np.ndarray, k: int, stride: int | None = None, padding: str = "valid") -> np.ndarray:
    stride = stride or k
    view = _pool_window_view(x, k, stride, padding, -np.inf)
    return view.max(axis=(3, 4)).astype(np.float32)


def global_avg_pool(x: np.ndarray, keepdims: bool = True) -> np.ndarray:
    out = x.mean(axis=(1, 2), keepdims=keepdims)
    return out.astype(np.float32)


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int, align_corners: bool = False) -> np.ndarray:
    """Bilinear resize matching TF's half-pixel-centers convention."""
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
    # separable: the x pass once per input row, then the y pass. A row
    # gather only selects values, so each output element gets the same
    # float32 operations as interpolating its two gathered rows (DESIGN.md §5)
    cols = x[:, :, x0] * (1 - wx) + x[:, :, x1] * wx
    return (cols[:, y0] * (1 - wy) + cols[:, y1] * wy).astype(np.float32)


def resize_nearest(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    n, in_h, in_w, c = x.shape
    ys = np.minimum((np.arange(out_h) * in_h // out_h), in_h - 1)
    xs = np.minimum((np.arange(out_w) * in_w // out_w), in_w - 1)
    return np.ascontiguousarray(x[:, ys][:, :, xs])
