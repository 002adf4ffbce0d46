"""Pooling and spatial resampling kernels (NHWC layout)."""

from __future__ import annotations

import numpy as np

__all__ = [
    "global_avg_pool",
    "resize_bilinear",
]


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

