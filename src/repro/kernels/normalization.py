"""Normalization kernels.

Batch norm exists in the IR so the converter can demonstrate folding it into
the preceding convolution (the standard TFLite export step); layer norm is the
MobileBERT building block (the paper's MobileBERT uses the no-norm/LayerNorm
variants — we implement standard LayerNorm).
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_norm", "layer_norm", "fold_batch_norm"]


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Inference-time batch norm over the channel (last) axis."""
    inv = gamma / np.sqrt(variance + eps)
    return ((x - mean) * inv + beta).astype(np.float32)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Layer norm over the last axis.

    The deviation ``d = x - mean`` is formed once and finished in place; the
    variance is ``np.var``'s own sequence over it (sum of squares, then / n).
    """
    x = np.asarray(x, dtype=np.float32)
    d = x - x.mean(axis=-1, keepdims=True)
    var = np.square(d).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    d /= np.sqrt(var + eps)
    d *= gamma
    d += beta
    return d


def fold_batch_norm(
    weight: np.ndarray,
    bias: np.ndarray | None,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-3,
    *,
    depthwise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold BN statistics into conv weights/bias.

    ``weight``: (kh,kw,Cin,Cout), or (kh,kw,C,1) for depthwise where BN runs
    over C. Returns the folded (weight, bias).
    """
    inv = (gamma / np.sqrt(variance + eps)).astype(np.float32)
    if depthwise:
        w = weight * inv[None, None, :, None]
    else:
        w = weight * inv[None, None, None, :]
    b = bias if bias is not None else np.zeros_like(mean, dtype=np.float32)
    b = (b - mean) * inv + beta
    return w.astype(np.float32), b.astype(np.float32)
