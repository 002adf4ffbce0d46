"""Multi-head self-attention kernel used by MobileBERT."""

from __future__ import annotations

import numpy as np

from .activations import softmax_inplace
from .linear import batched_matmul

__all__ = ["multi_head_attention"]


def multi_head_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    num_heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled dot-product attention.

    ``q``/``k``/``v``: (batch, seq, hidden) already projected; ``mask``:
    (batch, seq) with 1 for valid tokens. Returns (batch, seq, hidden).
    """
    b, s, hidden = q.shape
    if hidden % num_heads:
        raise ValueError(f"hidden size {hidden} not divisible by {num_heads} heads")
    d = hidden // num_heads

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(b, -1, num_heads, d).transpose(0, 2, 1, 3)  # (b, h, s, d)

    qh, kh, vh = split(q), split(k), split(v)
    # a fresh float64 buffer; the mask and the softmax then work in it
    scores = np.divide(batched_matmul(qh, kh.transpose(0, 1, 3, 2)), np.sqrt(d),
                       dtype=np.float64)
    if mask is not None:
        scores += np.where(mask[:, None, None, :] > 0, 0.0, -1e9)
    probs = softmax_inplace(scores, axis=-1)
    ctx = batched_matmul(probs, vh)  # (b, h, s, d)
    return ctx.transpose(0, 2, 1, 3).reshape(b, s, hidden)
