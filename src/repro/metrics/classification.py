"""Top-1 accuracy (ImageNet task quality metric)."""

from __future__ import annotations

import numpy as np

__all__ = ["top1_accuracy"]


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    ``predictions``: (N,) predicted class ids or (N, C) scores.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=-1)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    return float((predictions == labels).mean())
