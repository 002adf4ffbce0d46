"""Task pre-processing stages (paper §4.1).

All submitters must run the same steps: vision tasks resize / center-crop /
normalize; QA pads token ids and builds the attention mask. These run outside
the timed region in accuracy mode but are part of what the reference app
defines, so they are implemented (and tested) explicitly.
"""

from __future__ import annotations

import numpy as np

from typing import Callable

from ..kernels.pooling import resize_bilinear

__all__ = [
    "resize_image",
    "center_crop",
    "normalize_image",
    "classification_preprocess",
    "dense_preprocess",
    "preprocess_batch",
]


def resize_image(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an HWC image (uint8 or float) to (out_h, out_w)."""
    batched = resize_bilinear(image[None].astype(np.float32), out_h, out_w)
    return batched[0]


def center_crop(image: np.ndarray, crop_h: int, crop_w: int) -> np.ndarray:
    h, w = image.shape[:2]
    if h < crop_h or w < crop_w:
        raise ValueError(f"image {image.shape} smaller than crop ({crop_h}, {crop_w})")
    top = (h - crop_h) // 2
    left = (w - crop_w) // 2
    return image[top : top + crop_h, left : left + crop_w]


def normalize_image(image: np.ndarray) -> np.ndarray:
    """Map [0, 255] pixels to [-1, 1] (the MobileNet-family convention)."""
    return (image.astype(np.float32) / 127.5) - 1.0


def classification_preprocess(image: np.ndarray, input_size: int) -> np.ndarray:
    """ImageNet-style: scale the short side ~1.14x the crop, then center-crop."""
    resize_to = int(round(input_size * 256 / 224))
    image = resize_image(image, resize_to, resize_to)
    image = center_crop(image, input_size, input_size)
    return normalize_image(image)


def dense_preprocess(image: np.ndarray, input_size: int) -> np.ndarray:
    """Detection/segmentation: direct resize to the network input, normalize."""
    image = resize_image(image, input_size, input_size)
    return normalize_image(image)


def preprocess_batch(
    images: np.ndarray, fn: Callable[[np.ndarray, int], np.ndarray], size: int
) -> np.ndarray:
    """``fn(image, size)`` over a batch of raw images, stacked as float32."""
    return np.stack([fn(im, size) for im in images]).astype(np.float32)
