"""Synthetic super-resolution dataset (App. E SR task), PSNR-scored."""

from __future__ import annotations

import numpy as np

from ..metrics.psnr import mean_psnr
from ..pipelines.preprocess import normalize_image
from ..synthdata import super_resolution_batch
from .base import TaskDataset

__all__ = ["SyntheticSuperRes"]

CALIBRATION_SIZE = 16


def denormalize_image(x: np.ndarray) -> np.ndarray:
    """Inverse of normalize_image: [-1, 1] floats -> [0, 255] pixels."""
    return np.clip((np.asarray(x, dtype=np.float32) + 1.0) * 127.5, 0.0, 255.0)


class SyntheticSuperRes(TaskDataset):
    name = "superres"
    task = "super_resolution"
    metric_name = "psnr"

    @classmethod
    def generate(cls, model_config: dict, *, size: int, seed: int = 47) -> "SyntheticSuperRes":
        scale = model_config["scale"]
        hr_size = model_config["lr_size"] * scale
        lr, hr = super_resolution_batch(size, hr_size, scale, seed)
        cal_lr, _ = super_resolution_batch(CALIBRATION_SIZE, hr_size, scale, seed + 10_000)
        return cls(
            {"lr_images": normalize_image(lr)}, hr, {"lr_images": normalize_image(cal_lr)},
        )

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> np.ndarray:
        return denormalize_image(next(iter(outputs.values())))

    def score(self, predictions: list[np.ndarray], truths: list[np.ndarray]) -> dict[str, float]:
        return {"psnr": mean_psnr(predictions, [t.astype(np.float32) for t in truths])}
