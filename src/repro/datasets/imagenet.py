"""Synthetic ImageNet-2012 stand-in for the image-classification task.

Validation images are drawn from the same class-prototype generator the
reference model's head was fitted against (fresh seed), so ground truth is
real: FP32 Top-1 reflects genuine signal recovery and quantized models lose
accuracy exactly where their numeric error crosses a decision boundary.
"""

from __future__ import annotations

import numpy as np

from ..metrics.classification import top1_accuracy
from ..pipelines.postprocess import top_k
from ..pipelines.preprocess import classification_preprocess, preprocess_batch
from ..synthdata import classification_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticImageNet"]

CALIBRATION_SIZE = 128
SIGNAL = 1.0  # class-prototype amplitude
NOISE = 0.65  # amplitude of each scene's fresh smooth field; the ratio sets Top-1


class SyntheticImageNet(TaskDataset):
    name = "imagenet"
    task = "image_classification"
    metric_name = "top1"

    @classmethod
    def generate(cls, model_config: dict, *, size: int, seed: int = 42) -> "SyntheticImageNet":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]
        raw_size = int(round(input_size * 256 / 224)) + 8

        raws, labels = classification_scene_batch(
            size, raw_size, num_classes, seed, signal=SIGNAL, noise=NOISE
        )
        cal_raws, _ = classification_scene_batch(
            CALIBRATION_SIZE, raw_size, num_classes, seed + 10_000, signal=SIGNAL, noise=NOISE
        )
        return cls(
            {"images": preprocess_batch(raws, classification_preprocess, input_size)},
            labels,
            {"images": preprocess_batch(cal_raws, classification_preprocess, input_size)},
        )

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> int:
        probs = next(iter(outputs.values()))
        return int(top_k(probs, k=1)[0])

    def score(self, predictions: list[int], truths: list[int]) -> dict[str, float]:
        return {"top1": top1_accuracy(predictions, truths) * 100.0}
