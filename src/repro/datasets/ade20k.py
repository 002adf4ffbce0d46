"""Synthetic ADE20K stand-in for the semantic-segmentation task.

Validation scenes are Voronoi region maps with class textures; ground truth
is the exact region class per pixel. The last class index plays the role of
the paper's 32nd "everything else" bucket, which the metric ignores.
"""

from __future__ import annotations

import numpy as np

from ..metrics.segmentation import miou_frequent_classes
from ..pipelines.postprocess import segmentation_map
from ..pipelines.preprocess import dense_preprocess, preprocess_batch
from ..synthdata import segmentation_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticADE20K"]

CALIBRATION_SIZE = 32


class SyntheticADE20K(TaskDataset):
    name = "ade20k"
    task = "semantic_segmentation"
    metric_name = "mIoU"

    def __init__(self, feeds, truths, calibration, num_classes):
        super().__init__(feeds, truths, calibration)
        self.num_classes = num_classes

    @classmethod
    def generate(cls, model_config: dict, *, size: int, seed: int = 44) -> "SyntheticADE20K":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]

        # scenes at exact network resolution keep labels pixel-aligned
        raws, labels = segmentation_scene_batch(size, input_size, num_classes, seed)
        cal_raws, _ = segmentation_scene_batch(
            CALIBRATION_SIZE, input_size, num_classes, seed + 10_000
        )
        return cls(
            {"images": preprocess_batch(raws, dense_preprocess, input_size)},
            labels,
            {"images": preprocess_batch(cal_raws, dense_preprocess, input_size)},
            num_classes,
        )

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> np.ndarray:
        logits = next(iter(outputs.values()))
        return segmentation_map(logits)

    def score(self, predictions: list[np.ndarray], truths: list[np.ndarray]) -> dict[str, float]:
        return {"mIoU": miou_frequent_classes(predictions, truths, self.num_classes) * 100.0}
