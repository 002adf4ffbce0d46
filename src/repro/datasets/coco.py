"""Synthetic COCO-2017 stand-in for the object-detection task.

Validation scenes contain textured rectangles at known normalized boxes (the
same generator the SSD heads were ridge-fitted on, fresh seed), so mAP
measures genuine localization + classification quality.
"""

from __future__ import annotations

import numpy as np

from ..metrics.detection_map import GroundTruthBox, coco_map
from ..pipelines.anchors import anchors_for_model
from ..pipelines.detection import Detection, postprocess_detections
from ..pipelines.preprocess import dense_preprocess, preprocess_batch
from ..synthdata import detection_scene_batch
from .base import TaskDataset

__all__ = ["SyntheticCOCO"]

CALIBRATION_SIZE = 64
SCORE_THRESHOLD = 0.25  # detections below this class score are dropped


class SyntheticCOCO(TaskDataset):
    name = "coco"
    task = "object_detection"
    metric_name = "mAP"

    def __init__(self, feeds, truths, calibration, anchors, box_variances):
        super().__init__(feeds, truths, calibration)
        self.anchors = anchors
        self.box_variances = box_variances

    @classmethod
    def generate(cls, model_config: dict, *, size: int, seed: int = 43) -> "SyntheticCOCO":
        input_size = model_config["input_size"]
        num_classes = model_config["num_classes"]

        raws, objects = detection_scene_batch(size, input_size + 16, num_classes, seed)
        truths = [
            [GroundTruthBox(o.box, o.class_id) for o in objs] for objs in objects
        ]
        cal_raws, _ = detection_scene_batch(
            CALIBRATION_SIZE, input_size + 16, num_classes, seed + 10_000
        )
        return cls(
            {"images": preprocess_batch(raws, dense_preprocess, input_size)},
            truths,
            {"images": preprocess_batch(cal_raws, dense_preprocess, input_size)},
            anchors_for_model(model_config),
            model_config["box_variances"],
        )

    def postprocess(self, outputs: dict[str, np.ndarray], index: int) -> list[Detection]:
        scores = outputs[next(k for k in outputs if "scores" in k)]
        boxes = outputs[next(k for k in outputs if "box" in k)]
        return postprocess_detections(
            scores, boxes, self.anchors,
            score_threshold=SCORE_THRESHOLD, variances=self.box_variances,
        )

    def score(self, predictions: list[list[Detection]],
              truths: list[list[GroundTruthBox]]) -> dict[str, float]:
        return {"mAP": coco_map(predictions, truths) * 100.0}
