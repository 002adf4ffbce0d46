"""Task pre/post-processing pipelines shared by app, datasets, and backends."""

from .anchors import anchors_for_model, generate_ssd_anchors
from .detection import Detection, decode_boxes, iou_matrix, nms, postprocess_detections
from .postprocess import extract_answer_span, greedy_ctc_decode, segmentation_map, top_k
from .preprocess import (
    center_crop,
    classification_preprocess,
    dense_preprocess,
    normalize_image,
    resize_image,
)

__all__ = [
    "generate_ssd_anchors",
    "anchors_for_model",
    "Detection",
    "decode_boxes",
    "iou_matrix",
    "nms",
    "postprocess_detections",
    "top_k",
    "segmentation_map",
    "extract_answer_span",
    "greedy_ctc_decode",
    "resize_image",
    "center_crop",
    "normalize_image",
    "classification_preprocess",
    "dense_preprocess",
]
