"""Task quality metrics (Table 1): Top-1, COCO mAP, mIoU, SQuAD F1/EM."""

from .classification import top1_accuracy
from .detection_map import COCO_IOU_THRESHOLDS, GroundTruthBox, average_precision, coco_map
from .segmentation import confusion_matrix, miou, miou_frequent_classes
from .psnr import mean_psnr, psnr
from .speech import edit_distance, token_accuracy, word_error_rate
from .squad import exact_match, span_f1, squad_scores

__all__ = [
    "top1_accuracy",
    "GroundTruthBox",
    "coco_map",
    "average_precision",
    "COCO_IOU_THRESHOLDS",
    "confusion_matrix",
    "miou",
    "miou_frequent_classes",
    "span_f1",
    "exact_match",
    "squad_scores",
    "edit_distance",
    "word_error_rate",
    "token_accuracy",
    "psnr",
    "mean_psnr",
]
