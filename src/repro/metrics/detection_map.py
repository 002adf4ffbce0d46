"""COCO-style mean average precision (the object-detection quality metric).

AP is computed per class with 101-point interpolation and averaged over the
COCO IoU thresholds 0.50:0.05:0.95, then averaged over classes — the same
definition the paper's mAP targets use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pipelines.detection import Detection, iou_matrix

__all__ = ["GroundTruthBox", "average_precision", "coco_map"]

COCO_IOU_THRESHOLDS = np.arange(0.50, 1.0, 0.05)


@dataclass(frozen=True)
class GroundTruthBox:
    box: tuple[float, float, float, float]
    class_id: int


def average_precision(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """COCO 101-point interpolated AP from monotonic recall/precision arrays."""
    if len(recalls) == 0:
        return 0.0
    # precision envelope (non-increasing from the right)
    precisions = np.maximum.accumulate(precisions[::-1])[::-1]
    recall_points = np.linspace(0, 1, 101)
    idx = np.searchsorted(recalls, recall_points, side="left")
    interp = np.where(idx < len(precisions), precisions[np.minimum(idx, len(precisions) - 1)], 0.0)
    return float(interp.mean())


def coco_map(
    all_detections: list[list[Detection]],
    all_truths: list[list[GroundTruthBox]],
    *,
    iou_thresholds: np.ndarray = COCO_IOU_THRESHOLDS,
) -> float:
    """mAP over images. ``all_detections[i]`` / ``all_truths[i]`` pair per image.

    Returns mAP in [0, 1]; the paper reports it x100 (e.g. 22.7).
    """
    if len(all_detections) != len(all_truths):
        raise ValueError("detections / ground truths length mismatch")
    class_ids = sorted(
        {t.class_id for ts in all_truths for t in ts}
        | {d.class_id for ds in all_detections for d in ds}
    )
    if not class_ids:
        return 0.0
    thresholds = np.asarray(iou_thresholds, dtype=np.float64)
    rows = np.arange(len(thresholds))
    # pycocotools' evaluateImg loop order: per (class, image), sort the
    # detections once, compute their IoUs once, and match greedily at every
    # threshold from that one matrix. per_class holds, for each class with
    # truths, its tp flags (thresholds x detections, in score order) and
    # its number of truths.
    per_class = []
    for c in class_ids:
        tps, scores, n_truth = [], [], 0
        for dets, truths in zip(all_detections, all_truths):
            dets_c = [d for d in dets if d.class_id == c]
            truths_c = [t for t in truths if t.class_id == c]
            n_truth += len(truths_c)
            if not dets_c:
                continue
            neg = [-d.score for d in dets_c]
            order = np.argsort(neg, kind="stable")
            scores.extend(neg[i] for i in order)
            tp = np.zeros((len(thresholds), len(dets_c)), dtype=bool)
            tps.append(tp)
            if not truths_c:
                continue
            ious = iou_matrix(
                np.asarray([dets_c[i].box for i in order], dtype=np.float64),
                np.asarray([t.box for t in truths_c], dtype=np.float64),
            )
            taken = np.zeros((len(thresholds), len(truths_c)), dtype=bool)
            for pos, row in enumerate(ious):
                # best untaken truth per threshold; a threshold whose truths
                # are all taken sees -inf and matches nothing
                masked = np.where(taken, -np.inf, row)
                j = masked.argmax(axis=1)
                hit = masked[rows, j] >= thresholds
                taken[rows[hit], j[hit]] = True
                tp[:, pos] = hit
        if n_truth == 0:
            continue
        flat_tp = np.concatenate(tps, axis=1) if tps else np.zeros((len(thresholds), 0), bool)
        per_class.append((flat_tp[:, np.argsort(scores, kind="stable")], n_truth))
    aps = []
    # threshold-major, then class: the order np.mean sums the APs in (a
    # class with no detections scores 0.0 through average_precision)
    for t in range(len(thresholds)):
        for flat_tp, n_truth in per_class:
            cum_tp = np.cumsum(flat_tp[t])
            cum_fp = np.cumsum(~flat_tp[t])
            recalls = cum_tp / n_truth
            precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1)
            aps.append(average_precision(recalls, precisions))
    return float(np.mean(aps)) if aps else 0.0
