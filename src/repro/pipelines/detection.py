"""Detection post-processing: box decoding and non-maximum suppression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Detection", "decode_boxes", "encode_boxes", "iou_matrix", "nms", "postprocess_detections"]

# per-class NMS overlap limit and the detections kept per sample
_NMS_IOU_THRESHOLD = 0.5
_MAX_DETECTIONS = 20


@dataclass(frozen=True)
class Detection:
    """One detected object in normalized (ymin, xmin, ymax, xmax) coords."""

    box: tuple[float, float, float, float]
    score: float
    class_id: int


def decode_boxes(
    encodings: np.ndarray,
    anchors: np.ndarray,
    variances: tuple[float, float, float, float] = (0.1, 0.1, 0.2, 0.2),
) -> np.ndarray:
    """SSD decode: (A, 4) offsets + (A, 4) center-size anchors -> corner boxes."""
    ty, tx, th, tw = (encodings[:, i] * variances[i] for i in range(4))
    acy, acx, ah, aw = anchors[:, 0], anchors[:, 1], anchors[:, 2], anchors[:, 3]
    cy = ty * ah + acy
    cx = tx * aw + acx
    h = np.exp(np.clip(th, -10, 10)) * ah
    w = np.exp(np.clip(tw, -10, 10)) * aw
    boxes = np.stack([cy - h / 2, cx - w / 2, cy + h / 2, cx + w / 2], axis=1)
    return np.clip(boxes, 0.0, 1.0).astype(np.float32)


def encode_boxes(
    boxes: np.ndarray,
    anchors: np.ndarray,
    variances: tuple[float, float, float, float] = (0.1, 0.1, 0.2, 0.2),
) -> np.ndarray:
    """Inverse of :func:`decode_boxes`: corner boxes -> per-anchor offsets."""
    cy = (boxes[:, 0] + boxes[:, 2]) / 2
    cx = (boxes[:, 1] + boxes[:, 3]) / 2
    h = np.maximum(boxes[:, 2] - boxes[:, 0], 1e-6)
    w = np.maximum(boxes[:, 3] - boxes[:, 1], 1e-6)
    acy, acx, ah, aw = anchors[:, 0], anchors[:, 1], anchors[:, 2], anchors[:, 3]
    ty = (cy - acy) / ah / variances[0]
    tx = (cx - acx) / aw / variances[1]
    th = np.log(h / ah) / variances[2]
    tw = np.log(w / aw) / variances[3]
    return np.stack([ty, tx, th, tw], axis=1).astype(np.float32)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) corner boxes."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    top = np.maximum(a[:, None, 0], b[None, :, 0])
    left = np.maximum(a[:, None, 1], b[None, :, 1])
    bottom = np.minimum(a[:, None, 2], b[None, :, 2])
    right = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(bottom - top, 0, None) * np.clip(right - left, 0, None)
    area_a = np.clip(a[:, 2] - a[:, 0], 0, None) * np.clip(a[:, 3] - a[:, 1], 0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-12), 0.0)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5,
        max_outputs: int = 100) -> np.ndarray:
    """Greedy NMS; returns selected indices in descending score order."""
    order = np.argsort(-scores, kind="stable")
    selected: list[int] = []
    suppressed = np.zeros(len(scores), dtype=bool)
    ious = iou_matrix(boxes, boxes)
    for idx in order:
        if suppressed[idx]:
            continue
        selected.append(int(idx))
        if len(selected) >= max_outputs:
            break
        suppressed |= ious[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(selected, dtype=np.int64)


def postprocess_detections(
    class_scores: np.ndarray,
    box_encodings: np.ndarray,
    anchors: np.ndarray,
    *,
    score_threshold: float = 0.3,
    variances: tuple[float, float, float, float] = (0.1, 0.1, 0.2, 0.2),
) -> list[Detection]:
    """Per-class NMS over decoded boxes for one sample.

    ``class_scores``: (A, C) post-sigmoid; ``box_encodings``: (A, 4).
    Class 0 is background and never detected.
    """
    boxes = decode_boxes(box_encodings, anchors, variances)
    detections: list[Detection] = []
    for c in range(1, class_scores.shape[1]):
        scores_c = class_scores[:, c]
        keep = scores_c >= score_threshold
        if not np.any(keep):
            continue
        idx = np.flatnonzero(keep)
        sel = nms(boxes[idx], scores_c[idx], _NMS_IOU_THRESHOLD)
        for i in sel:
            a = idx[i]
            detections.append(Detection(tuple(boxes[a].tolist()), float(scores_c[a]), c))
    detections.sort(key=lambda d: -d.score)
    return detections[:_MAX_DETECTIONS]
