"""Task quality metrics: Top-1, COCO mAP, mIoU, SQuAD F1/EM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    GroundTruthBox,
    average_precision,
    coco_map,
    confusion_matrix,
    exact_match,
    miou,
    miou_frequent_classes,
    span_f1,
    squad_scores,
    top1_accuracy,
)
from repro.metrics.detection_map import COCO_IOU_THRESHOLDS
from repro.pipelines.detection import Detection


class TestTop1:
    def test_from_ids(self):
        assert top1_accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_from_scores(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert top1_accuracy(scores, np.array([1, 0])) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.array([1, 2]), np.array([1]))


def _det(box, score, cid):
    return Detection(tuple(box), score, cid)


def _gt(box, cid):
    return GroundTruthBox(tuple(box), cid)


class TestCocoMap:
    def test_perfect_detections(self):
        truths = [[_gt((0.1, 0.1, 0.5, 0.5), 1), _gt((0.6, 0.6, 0.9, 0.9), 2)]]
        dets = [[_det((0.1, 0.1, 0.5, 0.5), 0.9, 1), _det((0.6, 0.6, 0.9, 0.9), 0.8, 2)]]
        assert coco_map(dets, truths) == pytest.approx(1.0, abs=0.01)

    def test_no_detections(self):
        truths = [[_gt((0.1, 0.1, 0.5, 0.5), 1)]]
        assert coco_map([[]], truths) == 0.0

    def test_wrong_class_scores_zero(self):
        truths = [[_gt((0.1, 0.1, 0.5, 0.5), 1)]]
        dets = [[_det((0.1, 0.1, 0.5, 0.5), 0.9, 2)]]
        assert coco_map(dets, truths) == 0.0

    def test_localization_quality_matters(self):
        truths = [[_gt((0.1, 0.1, 0.5, 0.5), 1)]]
        exact = [[_det((0.1, 0.1, 0.5, 0.5), 0.9, 1)]]
        shifted = [[_det((0.15, 0.15, 0.55, 0.55), 0.9, 1)]]  # IoU ~0.65
        assert coco_map(exact, truths) > coco_map(shifted, truths) > 0

    def test_false_positives_reduce_precision(self):
        truths = [[_gt((0.1, 0.1, 0.5, 0.5), 1)]]
        clean = [[_det((0.1, 0.1, 0.5, 0.5), 0.9, 1)]]
        noisy = [[_det((0.1, 0.1, 0.5, 0.5), 0.5, 1),
                  _det((0.6, 0.6, 0.9, 0.9), 0.9, 1)]]  # confident FP ranked first
        assert coco_map(clean, truths) > coco_map(noisy, truths)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coco_map([[]], [[], []])

    def test_average_precision_known(self):
        # recall 0->1 at precision 1: AP = 1
        assert average_precision(np.array([1.0]), np.array([1.0])) == pytest.approx(1.0, abs=0.01)
        assert average_precision(np.array([]), np.array([])) == 0.0

    def test_hand_computed_map(self):
        # two truths, three detections ranked TP, FP, TP (every IoU is 0 or
        # 1, so all ten thresholds agree): recall .5, .5, 1 at precision
        # 1, 1/2, 2/3; the envelope is 1 up to recall .5 (51 of the 101
        # points) and 2/3 above it (50 points)
        truths = [[_gt((0.0, 0.0, 0.2, 0.2), 1), _gt((0.5, 0.5, 0.7, 0.7), 1)]]
        dets = [[_det((0.5, 0.5, 0.7, 0.7), 0.7, 1),
                 _det((0.0, 0.0, 0.2, 0.2), 0.9, 1),
                 _det((0.8, 0.0, 0.9, 0.1), 0.8, 1)]]
        assert coco_map(dets, truths) == pytest.approx((51 + 50 * 2 / 3) / 101, abs=1e-12)


def per_threshold_coco_map(all_detections, all_truths, iou_thresholds):
    """The original loop order: every threshold re-splits by class and
    re-computes every (image, class) IoU matrix before its greedy match."""
    from repro.pipelines.detection import iou_matrix

    def match(detections, truths, iou_threshold):
        if not detections:
            return np.zeros(0, dtype=bool), len(truths)
        det_boxes = np.asarray([d.box for d in detections], dtype=np.float64)
        order = np.argsort([-d.score for d in detections], kind="stable")
        tp = np.zeros(len(detections), dtype=bool)
        if not truths:
            return tp[order], 0
        gt_boxes = np.asarray([t.box for t in truths], dtype=np.float64)
        ious = iou_matrix(det_boxes, gt_boxes)
        taken = np.zeros(len(truths), dtype=bool)
        for pos, i in enumerate(order):
            cand = np.flatnonzero(~taken)
            if cand.size == 0:
                break
            j = cand[np.argmax(ious[i, cand])]
            if ious[i, j] >= iou_threshold:
                taken[j] = True
                tp[pos] = True
        return tp, len(truths)

    class_ids = sorted(
        {t.class_id for ts in all_truths for t in ts}
        | {d.class_id for ds in all_detections for d in ds}
    )
    if not class_ids:
        return 0.0
    aps = []
    for thr in iou_thresholds:
        for c in class_ids:
            scores, tps, n_truth = [], [], 0
            for dets, truths in zip(all_detections, all_truths):
                dets_c = [d for d in dets if d.class_id == c]
                truths_c = [t for t in truths if t.class_id == c]
                tp, n = match(dets_c, truths_c, thr)
                tps.append(tp)
                scores.extend(-d.score for d in sorted(dets_c, key=lambda d: -d.score))
                n_truth += n
            if n_truth == 0:
                continue
            flat_tp = np.concatenate(tps) if tps else np.zeros(0, dtype=bool)
            if flat_tp.size == 0:
                aps.append(0.0)
                continue
            order = np.argsort(scores, kind="stable")
            flat_tp = flat_tp[order]
            cum_tp = np.cumsum(flat_tp)
            cum_fp = np.cumsum(~flat_tp)
            recalls = cum_tp / n_truth
            precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1)
            aps.append(average_precision(recalls, precisions))
    return float(np.mean(aps)) if aps else 0.0


def _random_detection_set(seed, n_images=24):
    """Truths of classes 1-4 (and 6, never detected); detections jittered
    around them plus clutter (and class 5, never true). Scores come from a
    small grid so ties within and across images are common."""
    rng = np.random.default_rng(seed)
    all_dets, all_truths = [], []
    for _ in range(n_images):
        truths = []
        for _ in range(rng.integers(0, 5)):
            y0, x0 = rng.uniform(0.0, 0.6, size=2)
            h, w = rng.uniform(0.1, 0.4, size=2)
            truths.append(_gt((y0, x0, y0 + h, x0 + w), int(rng.choice([1, 2, 3, 4, 6]))))
        dets = []
        for t in truths:
            for _ in range(rng.integers(0, 3)):
                box = np.asarray(t.box) + rng.normal(0.0, 0.05, size=4)
                cid = t.class_id if rng.random() < 0.8 else int(rng.integers(1, 6))
                if cid != 6:
                    dets.append(_det(box.tolist(), float(rng.choice([0.3, 0.5, 0.7, 0.9])), cid))
        for _ in range(rng.integers(0, 4)):
            y0, x0 = rng.uniform(0.0, 0.7, size=2)
            box = (y0, x0, y0 + 0.2, x0 + 0.2)
            dets.append(_det(box, float(rng.choice([0.3, 0.5, 0.7, 0.9])), int(rng.integers(1, 6))))
        all_dets.append(dets)
        all_truths.append(truths)
    return all_dets, all_truths


class TestCocoMapDifferential:
    """coco_map against the per-threshold loop it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets(self, seed):
        dets, truths = _random_detection_set(seed)
        got = coco_map(dets, truths)
        want = per_threshold_coco_map(dets, truths, COCO_IOU_THRESHOLDS)
        assert 0.0 < got < 1.0
        assert got.hex() == want.hex()

    def test_custom_thresholds(self):
        dets, truths = _random_detection_set(99)
        thresholds = np.array([0.1, 0.33, 0.5, 0.9])
        got = coco_map(dets, truths, iou_thresholds=thresholds)
        assert got.hex() == per_threshold_coco_map(dets, truths, thresholds).hex()

    def test_degenerate_sets(self):
        box = (0.1, 0.1, 0.4, 0.4)
        cases = [
            ([[], []], [[_gt(box, 1)], []]),                  # no detections at all
            ([[_det(box, 0.5, 2)], []], [[], []]),            # no truths at all
            ([[_det(box, 0.5, 1), _det(box, 0.5, 1)]], [[_gt(box, 1)]]),  # tied duplicate
            ([[], [_det(box, 0.9, 1)]], [[_gt(box, 1)], []]),  # truth and detection apart
            # IoU exactly 0.5 and 0.75: a match at those thresholds
            ([[_det((0.0, 0.0, 0.5, 1.0), 0.9, 1), _det((0.0, 0.0, 0.75, 1.0), 0.8, 1)]],
             [[_gt((0.0, 0.0, 1.0, 1.0), 1), _gt((0.0, 0.0, 1.0, 1.0), 1)]]),
            # twenty tied detections, a few of them hits, in score order
            ([[_det((0.0, 0.05 * i, 0.3, 0.05 * i + 0.3), 0.5, 1) for i in range(20)]],
             [[_gt((0.0, 0.25, 0.3, 0.55), 1), _gt((0.0, 0.7, 0.3, 1.0), 1)]]),
        ]
        for dets, truths in cases:
            got = coco_map(dets, truths)
            assert got.hex() == per_threshold_coco_map(dets, truths, COCO_IOU_THRESHOLDS).hex()


class TestMiou:
    def test_perfect(self):
        conf = confusion_matrix(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        assert miou(conf) == 1.0

    def test_known_value(self):
        # 2 classes: class0 1 correct of 2 union-members, class1 1/2
        pred = np.array([0, 1])
        truth = np.array([0, 0])
        conf = confusion_matrix(pred, truth, 2)
        # class0: inter 1, union 2 -> 0.5 ; class1: inter 0, union 1 -> 0
        assert miou(conf) == pytest.approx(0.25)

    def test_absent_classes_excluded(self):
        conf = confusion_matrix(np.array([0, 0]), np.array([0, 0]), 5)
        assert miou(conf) == 1.0  # only class 0 present

    def test_other_bucket_ignored(self):
        preds = [np.array([[0, 1], [2, 3]])]
        truths = [np.array([[0, 1], [2, 3]])]
        # class 3 is "other" in a 4-class problem: perfect elsewhere
        assert miou_frequent_classes(preds, truths, num_classes=4) == 1.0
        # mistakes on "other" pixels cost nothing
        preds_bad_other = [np.array([[0, 1], [2, 0]])]
        assert miou_frequent_classes(preds_bad_other, truths, num_classes=4) == 1.0

    def test_empty_eval_raises(self):
        with pytest.raises(ValueError):
            miou(np.zeros((3, 3)))


class TestSquad:
    def test_exact_match(self):
        assert exact_match((3, 5), (3, 5)) == 1.0
        assert exact_match((3, 5), (3, 6)) == 0.0

    def test_f1_overlap(self):
        # pred [2,4], truth [3,5]: overlap 2 tokens, |p|=3, |t|=3 -> f1=2/3
        assert span_f1((2, 4), (3, 5)) == pytest.approx(2 / 3)

    def test_f1_disjoint(self):
        assert span_f1((0, 1), (5, 6)) == 0.0

    def test_f1_perfect(self):
        assert span_f1((7, 9), (7, 9)) == 1.0

    @given(st.integers(0, 30), st.integers(0, 10), st.integers(0, 30), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_f1_bounded_and_symmetric(self, s1, l1, s2, l2):
        a, b = (s1, s1 + l1), (s2, s2 + l2)
        f = span_f1(a, b)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(span_f1(b, a))

    def test_dataset_scores(self):
        preds = [(0, 2), (5, 7)]
        truths = [(0, 2), (6, 8)]
        scores = squad_scores(preds, truths)
        assert scores["exact_match"] == 50.0
        assert 50.0 < scores["f1"] < 100.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            squad_scores([], [])
