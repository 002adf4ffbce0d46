"""Pre/post-processing pipelines: preprocessing, anchors, NMS, spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipelines import (
    Detection,
    anchors_for_model,
    center_crop,
    classification_preprocess,
    decode_boxes,
    dense_preprocess,
    extract_answer_span,
    generate_ssd_anchors,
    iou_matrix,
    nms,
    normalize_image,
    postprocess_detections,
    resize_image,
    segmentation_map,
    top_k,
)
from repro.pipelines.detection import encode_boxes


class TestPreprocess:
    def test_normalize_range(self):
        img = np.array([[[0, 128, 255]]], dtype=np.uint8)
        out = normalize_image(img)
        assert out[0, 0, 0] == pytest.approx(-1.0)
        assert out[0, 0, 2] == pytest.approx(1.0, abs=0.01)

    def test_center_crop(self):
        img = np.arange(36).reshape(6, 6, 1)
        out = center_crop(img, 2, 2)
        np.testing.assert_array_equal(out[..., 0], [[14, 15], [20, 21]])

    def test_crop_too_large(self):
        with pytest.raises(ValueError):
            center_crop(np.zeros((4, 4, 3)), 8, 8)

    def test_classification_preprocess_shape(self, rng):
        img = rng.integers(0, 256, (50, 50, 3)).astype(np.uint8)
        out = classification_preprocess(img, 32)
        assert out.shape == (32, 32, 3)
        assert -1.01 <= out.min() and out.max() <= 1.01

    def test_dense_preprocess_shape(self, rng):
        img = rng.integers(0, 256, (70, 70, 3)).astype(np.uint8)
        assert dense_preprocess(img, 64).shape == (64, 64, 3)


class TestAnchors:
    def test_counts(self):
        anchors = generate_ssd_anchors([(4, 4), (2, 2)], aspect_ratios=(1.0, 2.0, 0.5))
        assert anchors.shape == ((16 + 4) * 4, 4)  # 3 aspects + extra scale

    def test_anchor_geometry_valid(self):
        anchors = generate_ssd_anchors([(3, 3)])
        assert np.all(anchors[:, 2:] > 0)  # positive h, w
        assert np.all((anchors[:, :2] >= 0) & (anchors[:, :2] <= 1))  # centers in image

    def test_scales_increase_with_coarseness(self):
        anchors = generate_ssd_anchors([(8, 8), (1, 1)])
        fine = anchors[: 8 * 8 * 4]
        coarse = anchors[8 * 8 * 4 :]
        assert coarse[:, 2].mean() > fine[:, 2].mean()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_ssd_anchors([])

    def test_anchors_for_model_matches_head_layout(self):
        cfg = {"feature_shapes": [(4, 4), (2, 2)], "anchors_per_cell": 4}
        anchors = anchors_for_model(cfg)
        assert len(anchors) == (16 + 4) * 4


class TestBoxCoding:
    @given(
        st.floats(0.05, 0.4), st.floats(0.05, 0.4),
        st.floats(0.2, 0.5), st.floats(0.2, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip(self, y0, x0, h, w):
        box = np.array([[y0, x0, min(y0 + h, 0.99), min(x0 + w, 0.99)]])
        anchor = np.array([[0.5, 0.5, 0.4, 0.4]], dtype=np.float32)
        enc = encode_boxes(box, anchor)
        dec = decode_boxes(enc, anchor)
        np.testing.assert_allclose(dec, box, atol=1e-3)

    def test_decode_clips_to_image(self):
        anchor = np.array([[0.9, 0.9, 0.5, 0.5]], dtype=np.float32)
        enc = np.array([[5.0, 5.0, 3.0, 3.0]], dtype=np.float32)
        dec = decode_boxes(enc, anchor)
        assert dec.min() >= 0 and dec.max() <= 1

    def test_zero_offsets_give_anchor(self):
        anchor = np.array([[0.5, 0.5, 0.2, 0.4]], dtype=np.float32)
        dec = decode_boxes(np.zeros((1, 4), dtype=np.float32), anchor)
        np.testing.assert_allclose(dec[0], [0.4, 0.3, 0.6, 0.7], atol=1e-6)


class TestIoU:
    def test_identical(self):
        b = np.array([[0.1, 0.1, 0.5, 0.5]])
        assert iou_matrix(b, b)[0, 0] == pytest.approx(1.0)

    def test_disjoint(self):
        a = np.array([[0.0, 0.0, 0.2, 0.2]])
        b = np.array([[0.5, 0.5, 0.9, 0.9]])
        assert iou_matrix(a, b)[0, 0] == 0.0

    def test_half_overlap(self):
        a = np.array([[0.0, 0.0, 1.0, 0.5]])
        b = np.array([[0.0, 0.0, 1.0, 1.0]])
        assert iou_matrix(a, b)[0, 0] == pytest.approx(0.5)

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, coords):
        y0, x0, y1, x1 = sorted(coords[:2]) + sorted(coords[2:])
        a = np.array([[y0, x0, y1, x1]])
        v = iou_matrix(a, a)[0, 0]
        assert 0.0 <= v <= 1.0


class TestNMS:
    def test_suppresses_overlaps(self):
        boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.12, 0.12, 0.52, 0.52],
                          [0.6, 0.6, 0.9, 0.9]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert list(keep) == [0, 2]

    def test_keeps_all_disjoint(self):
        boxes = np.array([[0, 0, 0.2, 0.2], [0.4, 0.4, 0.6, 0.6], [0.8, 0.8, 1, 1]])
        keep = nms(boxes, np.array([0.5, 0.9, 0.7]))
        assert sorted(keep) == [0, 1, 2]
        assert keep[0] == 1  # highest score first

    def test_max_outputs(self):
        boxes = np.array([[0, 0, 0.1, 0.1], [0.2, 0.2, 0.3, 0.3], [0.5, 0.5, 0.6, 0.6]])
        keep = nms(boxes, np.array([0.9, 0.8, 0.7]), max_outputs=2)
        assert len(keep) == 2

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_selected_pairwise_below_threshold(self, n):
        rng = np.random.default_rng(n)
        cy, cx = rng.uniform(0.2, 0.8, (2, n))
        h = w = rng.uniform(0.05, 0.3, n)
        boxes = np.stack([cy - h / 2, cx - w / 2, cy + h / 2, cx + w / 2], axis=1)
        scores = rng.uniform(0, 1, n)
        keep = nms(boxes, scores, iou_threshold=0.4)
        kept = boxes[keep]
        ious = iou_matrix(kept, kept)
        np.fill_diagonal(ious, 0)
        assert ious.max() <= 0.4 + 1e-9


class TestPostprocessDetections:
    def test_threshold_and_background(self):
        anchors = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]], dtype=np.float32)
        scores = np.array([[0.9, 0.2], [0.1, 0.8]], dtype=np.float32)  # classes {0=bg, 1}
        boxes = np.zeros((2, 4), dtype=np.float32)
        dets = postprocess_detections(scores, boxes, anchors, score_threshold=0.5)
        # only the class-1 detection at anchor 1 survives (class 0 is background)
        assert len(dets) == 1 and dets[0].class_id == 1

    def test_sorted_by_score(self):
        anchors = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]], dtype=np.float32)
        scores = np.array([[0.0, 0.6], [0.0, 0.9]], dtype=np.float32)
        boxes = np.zeros((2, 4), dtype=np.float32)
        dets = postprocess_detections(scores, boxes, anchors, score_threshold=0.5)
        assert dets[0].score >= dets[1].score


class TestTopK:
    def test_ordering(self):
        probs = np.array([0.1, 0.5, 0.2, 0.15, 0.05])
        assert list(top_k(probs, 3)) == [1, 2, 3]

    def test_k_larger_than_classes(self):
        probs = np.array([0.6, 0.4])
        assert len(top_k(probs, 10)) == 2


class TestSegmentationMap:
    def test_argmax(self, rng):
        logits = rng.normal(size=(4, 4, 3)).astype(np.float32)
        out = segmentation_map(logits)
        np.testing.assert_array_equal(out, logits.argmax(-1))
        assert out.dtype == np.int32


class TestAnswerSpan:
    def test_picks_best_pair(self):
        start = np.array([0.0, 5.0, 0.0, 0.0])
        end = np.array([0.0, 0.0, 4.0, 0.0])
        assert extract_answer_span(start, end) == (1, 2)

    def test_respects_context_start(self):
        start = np.array([10.0, 0.0, 3.0, 0.0])
        end = np.array([10.0, 0.0, 3.0, 0.0])
        span = extract_answer_span(start, end, context_start=2)
        assert span[0] >= 2

    def test_max_answer_length(self):
        start = np.zeros(20); start[0] = 5
        end = np.zeros(20); end[19] = 5
        s, e = extract_answer_span(start, end, max_answer_length=4)
        assert e - s < 4

    def test_start_le_end_always(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s_logits = rng.normal(size=16)
            e_logits = rng.normal(size=16)
            s, e = extract_answer_span(s_logits, e_logits)
            assert s <= e

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            extract_answer_span(np.array([]), np.array([]))
