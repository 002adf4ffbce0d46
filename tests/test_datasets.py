"""Synthetic datasets: generation, evaluation semantics, calibration."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_REGISTRY,
    DEFAULT_SIZES,
    IndexDataset,
    SyntheticADE20K,
    SyntheticCOCO,
    create_dataset,
)
from repro.metrics import GroundTruthBox
from repro.models import create_reference_model


class TestRegistry:
    def test_registry_complete(self):
        assert set(DATASET_REGISTRY) == {
            "imagenet", "coco", "ade20k", "squad", "speech", "superres"
        }
        assert set(DEFAULT_SIZES) == set(DATASET_REGISTRY)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            create_dataset("cifar", None, {})

    def test_squad_requires_oracle(self, qa_bundle):
        with pytest.raises(ValueError):
            create_dataset("squad", None, qa_bundle.config)


class TestImageNet:
    def test_shapes_and_labels(self, cls_dataset, cls_bundle):
        assert len(cls_dataset) == 96
        size = cls_bundle.config["input_size"]
        feed = cls_dataset.input_batch(np.arange(4))
        assert feed["images"].shape == (4, size, size, 3)
        assert 0 <= cls_dataset.ground_truth(0) < cls_bundle.config["num_classes"]

    def test_perfect_predictions_score_100(self, cls_dataset):
        preds = {i: cls_dataset.ground_truth(i) for i in range(len(cls_dataset))}
        assert cls_dataset.evaluate(preds)["top1"] == 100.0

    def test_wrong_predictions_score_low(self, cls_dataset, cls_bundle):
        k = cls_bundle.config["num_classes"]
        preds = {i: (cls_dataset.ground_truth(i) + 1) % k for i in range(len(cls_dataset))}
        assert cls_dataset.evaluate(preds)["top1"] == 0.0

    def test_calibration_disjoint_from_validation(self, cls_dataset):
        batches = cls_dataset.calibration_batches()
        cal = np.concatenate([b["images"] for b in batches])
        assert len(cal) == 128
        # different seed stream: calibration images differ from validation
        assert not np.array_equal(cal[0], cls_dataset.feeds["images"][0])

    def test_postprocess_argmax(self, cls_dataset, cls_bundle):
        k = cls_bundle.config["num_classes"]
        probs = np.zeros(k, dtype=np.float32)
        probs[7] = 1.0
        assert cls_dataset.postprocess({"probs": probs}, 0) == 7

    def test_determinism(self, cls_bundle, cls_exported):
        a = create_dataset("imagenet", cls_exported, cls_bundle.config, size=16)
        b = create_dataset("imagenet", cls_exported, cls_bundle.config, size=16)
        np.testing.assert_array_equal(a.feeds["images"], b.feeds["images"])
        np.testing.assert_array_equal(a.truths, b.truths)


class TestCOCO:
    @pytest.fixture(scope="class")
    def det(self):
        bundle = create_reference_model("ssd_mobilenet_v2")
        ds = create_dataset("coco", None, bundle.config, size=16)
        return bundle, ds

    def test_truths_valid(self, det):
        _, ds = det
        for i in range(len(ds)):
            for box in ds.ground_truth(i):
                assert isinstance(box, GroundTruthBox)
                y0, x0, y1, x1 = box.box
                assert y0 < y1 and x0 < x1

    def test_perfect_predictions_high_map(self, det):
        from repro.pipelines.detection import Detection

        _, ds = det
        preds = {
            i: [Detection(t.box, 0.95, t.class_id) for t in ds.ground_truth(i)]
            for i in range(len(ds))
        }
        assert ds.evaluate(preds)["mAP"] > 95.0

    def test_no_predictions_zero(self, det):
        _, ds = det
        preds = {i: [] for i in range(len(ds))}
        assert ds.evaluate(preds)["mAP"] == 0.0


class TestADE20K:
    @pytest.fixture(scope="class")
    def seg(self):
        bundle = create_reference_model("deeplab_v3plus")
        ds = create_dataset("ade20k", None, bundle.config, size=8)
        return bundle, ds

    def test_label_alignment(self, seg):
        bundle, ds = seg
        size = bundle.config["input_size"]
        assert ds.truths.shape == (8, size, size)

    def test_perfect_prediction(self, seg):
        _, ds = seg
        preds = {i: ds.ground_truth(i) for i in range(len(ds))}
        assert ds.evaluate(preds)["mIoU"] == 100.0

    def test_inverted_prediction_low(self, seg):
        bundle, ds = seg
        k = bundle.config["num_classes"]
        preds = {i: (ds.ground_truth(i) + 1) % k for i in range(len(ds))}
        assert ds.evaluate(preds)["mIoU"] < 10.0


class TestSQuAD:
    def test_oracle_fidelity_bounds_f1(self, qa_dataset):
        # predicting the ground truth exactly scores 100
        preds = {i: qa_dataset.ground_truth(i) for i in range(len(qa_dataset))}
        scores = qa_dataset.evaluate(preds)
        assert scores["f1"] == 100.0 and scores["exact_match"] == 100.0

    def test_input_batch(self, qa_dataset, qa_bundle):
        feed = qa_dataset.input_batch(np.arange(3))
        assert feed["input_ids"].shape == (3, qa_bundle.config["seq_len"])
        assert set(feed) == {"input_ids", "input_mask"}

    def test_spans_inside_context(self, qa_dataset):
        for i in range(len(qa_dataset)):
            s, e = qa_dataset.ground_truth(i)
            assert s <= e
            assert s >= int(qa_dataset.context_starts[i])


class TestIndexDataset:
    def test_minimal_surface(self):
        ds = IndexDataset(32)
        assert len(ds) == 32
        feed = ds.input_batch(np.array([1, 5]))
        np.testing.assert_array_equal(feed["index"], [1, 5])
        with pytest.raises(NotImplementedError):
            ds.ground_truth(0)
        with pytest.raises(NotImplementedError):
            ds.evaluate({})
