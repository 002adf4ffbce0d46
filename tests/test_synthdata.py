"""Synthetic scene generators: shapes, determinism, ground-truth validity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthdata import (
    class_prototypes,
    classification_scene_batch,
    detection_scene_batch,
    segmentation_scene_batch,
    smooth_field,
    token_sequence_batch,
)


class TestPrototypes:
    def test_shape_and_determinism(self):
        a = class_prototypes(5, 16, 16, seed=1)
        b = class_prototypes(5, 16, 16, seed=1)
        assert a.shape == (5, 16, 16, 3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_classes(self):
        protos = class_prototypes(8, 16, 16, seed=2)
        dists = [
            np.abs(protos[i] - protos[j]).mean()
            for i in range(8) for j in range(i + 1, 8)
        ]
        assert min(dists) > 0.1

    def test_color_scale_shifts_means(self):
        flat = class_prototypes(6, 8, 8, seed=3, color_scale=2.0)
        tame = class_prototypes(6, 8, 8, seed=3, color_scale=0.0)
        assert np.abs(flat.mean(axis=(1, 2))).mean() > np.abs(tame.mean(axis=(1, 2))).mean()


def brute_force_separated_colors(k, channels, rng):
    """Farthest-point sampling that re-measures every chosen color per step."""
    candidates = rng.uniform(-1.3, 1.3, size=(max(64, 8 * k), channels)).astype(np.float32)
    chosen = [candidates[0]]
    for _ in range(k - 1):
        d = np.min(
            np.linalg.norm(candidates[:, None] - np.asarray(chosen)[None], axis=-1), axis=1
        )
        chosen.append(candidates[int(d.argmax())])
    return np.asarray(chosen, dtype=np.float32)


class TestSeparatedColors:
    @pytest.mark.parametrize("k", [1, 2, 11, 12, 100])
    def test_matches_brute_force(self, k):
        from repro.synthdata.scenes import _separated_colors

        rng_fast, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        got = _separated_colors(k, 3, rng_fast)
        want = brute_force_separated_colors(k, 3, rng_ref)
        assert got.dtype == np.float32 and got.shape == (k, 3)
        assert got.tobytes() == want.tobytes()
        # the caller keeps drawing from the same generator
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


def test_pixel_noise_matches_whole_batch_draw():
    from repro.synthdata.scenes import _add_pixel_noise

    images = np.random.default_rng(0).normal(size=(5, 9, 7, 3)).astype(np.float32)
    rng_fast, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    got = images.copy()
    _add_pixel_noise(rng_fast, got)
    want = images + rng_ref.normal(0, 0.15, size=images.shape).astype(np.float32)
    assert got.tobytes() == want.tobytes()
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestClassificationScenes:
    def test_output_types(self):
        imgs, labels = classification_scene_batch(10, 24, 7, seed=5)
        assert imgs.shape == (10, 24, 24, 3) and imgs.dtype == np.uint8
        assert labels.shape == (10,) and labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 7

    def test_seed_determinism(self):
        a = classification_scene_batch(4, 16, 5, seed=9)
        b = classification_scene_batch(4, 16, 5, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a, _ = classification_scene_batch(4, 16, 5, seed=9)
        b, _ = classification_scene_batch(4, 16, 5, seed=10)
        assert not np.array_equal(a, b)

    def test_signal_beats_noise(self):
        """Same-class images correlate more than cross-class ones."""
        imgs, labels = classification_scene_batch(200, 16, 4, seed=11, noise=0.3)
        x = imgs.reshape(200, -1).astype(np.float64)
        x -= x.mean(axis=0)
        same, diff = [], []
        for i in range(0, 60):
            for j in range(i + 1, 60):
                c = float(np.dot(x[i], x[j]) / (np.linalg.norm(x[i]) * np.linalg.norm(x[j]) + 1e-9))
                (same if labels[i] == labels[j] else diff).append(c)
        assert np.mean(same) > np.mean(diff) + 0.1


class TestDetectionScenes:
    def test_boxes_valid(self):
        _, truths = detection_scene_batch(20, 48, 11, seed=12)
        assert len(truths) == 20
        for objs in truths:
            assert 1 <= len(objs) <= 3
            for o in objs:
                y0, x0, y1, x1 = o.box
                assert 0 <= y0 < y1 <= 1 and 0 <= x0 < x1 <= 1
                assert 1 <= o.class_id < 11  # class 0 is background

    def test_object_region_textured(self):
        imgs, truths = detection_scene_batch(6, 64, 5, seed=13)
        for img, objs in zip(imgs, truths):
            o = objs[0]
            y0, x0, y1, x1 = (int(v * 64) for v in o.box)
            inside = img[y0:y1, x0:x1].astype(np.float64)
            assert inside.size > 0


class TestSegmentationScenes:
    def test_labels_valid(self):
        imgs, labels = segmentation_scene_batch(8, 32, 12, seed=14)
        assert labels.shape == (8, 32, 32)
        assert labels.min() >= 0 and labels.max() < 12

    def test_regions_contiguous(self):
        """Voronoi regions: each image has few distinct labels."""
        _, labels = segmentation_scene_batch(5, 32, 12, seed=15, regions=3)
        for lab in labels:
            assert len(np.unique(lab)) <= 3

    def test_other_class_appears(self):
        _, labels = segmentation_scene_batch(40, 32, 12, seed=16, other_prob=0.5)
        assert (labels == 11).any()


class TestTokenSequences:
    def test_structure(self):
        ids, mask, ctx = token_sequence_batch(10, 48, 500, seed=17)
        assert ids.shape == mask.shape == (10, 48)
        for i in range(10):
            n = int(mask[i].sum())
            assert ids[i, 0] == 1  # [CLS]
            assert ids[i, n - 1] == 2  # trailing [SEP]
            assert int(ctx[i]) >= 8  # after [CLS] + question + [SEP]
            assert ids[i, int(ctx[i]) - 1] == 2  # [SEP] before passage
            assert np.all(ids[i, n:] == 0)  # padded

    @given(st.integers(32, 96), st.integers(100, 2000))
    @settings(max_examples=15, deadline=None)
    def test_ids_in_vocab(self, seq_len, vocab):
        ids, mask, _ = token_sequence_batch(4, seq_len, vocab, seed=18)
        assert ids.max() < vocab and ids.min() >= 0


class TestSmoothField:
    def test_spatial_correlation(self):
        rng = np.random.default_rng(0)
        field = smooth_field(rng, 1, 32, 32)
        # neighbouring pixels correlate strongly vs white noise
        diff = np.abs(np.diff(field[0], axis=0)).mean()
        assert diff < field[0].std()
