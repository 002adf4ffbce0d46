"""Class-structured synthetic scenes with exact ground truth.

These generators produce the *content* the benchmark's data sets stand in
for: classification images drawn from per-class prototypes, detection scenes
containing textured rectangular objects at known boxes, segmentation scenes
with region maps, and SQuAD-style token sequences. Reference-model heads are
fitted against training draws from these generators (models/fitting.py), so
quality metrics measure genuine signal recovery — and quantization error
genuinely costs accuracy near decision boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.pooling import resize_bilinear

__all__ = [
    "smooth_field",
    "class_prototypes",
    "classification_scene_batch",
    "DetectionObject",
    "detection_scene_batch",
    "segmentation_scene_batch",
    "token_sequence_batch",
    "speech_sequence_batch",
    "super_resolution_batch",
]


def smooth_field(rng: np.random.Generator, n: int, h: int, w: int,
                 channels: int = 3, smoothness: int = 4) -> np.ndarray:
    """Low-frequency random fields, the texture basis of every scene."""
    bh, bw = max(2, h // smoothness), max(2, w // smoothness)
    low = rng.normal(0.0, 1.0, size=(n, bh, bw, channels)).astype(np.float32)
    return resize_bilinear(low, h, w)


def class_prototypes(num_classes: int, h: int, w: int, seed: int,
                     channels: int = 3, components: int = 4,
                     texture_scale: float = 0.45, color_scale: float = 1.0,
                     freq_range: tuple[float, float] = (4.0, 20.0)) -> np.ndarray:
    """One fixed *textural* prototype per class: (K, h, w, C).

    Each class is a sum of oriented sinusoidal gratings with class-specific
    frequencies, phases and color directions. Texture (not spatial layout)
    carries class identity because convolutional features — especially after
    global pooling — are statistics of local structure; two classes that
    differ only in where things are would be indistinguishable to them.
    """
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None]
    xs = np.linspace(0.0, 1.0, w, dtype=np.float32)[None, :]
    casts = _separated_colors(num_classes, channels, rng)
    protos = np.zeros((num_classes, h, w, channels), dtype=np.float32)
    for c in range(num_classes):
        for _ in range(components):
            # mid-to-high frequencies: the texture period must fit inside a
            # small receptive field so *local* features can identify the class
            # (dense-prediction heads never see global context)
            fy, fx = rng.uniform(*freq_range, size=2)
            phase = rng.uniform(0.0, 2 * np.pi)
            color = rng.normal(0.0, 1.0, channels).astype(np.float32)
            wave = np.sin(2 * np.pi * (fy * ys + fx * xs) + phase)
            protos[c] += wave[..., None] * color
        protos[c] *= texture_scale / max(protos[c].std(), 1e-6)
        # class-specific color cast: a zeroth-order local cue. Dense tasks
        # use color-dominant prototypes (single pixels carry identity);
        # classification uses texture-dominant ones (identity lives in the
        # statistics that survive global pooling).
        protos[c] += casts[c] * color_scale
    return protos


def _separated_colors(k: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point sampling of k well-separated color casts.

    Random color means collide badly in 3-D color space; max-min-distance
    casts keep the scene's own Bayes error low so model accuracy is limited
    by the model, not by an unwinnable generator.
    """
    candidates = rng.uniform(-1.3, 1.3, size=(max(64, 8 * k), channels)).astype(np.float32)
    picks = [0]
    # each candidate's distance to its nearest chosen cast, updated per pick
    nearest = np.full(len(candidates), np.inf, dtype=np.float32)
    for _ in range(k - 1):
        nearest = np.minimum(nearest, np.linalg.norm(candidates - candidates[picks[-1]], axis=-1))
        picks.append(int(nearest.argmax()))
    return candidates[picks]


def _add_pixel_noise(rng: np.random.Generator, images: np.ndarray) -> None:
    """Add N(0, 0.15) pixel noise to a float32 batch in place, image by image.

    The generator fills normals sequentially, so per-image draws are the
    same values in the same order as one whole-batch draw, and leave the
    generator in the same state, without a batch-sized float64 temporary.
    """
    for image in images:
        image += rng.normal(0, 0.15, size=image.shape).astype(np.float32)


def _to_uint8(field: np.ndarray) -> np.ndarray:
    """Fixed affine mapping to pixel space.

    Deliberately *not* per-image min/max normalization: a fixed mapping keeps
    every class's color/texture signature at a stable pixel magnitude, the way
    real photographs keep object appearance independent of scene composition.
    """
    return np.clip(field * 48.0 + 128.0, 0.0, 255.0).astype(np.uint8)


def classification_scene_batch(
    n: int,
    size: int,
    num_classes: int,
    seed: int,
    *,
    signal: float = 1.0,
    noise: float = 1.0,
    prototype_seed: int = 9000,
) -> tuple[np.ndarray, np.ndarray]:
    """(images uint8 (n, size, size, 3), labels (n,)).

    image = signal * prototype[label] + noise * fresh smooth field; the
    signal/noise ratio controls achievable Top-1, tuned so FP32 lands near
    the paper's 76.19% reference point.
    """
    rng = np.random.default_rng(seed)
    # lower-frequency, texture-dominant prototypes: global pooling keeps
    # coarse texture statistics, and the stem's stride-2 aliases fine detail
    protos = class_prototypes(
        num_classes, size, size, prototype_seed,
        texture_scale=1.0, color_scale=0.5, freq_range=(2.0, 10.0),
    )
    labels = rng.integers(0, num_classes, size=n)
    fields = signal * protos[labels] + noise * smooth_field(rng, n, size, size)
    _add_pixel_noise(rng, fields)
    return _to_uint8(fields), labels.astype(np.int64)


@dataclass(frozen=True)
class DetectionObject:
    """Ground-truth object in normalized (ymin, xmin, ymax, xmax) coords."""

    box: tuple[float, float, float, float]
    class_id: int


def detection_scene_batch(
    n: int,
    size: int,
    num_classes: int,
    seed: int,
    *,
    max_objects: int = 3,
    scales: tuple[float, ...] = (0.22, 0.33, 0.57, 0.9),
    aspect_ratios: tuple[float, ...] = (1.0,),
    shape_jitter: float = 0.05,
    signal: float = 2.0,
    prototype_seed: int = 9100,
) -> tuple[np.ndarray, list[list[DetectionObject]]]:
    """Scenes of textured rectangles. Class ids run 1..num_classes-1 (0 = bg).

    Object shapes are sampled near the benchmark's anchor scales/aspects
    (with multiplicative ``shape_jitter``) — mirroring how SSD anchor
    configurations are designed to cover their dataset's box statistics.
    """
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, size, size, prototype_seed)
    images = smooth_field(rng, n, size, size)
    truths: list[list[DetectionObject]] = []
    for i in range(n):
        objects: list[DetectionObject] = []
        for _ in range(int(rng.integers(1, max_objects + 1))):
            scale = rng.choice(scales) * rng.uniform(1 - shape_jitter, 1 + shape_jitter)
            ar = rng.choice(aspect_ratios) * rng.uniform(1 - shape_jitter, 1 + shape_jitter)
            h = min(scale / np.sqrt(ar), 0.95)
            w = min(scale * np.sqrt(ar), 0.95)
            cy = rng.uniform(h / 2, 1 - h / 2)
            cx = rng.uniform(w / 2, 1 - w / 2)
            c = int(rng.integers(1, num_classes))
            y0, y1 = int((cy - h / 2) * size), int((cy + h / 2) * size)
            x0, x1 = int((cx - w / 2) * size), int((cx + w / 2) * size)
            # 0 <= y0 and y1 <= size, since cy lies in [h/2, 1 - h/2] (same for x)
            box = images[i, y0:y1, x0:x1]
            box[...] = box * 0.3 + signal * protos[c, y0:y1, x0:x1]
            objects.append(DetectionObject((cy - h / 2, cx - w / 2, cy + h / 2, cx + w / 2), c))
        truths.append(objects)
    _add_pixel_noise(rng, images)
    return _to_uint8(images), truths


def segmentation_scene_batch(
    n: int,
    size: int,
    num_classes: int,
    seed: int,
    *,
    regions: int = 3,
    other_prob: float = 0.12,
    signal: float = 2.5,
    prototype_seed: int = 9200,
) -> tuple[np.ndarray, np.ndarray]:
    """Voronoi-region scenes. Returns (images uint8, label maps (n, size, size)).

    The last class index is the "other" bucket the 32-class metric ignores.
    """
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, size, size, prototype_seed)
    images = smooth_field(rng, n, size, size)
    labels = np.empty((n, size, size), dtype=np.int32)
    ys, xs = np.mgrid[0:size, 0:size]
    for i in range(n):
        centers = rng.uniform(0, size, size=(regions, 2))
        d2 = (ys[..., None] - centers[:, 0]) ** 2 + (xs[..., None] - centers[:, 1]) ** 2
        region_of_pixel = d2.argmin(axis=-1)
        region_classes = rng.integers(0, num_classes - 1, size=regions)
        is_other = rng.random(regions) < other_prob
        region_classes[is_other] = num_classes - 1
        label = region_classes[region_of_pixel]
        labels[i] = label
        images[i] = images[i] * 0.4 + signal * np.take_along_axis(
            protos, label[None, ..., None], axis=0
        )[0]
    _add_pixel_noise(rng, images)
    return _to_uint8(images), labels


def token_sequence_batch(
    n: int,
    seq_len: int,
    vocab_size: int,
    seed: int,
    *,
    cls_id: int = 1,
    sep_id: int = 2,
    min_question: int = 6,
    max_question: int = 14,
    reserved: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SQuAD-style sequences: [CLS] question [SEP] passage [SEP].

    Returns (ids (n, seq_len) float32, mask (n, seq_len), context_start (n,)).
    """
    rng = np.random.default_rng(seed)
    ids = np.zeros((n, seq_len), dtype=np.float32)
    mask = np.zeros((n, seq_len), dtype=np.float32)
    context_start = np.zeros(n, dtype=np.int64)
    for i in range(n):
        q_len = int(rng.integers(min_question, max_question + 1))
        total = int(rng.integers(seq_len * 3 // 4, seq_len + 1))
        seq = np.full(total, sep_id, dtype=np.float32)
        seq[0] = cls_id
        seq[1 : 1 + q_len] = rng.integers(reserved, vocab_size, q_len)
        passage_start = q_len + 2  # after [CLS] question [SEP]
        seq[1 + q_len] = sep_id
        seq[passage_start : total - 1] = rng.integers(reserved, vocab_size, total - 1 - passage_start)
        ids[i, :total] = seq
        mask[i, :total] = 1.0
        context_start[i] = passage_start
    return ids, mask, context_start


def speech_sequence_batch(
    n: int,
    num_frames: int,
    feature_dim: int,
    vocab_size: int,
    seed: int,
    *,
    min_tokens: int = 4,
    max_tokens: int = 9,
    noise: float = 0.3,
    prototype_seed: int = 9300,
) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
    """Synthetic streaming-speech features (paper App. E speech task).

    Each utterance is a sequence of tokens; every token occupies a random
    span of frames rendered as that token's feature-space prototype plus
    noise. Adjacent tokens are always distinct (so CTC-style collapse is
    unambiguous). Returns (features (n, T, F), token transcripts, per-frame
    labels (n, T) with the frame's token id).
    """
    rng = np.random.default_rng(seed)
    proto_rng = np.random.default_rng(prototype_seed)
    prototypes = proto_rng.normal(0.0, 1.0, size=(vocab_size, feature_dim)).astype(np.float32)
    feats = np.empty((n, num_frames, feature_dim), dtype=np.float32)
    frame_labels = np.empty((n, num_frames), dtype=np.int64)
    transcripts: list[list[int]] = []
    for i in range(n):
        n_tokens = int(rng.integers(min_tokens, max_tokens + 1))
        tokens: list[int] = []
        for _ in range(n_tokens):
            t = int(rng.integers(0, vocab_size))
            while tokens and t == tokens[-1]:
                t = int(rng.integers(0, vocab_size))
            tokens.append(t)
        # random (positive) durations summing to num_frames
        cuts = np.sort(rng.choice(np.arange(1, num_frames), size=n_tokens - 1, replace=False))
        bounds = np.concatenate([[0], cuts, [num_frames]])
        for tok, lo, hi in zip(tokens, bounds[:-1], bounds[1:]):
            frame_labels[i, lo:hi] = tok
            feats[i, lo:hi] = prototypes[tok]
        transcripts.append(tokens)
    feats += rng.normal(0.0, noise, size=feats.shape).astype(np.float32)
    return feats, transcripts, frame_labels


def super_resolution_batch(
    n: int,
    hr_size: int,
    scale: int,
    seed: int,
    *,
    num_classes: int = 16,
    prototype_seed: int = 9400,
) -> tuple[np.ndarray, np.ndarray]:
    """(LR uint8 (n, hr/scale, hr/scale, 3), HR uint8 (n, hr, hr, 3)).

    HR images are textured scenes; LR inputs are their bilinear
    downsamples — the standard SR training construction.
    """
    rng = np.random.default_rng(seed)
    protos = class_prototypes(num_classes, hr_size, hr_size, prototype_seed)
    labels = rng.integers(0, num_classes, size=n)
    fields = protos[labels] + 0.6 * smooth_field(rng, n, hr_size, hr_size)
    hr = _to_uint8(fields)
    lr_f = resize_bilinear(hr.astype(np.float32), hr_size // scale, hr_size // scale)
    lr = np.clip(lr_f, 0, 255).astype(np.uint8)
    return lr, hr
