"""SSD anchor (default box) generation.

Anchors are expressed in normalized center-size form (cy, cx, h, w) in
[0, 1] image coordinates, laid out feature-map-major then row-major then
per-cell anchor index — matching how the model heads flatten their outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_ssd_anchors", "anchors_for_model"]

# anchor scales run linearly from the finest map's to the coarsest map's
_MIN_SCALE = 0.2
_MAX_SCALE = 0.9


def generate_ssd_anchors(
    feature_shapes: list[tuple[int, int]],
    *,
    aspect_ratios: tuple[float, ...] = (1.0, 2.0, 0.5),
    extra_scale_anchor: bool = True,
) -> np.ndarray:
    """Build the (A, 4) anchor grid over every feature map.

    Scales interpolate linearly from 0.2 (finest map) to 0.9 (coarsest),
    one scale per map. Each cell gets one anchor
    per aspect ratio plus — per the standard SSD recipe — an extra square
    anchor at the geometric-mean scale sqrt(s_k * s_{k+1}), which fills the
    coverage gap between consecutive maps.
    """
    if not feature_shapes:
        raise ValueError("need at least one feature map")
    n_maps = len(feature_shapes)
    if n_maps == 1:
        scales = [_MIN_SCALE, _MAX_SCALE]
    else:
        scales = [_MIN_SCALE + (_MAX_SCALE - _MIN_SCALE) * i / (n_maps - 1)
                  for i in range(n_maps)]
        scales.append(1.0)
    boxes = []
    for m, (fh, fw) in enumerate(feature_shapes):
        scale = scales[m]
        cell_anchors = [(scale / np.sqrt(ar), scale * np.sqrt(ar)) for ar in aspect_ratios]
        if extra_scale_anchor:
            s_extra = np.sqrt(scale * scales[m + 1])
            cell_anchors.append((s_extra, s_extra))
        cy = (np.arange(fh) + 0.5) / fh
        cx = (np.arange(fw) + 0.5) / fw
        grid_y, grid_x = np.meshgrid(cy, cx, indexing="ij")
        for gy, gx in zip(grid_y.ravel(), grid_x.ravel()):
            for h, w in cell_anchors:
                boxes.append((gy, gx, h, w))
    return np.asarray(boxes, dtype=np.float32)


def anchors_for_model(config: dict) -> np.ndarray:
    """Generate the anchors matching a detection ModelBundle's config."""
    a = config["anchors_per_cell"]
    return generate_ssd_anchors(
        [tuple(s) for s in config["feature_shapes"]],
        aspect_ratios=tuple([1.0, 2.0, 0.5][: a - 1]) if a > 1 else (1.0,),
        extra_scale_anchor=a > 1,
    )
