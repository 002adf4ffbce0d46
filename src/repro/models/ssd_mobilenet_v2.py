"""SSD-MobileNet v2 — the v0.7 object-detection reference model.

MobileNet v2 feature extraction with SSDLite heads (depthwise 3x3 followed
by a 1x1 projection), multi-resolution feature maps, per-anchor class logits
and box encodings. Decode + NMS live in :mod:`repro.pipelines.detection`.
"""

from __future__ import annotations

from ..graph.builder import GraphBuilder
from .backbones import mobilenet_v2_backbone
from .common import (
    ModelBundle,
    calibrate_batch_norms,
    probe_images,
    round_channels,
    standardize_head,
)

__all__ = ["create_ssd_mobilenet_v2", "attach_ssd_heads", "ssd_detector"]


def attach_ssd_heads(
    b: GraphBuilder,
    feature_maps: list[str],
    *,
    num_classes: int,
    anchors_per_cell: int,
) -> tuple[str, str]:
    """Attach SSDLite heads to each feature map.

    Returns (class_logits, box_encodings); logits are (batch, total_anchors,
    num_classes), boxes are (batch, total_anchors, 4).
    """
    cls_parts, box_parts = [], []
    for i, fmap in enumerate(feature_maps):
        _, fh, fw, _ = b.graph.spec(fmap).shape
        # SSDLite: depthwise 3x3 then 1x1 projection instead of full 3x3
        cls_mid = b.dwconv(fmap, k=3, activation="relu6", use_bn=True, name=f"cls_head_{i}/dw")
        cls = b.conv(cls_mid, anchors_per_cell * num_classes, k=1, name=f"cls_head_{i}/pw")
        cls = b.reshape(cls, (fh * fw * anchors_per_cell, num_classes), name=f"cls_head_{i}/flat")
        cls_parts.append(cls)

        box_mid = b.dwconv(fmap, k=3, activation="relu6", use_bn=True, name=f"box_head_{i}/dw")
        box = b.conv(box_mid, anchors_per_cell * 4, k=1, name=f"box_head_{i}/pw")
        box = b.reshape(box, (fh * fw * anchors_per_cell, 4), name=f"box_head_{i}/flat")
        box_parts.append(box)

    class_logits = b.concat(cls_parts, axis=1, name="class_logits") if len(cls_parts) > 1 else cls_parts[0]
    box_encodings = b.concat(box_parts, axis=1, name="box_encodings") if len(box_parts) > 1 else box_parts[0]
    return class_logits, box_encodings


def ssd_detector(
    b: GraphBuilder,
    images: str,
    endpoints: dict[int, str],
    extra_widths: tuple[int, ...],
    *,
    reference: str,
    width: float,
    num_classes: int,
    anchors_per_cell: int,
    seed: int,
    materialize: bool,
) -> ModelBundle:
    """Finish an SSD detector on a backbone's stride-16/32 ``endpoints``.

    Adds one extra feature layer per entry of ``extra_widths`` (1x1 squeeze,
    3x3 stride-2 expand) while the map can still halve, SSDLite heads on
    every feature map and sigmoid class scores. A materialized graph then
    gets its batch norms calibrated and its heads standardized on a probe
    batch drawn from ``seed + 1``.
    """
    feature_maps = [endpoints[16], endpoints[32]]
    h = endpoints[32]
    for i, c in enumerate(extra_widths):
        if b.graph.spec(h).shape[1] < 2:
            break  # feature map too small to halve again (scaled variants)
        h = b.conv(h, round_channels(c * width / 2), k=1, activation="relu6", use_bn=True,
                   name=f"extra_{i}/squeeze")
        h = b.conv(h, round_channels(c * width), k=3, stride=2, activation="relu6", use_bn=True,
                   name=f"extra_{i}/expand")
        feature_maps.append(h)

    class_logits, box_encodings = attach_ssd_heads(
        b, feature_maps, num_classes=num_classes, anchors_per_cell=anchors_per_cell
    )
    scores = b.activation(class_logits, "sigmoid", name="class_scores")
    b.outputs(scores, box_encodings)
    graph = b.build()

    feature_shapes = [tuple(b.graph.spec(f).shape[1:3]) for f in feature_maps]
    graph.metadata.update(task="object_detection", reference=reference)

    if materialize:
        feeds = {"images": probe_images(graph.inputs[0].shape, n=16, seed=seed + 1)}
        calibrate_batch_norms(graph, feeds)
        for i in range(len(feature_maps)):
            standardize_head(graph, f"cls_head_{i}/pw/out", f"cls_head_{i}/pw/w",
                             f"cls_head_{i}/pw/b", feeds, target_std=1.5, target_mean=-2.0)
            standardize_head(graph, f"box_head_{i}/pw/out", f"box_head_{i}/pw/w",
                             f"box_head_{i}/pw/b", feeds, target_std=1.0)

    return ModelBundle(
        graph=graph,
        task="object_detection",
        input_name=images,
        output_names={"scores": scores, "boxes": box_encodings, "logits": class_logits},
        config={
            "num_classes": num_classes,
            "input_size": graph.spec(images).shape[1],
            "width": width,
            "anchors_per_cell": anchors_per_cell,
            "feature_shapes": feature_shapes,
            "box_variances": (0.1, 0.1, 0.2, 0.2),
        },
    )


def create_ssd_mobilenet_v2(
    *,
    input_size: int = 300,
    width: float = 1.0,
    num_classes: int = 91,
    anchors_per_cell: int = 4,
    backbone_depth: str = "full",
    seed: int = 2016,
    materialize: bool = True,
) -> ModelBundle:
    """Build the SSD-MobileNet v2 detection graph."""
    b = GraphBuilder(f"ssd_mobilenet_v2_w{width}_r{input_size}", seed=seed, materialize=materialize,
                     init_style="isometric")
    x = b.input("images", (-1, input_size, input_size, 3))
    endpoints = mobilenet_v2_backbone(b, x, width=width, depth=backbone_depth)
    return ssd_detector(b, x, endpoints, (512, 256), reference="SSD-MobileNet v2", width=width,
                        num_classes=num_classes, anchors_per_cell=anchors_per_cell, seed=seed,
                        materialize=materialize)
