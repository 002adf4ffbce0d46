"""DeepLab v3+ (MobileNet v2 backbone) — the semantic-segmentation reference.

Encoder/decoder with atrous spatial pyramid pooling (ASPP): backbone capped
at output stride 16, parallel atrous branches at rates {6, 12} plus image
pooling, a 1x1 fusion, then a decoder that merges stride-4 low-level features
and predicts the paper's reduced 32-class ADE20K label space at full input
resolution. ~2M parameters at full size (512x512).
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

__all__ = ["create_deeplab_v3plus"]


def create_deeplab_v3plus(
    *,
    input_size: int = 512,
    width: float = 1.0,
    num_classes: int = 32,
    seed: int = 2018,
    materialize: bool = True,
) -> ModelBundle:
    """Build the DeepLab v3+ segmentation graph."""
    b = GraphBuilder(f"deeplab_v3plus_w{width}_r{input_size}", seed=seed, materialize=materialize,
                     init_style="isometric")
    x = b.input("images", (-1, input_size, input_size, 3))
    endpoints = mobilenet_v2_backbone(b, x, width=width, output_stride=16)
    high = endpoints[16]
    low = endpoints[4]
    _, fh, fw, _ = b.graph.spec(high).shape

    aspp_c = round_channels(256 * width, minimum=16)
    branches = [
        b.conv(high, aspp_c, k=1, activation="relu", use_bn=True, name="aspp/conv1x1"),
        b.conv(high, aspp_c, k=3, dilation=6, activation="relu", use_bn=True, name="aspp/rate6"),
        b.conv(high, aspp_c, k=3, dilation=12, activation="relu", use_bn=True, name="aspp/rate12"),
    ]
    # image-level pooling branch: GAP -> 1x1 conv -> broadcast back up
    pool = b.global_pool(high, keepdims=True)
    pool = b.conv(pool, aspp_c, k=1, activation="relu", use_bn=True, name="aspp/image_pool")
    pool = b.resize(pool, fh, fw)
    branches.append(pool)

    h = b.concat(branches, axis=-1, name="aspp/concat")
    h = b.conv(h, aspp_c, k=1, activation="relu", use_bn=True, name="aspp/project")

    # decoder: upsample 4x to the low-level stride, fuse, refine
    _, lh, lw, _ = b.graph.spec(low).shape
    h = b.resize(h, lh, lw)
    low_c = round_channels(48 * width, minimum=8)
    low_feat = b.conv(low, low_c, k=1, activation="relu", use_bn=True, name="decoder/low_project")
    h = b.concat([h, low_feat], axis=-1, name="decoder/concat")
    h = b.conv(h, aspp_c, k=3, activation="relu", use_bn=True, name="decoder/refine0")
    h = b.conv(h, aspp_c, k=3, activation="relu", use_bn=True, name="decoder/refine1")
    logits_small = b.conv(h, num_classes, k=1, name="classifier")
    logits = b.resize(logits_small, input_size, input_size)
    b.outputs(logits)
    graph = b.build()
    graph.metadata.update(task="semantic_segmentation", reference="DeepLab v3+ MobileNet v2")

    if materialize:
        feeds = {"images": probe_images(graph.inputs[0].shape, n=8, seed=seed + 1)}
        calibrate_batch_norms(graph, feeds)
        standardize_head(graph, "classifier/out", "classifier/w", "classifier/b",
                         feeds, target_std=2.0)

    return ModelBundle(
        graph=graph,
        task="semantic_segmentation",
        input_name=x,
        output_names={"logits": logits},
        config={"num_classes": num_classes, "input_size": input_size, "width": width},
    )
