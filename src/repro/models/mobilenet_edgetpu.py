"""MobileNetEdgeTPU — the image-classification reference model (Table 1).

A MobileNet-v2 descendant optimized for mobile accelerators: the early
stages use *fused* inverted bottlenecks (full kxk expansion convolution),
squeeze-excite and hard-swish are removed, later stages use ordinary
inverted bottlenecks. ~4M parameters at full size (224x224, width 1.0).
"""

from __future__ import annotations

from ..graph.builder import GraphBuilder
from .common import (
    calibrate_batch_norms,
    ModelBundle,
    fused_inverted_bottleneck,
    inverted_bottleneck,
    probe_images,
    round_channels,
    standardize_head,
)

__all__ = ["create_mobilenet_edgetpu", "BLOCK_SPEC"]

# (block kind, output channels, stride, expansion, kernel)
BLOCK_SPEC: list[tuple[str, int, int, int, int]] = [
    ("fused", 16, 1, 1, 3),
    ("fused", 32, 2, 8, 3),
    ("fused", 32, 1, 4, 3),
    ("fused", 32, 1, 4, 3),
    ("fused", 32, 1, 4, 3),
    ("fused", 48, 2, 8, 3),
    ("fused", 48, 1, 4, 3),
    ("fused", 48, 1, 4, 3),
    ("fused", 48, 1, 4, 3),
    ("ib", 96, 2, 8, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 96, 1, 8, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 160, 2, 8, 5),
    ("ib", 160, 1, 4, 3),
    ("ib", 160, 1, 4, 3),
    ("ib", 160, 1, 4, 3),
    ("ib", 192, 1, 8, 3),
]


def create_mobilenet_edgetpu(
    *,
    input_size: int = 224,
    width: float = 1.0,
    num_classes: int = 1000,
    seed: int = 2020,
    materialize: bool = True,
) -> ModelBundle:
    """Build the classification reference graph.

    ``width`` scales every channel count (the mechanism that yields the
    executable reduced model; see DESIGN.md §1), ``materialize=False``
    yields the symbolic full-size graph for the performance model.
    """
    b = GraphBuilder(f"mobilenet_edgetpu_w{width}_r{input_size}", seed=seed, materialize=materialize)
    x = b.input("images", (-1, input_size, input_size, 3))
    h = b.conv(x, round_channels(32 * width), k=3, stride=2, activation="relu", use_bn=True)
    for kind, c, stride, expansion, kernel in BLOCK_SPEC:
        c = round_channels(c * width)
        if kind == "fused":
            h = fused_inverted_bottleneck(
                b, h, c, expansion=expansion, stride=stride, kernel=kernel, activation="relu"
            )
        else:
            h = inverted_bottleneck(
                b, h, c, expansion=expansion, stride=stride, kernel=kernel, activation="relu"
            )
    feat = round_channels(1280 * width, minimum=64)
    h = b.conv(h, feat, k=1, activation="relu", use_bn=True)
    h = b.global_pool(h)
    h = b.reshape(h, (feat,))
    logits = b.fc(h, num_classes, name="classifier")
    probs = b.softmax(logits, name="probs")
    b.outputs(probs)
    graph = b.build()
    graph.metadata.update(task="image_classification", reference="MobileNetEdgeTPU")

    if materialize:
        calibrate_batch_norms(
            graph, {"images": probe_images(graph.inputs[0].shape, n=32, seed=seed + 1)}
        )
        standardize_head(
            graph, logits, "classifier/w", "classifier/b",
            {"images": probe_images(graph.inputs[0].shape, n=32, seed=seed + 1)},
            target_std=2.5,
        )
    return ModelBundle(
        graph=graph,
        task="image_classification",
        input_name=x,
        output_names={"probs": probs, "logits": logits},
        config={"num_classes": num_classes, "input_size": input_size, "width": width},
    )
