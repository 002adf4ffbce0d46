"""MobileDet-SSD — the v1.0 object-detection reference model.

MobileDets (Xiong et al., 2021) search over a block vocabulary that mixes
inverted bottlenecks with *regular* convolutions, which improve the
accuracy-latency trade-off on EdgeTPU/DSP-class accelerators when placed
early in the network (paper §3.2). Input resolution rises to 320x320 while
the parameter count drops to ~4M.
"""

from __future__ import annotations

from ..graph.builder import GraphBuilder
from .common import (
    ModelBundle,
    fused_inverted_bottleneck,
    inverted_bottleneck,
    round_channels,
)
from .ssd_mobilenet_v2 import ssd_detector

__all__ = ["create_mobiledet_ssd", "BLOCK_SPEC"]

# (kind, output channels, stride, expansion, kernel) — "conv" entries are the
# regular convolutions MobileDets injects into the early, high-resolution part
BLOCK_SPEC: list[tuple[str, int, int, int, int]] = [
    ("conv", 16, 1, 0, 3),
    ("fused", 32, 2, 8, 3),
    ("fused", 32, 1, 4, 3),
    ("conv", 40, 2, 0, 3),
    ("fused", 40, 1, 4, 3),
    ("fused", 40, 1, 4, 3),
    ("ib", 72, 2, 8, 3),
    ("ib", 72, 1, 4, 3),
    ("ib", 72, 1, 4, 3),
    ("ib", 96, 1, 8, 3),
    ("ib", 96, 1, 4, 3),
    ("ib", 120, 2, 8, 5),
    ("ib", 120, 1, 4, 3),
    ("ib", 120, 1, 4, 3),
    ("ib", 160, 1, 8, 3),
]


BLOCK_SPEC_TRIMMED: list[tuple[str, int, int, int, int]] = [
    ("conv", 16, 1, 0, 3),
    ("fused", 32, 2, 8, 3),
    ("conv", 40, 2, 0, 3),
    ("ib", 72, 2, 8, 3),
    ("ib", 96, 1, 8, 3),
    ("ib", 120, 2, 8, 5),
    ("ib", 160, 1, 8, 3),
]


def create_mobiledet_ssd(
    *,
    input_size: int = 320,
    width: float = 1.0,
    num_classes: int = 91,
    anchors_per_cell: int = 4,
    backbone_depth: str = "full",
    seed: int = 2021,
    materialize: bool = True,
) -> ModelBundle:
    """Build the MobileDet-SSD detection graph."""
    b = GraphBuilder(f"mobiledet_ssd_w{width}_r{input_size}", seed=seed, materialize=materialize,
                     init_style="isometric")
    x = b.input("images", (-1, input_size, input_size, 3))
    h = b.conv(x, round_channels(32 * width), k=3, stride=2, activation="relu6", use_bn=True)
    endpoints: dict[int, str] = {}
    stride = 2
    spec = BLOCK_SPEC if backbone_depth == "full" else BLOCK_SPEC_TRIMMED
    for kind, c, s, expansion, kernel in spec:
        c = round_channels(c * width)
        if kind == "conv":
            h = b.conv(h, c, k=kernel, stride=s, activation="relu6", use_bn=True)
        elif kind == "fused":
            h = fused_inverted_bottleneck(b, h, c, expansion=expansion, stride=s, kernel=kernel,
                                          activation="relu6")
        else:
            h = inverted_bottleneck(b, h, c, expansion=expansion, stride=s, kernel=kernel,
                                    activation="relu6")
        stride *= s if s == 2 else 1
        endpoints[stride] = h

    return ssd_detector(b, x, endpoints, (384, 256), reference="MobileDet-SSD", width=width,
                        num_classes=num_classes, anchors_per_cell=anchors_per_cell, seed=seed,
                        materialize=materialize)
