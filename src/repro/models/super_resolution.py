"""Mobile super-resolution (paper App. E future work).

"Super-resolution and high-resolution models are important use cases, but
they are still evolving" — the paper defers them for lack of agreed models
and metrics. This reference takes the stable, hardware-friendly shape such a
task would use: an EDSR-style residual conv trunk at LR resolution followed
by pixel-shuffle (depth-to-space) upsampling, evaluated with PSNR. It
registers as an *experimental* task.
"""

from __future__ import annotations

from ..graph.builder import GraphBuilder
from .common import ModelBundle, round_channels

__all__ = ["create_mobile_edge_sr"]


def create_mobile_edge_sr(
    *,
    lr_size: int = 128,
    scale: int = 2,
    width: float = 1.0,
    num_blocks: int = 4,
    seed: int = 2023,
    materialize: bool = True,
) -> ModelBundle:
    """Build the SR graph: LR (h, w, 3) -> HR (h*scale, w*scale, 3)."""
    channels = round_channels(32 * width, minimum=8)
    b = GraphBuilder(
        f"mobile_edge_sr_r{lr_size}x{scale}_w{width}", seed=seed,
        materialize=materialize, init_style="isometric",
    )
    x = b.input("lr_images", (-1, lr_size, lr_size, 3))
    h = b.conv(x, channels, k=3, activation="relu", name="head")
    for i in range(num_blocks):
        r = b.conv(h, channels, k=3, activation="relu", name=f"block_{i}/conv0")
        r = b.conv(r, channels, k=3, name=f"block_{i}/conv1")
        h = b.add(h, r, name=f"block_{i}/residual")
    h = b.conv(h, 3 * scale * scale, k=3, name="upsampler")
    hr = b.depth_to_space(h, scale, name="shuffle")
    b.outputs(hr)
    graph = b.build()
    graph.metadata.update(task="super_resolution", reference="Mobile edge SR")

    return ModelBundle(
        graph=graph,
        task="super_resolution",
        input_name=x,
        output_names={"hr": hr},
        config={"lr_size": lr_size, "scale": scale, "width": width},
    )
