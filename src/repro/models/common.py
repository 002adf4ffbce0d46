"""Shared building blocks for the reference model architectures.

Includes the MobileNet-family blocks (inverted bottleneck, fused inverted
bottleneck) and the deterministic *head standardization* step: with seeded
He-initialized weights the raw logits of a deep random feature extractor are
dominated by a constant component, so classification heads are rescaled
(per class, using a probe batch) to zero-mean/controlled-variance logits.
This gives the decision boundaries realistic margins, which is what makes
quantization error measurably flip predictions — the mechanism the paper's
quality targets gate on. See DESIGN.md §1 (oracle-labelled datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.builder import GraphBuilder
from ..graph.graph import Graph

__all__ = [
    "ModelBundle",
    "round_channels",
    "inverted_bottleneck",
    "fused_inverted_bottleneck",
    "standardize_head",
    "probe_images",
    "calibrate_batch_norms",
]


@dataclass
class ModelBundle:
    """A built reference model plus everything a task pipeline needs."""

    graph: Graph
    task: str
    input_name: str
    output_names: dict[str, str]  # semantic role -> tensor name
    config: dict = field(default_factory=dict)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.graph.inputs[0].shape


def round_channels(channels: float, multiple: int = 4, minimum: int = 4) -> int:
    """Scale-then-round channel counts the way MobileNet width multipliers do."""
    c = max(minimum, int(channels + multiple / 2) // multiple * multiple)
    return c


def inverted_bottleneck(
    b: GraphBuilder,
    x: str,
    out_channels: int,
    *,
    expansion: int,
    stride: int = 1,
    kernel: int = 3,
    activation: str = "relu6",
) -> str:
    """MobileNet v2 inverted residual: expand 1x1 -> dw kxk -> project 1x1."""
    in_channels = b.graph.spec(x).shape[-1]
    residual = stride == 1 and in_channels == out_channels
    h = x
    if expansion != 1:
        h = b.conv(h, in_channels * expansion, k=1, activation=activation, use_bn=True)
    h = b.dwconv(h, k=kernel, stride=stride, activation=activation, use_bn=True)
    # linear bottleneck (no activation); residual branches are attenuated so
    # the identity path dominates signal propagation at depth
    h = b.conv(h, out_channels, k=1, use_bn=True, gamma_scale=0.25 if residual else 1.0)
    if residual:
        h = b.add(x, h)
    return h


def fused_inverted_bottleneck(
    b: GraphBuilder,
    x: str,
    out_channels: int,
    *,
    expansion: int,
    stride: int = 1,
    kernel: int = 3,
    activation: str = "relu",
) -> str:
    """MobileNetEdgeTPU fused block: full kxk expansion conv -> project 1x1.

    Fusing the expansion and depthwise stages improves accelerator utilization
    (paper §3.2) — the structural difference the EdgeTPU search introduced.
    """
    in_channels = b.graph.spec(x).shape[-1]
    residual = stride == 1 and in_channels == out_channels
    h = b.conv(x, in_channels * expansion, k=kernel, stride=stride, activation=activation, use_bn=True)
    h = b.conv(h, out_channels, k=1, use_bn=True, gamma_scale=0.25 if residual else 1.0)
    if residual:
        h = b.add(x, h)
    return h


def calibrate_batch_norms(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Set every BatchNorm's stored statistics from actual probe activations.

    In a trained network the BN running mean/variance match the activation
    distribution — that is what makes activations per-channel balanced and
    per-tensor activation quantization viable. Randomly-initialized BN
    parameters lack this property, so we estimate the statistics the way
    training would: a single forward pass, updating each BN from its own
    input *after* all upstream BNs have been updated (one topological sweep).

    Returns every tensor of that sweep (graph inputs and op outputs): the FP32
    forward pass of the calibrated graph on ``feeds``, bit for bit what
    ``ExecutionPlan.run`` would tap. A graph without BatchNorms is left
    unchanged and only run, so head standardization reads its probe logits
    here instead of running the graph again.
    """
    from ..graph.ops import BatchNorm  # local import avoids a cycle at module load

    env: dict[str, np.ndarray] = {}
    for spec in graph.inputs:
        env[spec.name] = np.asarray(feeds[spec.name], dtype=np.float32)
    for op in graph.ops:
        if isinstance(op, BatchNorm):
            x = env[op.inputs[0]]
            flat = x.reshape(-1, x.shape[-1]).astype(np.float64)
            graph.params[op.attrs["mean"]] = flat.mean(axis=0).astype(np.float32)
            graph.params[op.attrs["variance"]] = np.maximum(
                flat.var(axis=0), 1e-4
            ).astype(np.float32)
        outs = op.prepare(graph)([env[t] for t in op.inputs])
        for t, arr in zip(op.outputs, outs):
            env[t] = arr
    return env


def probe_images(shape: tuple[int, ...], n: int = 32, seed: int = 1234) -> np.ndarray:
    """Deterministic probe batch in normalized image space ([-1, 1]-ish)."""
    rng = np.random.default_rng(seed)
    full = (n,) + tuple(d for d in shape if d != -1)
    return rng.normal(0.0, 0.5, size=full).astype(np.float32)


def standardize_head(
    graph: Graph,
    logits: np.ndarray,
    weight_name: str,
    bias_name: str,
    *,
    target_std: float = 1.0,
    target_mean: float = 0.0,
) -> None:
    """Rescale a linear/conv head so its probe logits have controlled statistics.

    ``logits`` are the head's outputs on the probe batch, as the sweep of
    :func:`calibrate_batch_norms` returns them. The head must have output
    channels on the last axis and no fused activation. Works for FC heads
    (weight (in,out)) and 1x1-conv heads (weight (1,1,in,out)) alike because
    both have the output channel on the final weight axis.
    """
    flat = logits.astype(np.float64).reshape(-1, logits.shape[-1])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std < 1e-6, 1.0, std)
    w = graph.params[weight_name]
    bias = graph.params[bias_name]
    scale = (target_std / std).astype(np.float32)
    graph.params[weight_name] = (w * scale).astype(np.float32)
    graph.params[bias_name] = ((bias - mean) * scale + target_mean).astype(np.float32)
