"""Post-training bias correction — the "QAT-comparable" reference path.

The paper (§5.1) notes the working group additionally publishes QAT models
"mutually agreed to be comparable" to PTQ. We cannot retrain (and the rules
forbid submitters from doing so), so the improved reference model is produced
with post-training bias correction: the systematic per-channel mean shift the
quantized graph introduces at each conv/fc output is measured on the
calibration set and absorbed into the int32 bias. This is training-free and
uses only the approved calibration data, i.e. it stays inside the rules.
"""

from __future__ import annotations

import numpy as np

from ..graph.executor import Executor
from ..graph.graph import Graph
from ..graph.ops import Conv2D, DepthwiseConv2D, FullyConnected
from ..kernels.numerics import dequantize

__all__ = ["apply_bias_correction"]


def _channel_means(graph: Graph, batches: list[dict[str, np.ndarray]], tensors: list[str]):
    """Mean over batches of each tensor's per-channel average, in real values.

    Integer codes of a quantized graph are dequantized through their qparams.
    """
    ex = Executor(graph)
    wanted = set(tensors)
    sums: dict[str, np.ndarray] = {}
    for feed in batches:
        env: dict[str, np.ndarray] = {}

        def tap(name: str, values: np.ndarray) -> None:
            if name in wanted:
                env[name] = values

        ex.run(feed, tap=tap)
        for t in tensors:
            arr = env[t]
            qp = graph.spec(t).qparams
            if qp is not None and not np.issubdtype(arr.dtype, np.floating):
                arr = dequantize(arr, qp)
            arr = arr.astype(np.float64)
            ch = arr.reshape(-1, arr.shape[-1]).mean(axis=0)
            sums[t] = sums.get(t, 0.0) + ch
    return {t: v / len(batches) for t, v in sums.items()}


def apply_bias_correction(
    quantized: Graph,
    reference_fp32: Graph,
    batches: list[dict[str, np.ndarray]],
) -> Graph:
    """Return a copy of ``quantized`` with per-channel bias error absorbed.

    For each conv/depthwise/fc with a bias, the FP32-vs-quantized mean output
    difference (per channel, over the calibration batches) is converted into
    the int32 bias domain and subtracted.
    """
    g = quantized.clone(f"{quantized.name}__biascorr")
    g.frozen = False
    targets = [
        op for op in g.ops
        if isinstance(op, (Conv2D, DepthwiseConv2D, FullyConnected)) and op.attrs.get("bias")
    ]
    tensor_names = [op.outputs[0] for op in targets]
    ref_means = _channel_means(reference_fp32, batches, tensor_names)
    q_means = _channel_means(g, batches, tensor_names)
    corrected = 0
    for op in targets:
        t = op.outputs[0]
        err = q_means[t] - ref_means[t]  # positive err => quantized overshoots
        b_name = op.attrs["bias"]
        bias_qp = g.param_qparams.get(b_name)
        if bias_qp is None:
            continue
        delta = np.round(err / bias_qp.scale).astype(np.int64)
        if np.any(delta != 0):
            g.params[b_name] = (g.params[b_name].astype(np.int64) - delta).astype(np.int32)
            corrected += 1
    g.metadata.setdefault("quantization", {})["bias_corrected_layers"] = corrected
    g.freeze()
    return g
