"""Post-training quantization of a frozen mobile graph.

Implements the rules-compliant INT8/UINT8 path of paper §5.1: weights are
quantized per-output-channel (symmetric), activations per-tensor (affine)
from ranges observed on the approved calibration set, biases become int32 at
``input_scale * weight_scale``. No retraining happens anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.executor import Executor
from ..graph.graph import Graph
from ..graph.ops import Conv2D, DepthwiseConv2D, FullyConnected
from ..kernels.numerics import Numerics, QuantParams, choose_qparams, quantize

__all__ = [
    "CalibrationResult",
    "calibrate",
    "quantize_graph",
    "convert_fp16",
]

_SKIP_ROLES = {"ids", "mask"}


# weight of the running range against each new batch's min/max (TF-style
# exponential moving average); the first batch sets the range outright
MOMENTUM = 0.9


@dataclass
class CalibrationResult:
    """Per-tensor observed ranges from running the calibration set."""

    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    num_samples: int = 0


def calibrate(graph: Graph, batches: list[dict[str, np.ndarray]]) -> CalibrationResult:
    """Run the FP32 graph over calibration batches, recording tensor ranges.

    Each feed is one execution of the graph's compiled plan (its kernels are
    prepared once for the whole calibration set). Every graph input and
    float op output folds its batch min/max into a moving average of momentum
    ``MOMENTUM``, so one batch gives the exact min/max. A tensor that only
    ever held empty arrays has no range, and calibration fails on it.
    """
    if graph.numerics != Numerics.FP32:
        raise ValueError("calibration runs on the FP32 reference graph")
    ranges: dict[str, tuple[float, float]] = {}
    seen: set[str] = set()

    def observe(name: str, values: np.ndarray) -> None:
        seen.add(name)
        if values.size == 0:
            return
        lo, hi = float(values.min()), float(values.max())
        if name in ranges:
            old_lo, old_hi = ranges[name]
            m = MOMENTUM
            lo = m * old_lo + (1 - m) * lo
            hi = m * old_hi + (1 - m) * hi
        ranges[name] = (lo, hi)

    # graph inputs are recorded in the loop below (role-filtered, as
    # float32); the tap adds every float op output
    input_names = {spec.name for spec in graph.inputs}

    def tap(name: str, values: np.ndarray) -> None:
        if name not in input_names and np.issubdtype(values.dtype, np.floating):
            observe(name, values)

    ex = Executor(graph)
    n = 0
    for feed in batches:
        for spec in graph.inputs:
            if spec.role not in _SKIP_ROLES:
                observe(spec.name, np.asarray(feed[spec.name], dtype=np.float32))
        ex.run(feed, tap=tap)
        n += next(iter(feed.values())).shape[0]
    empty = sorted(seen - ranges.keys())
    if empty:
        raise RuntimeError(f"calibration saw no data for tensor(s) {empty}")
    return CalibrationResult(ranges=ranges, num_samples=n)


def _weight_channel_axis(op) -> int:
    if isinstance(op, DepthwiseConv2D):
        return 2  # (kh, kw, C, 1)
    if isinstance(op, Conv2D):
        return 3  # (kh, kw, Cin, Cout)
    if isinstance(op, FullyConnected):
        return 1  # (in, out)
    raise TypeError(f"op {op!r} has no quantizable weight")


def _quantize_weight(w: np.ndarray, axis: int, numerics: Numerics) -> tuple[np.ndarray, QuantParams]:
    """Symmetric per-output-channel weight quantization."""
    reduce_axes = tuple(i for i in range(w.ndim) if i != axis)
    lo = w.min(axis=reduce_axes)
    hi = w.max(axis=reduce_axes)
    qp = choose_qparams(lo, hi, numerics, symmetric=True, axis=axis)
    return quantize(w, qp), qp


def quantize_graph(
    graph: Graph,
    calibration: CalibrationResult,
    numerics: Numerics = Numerics.INT8,
) -> Graph:
    """Produce the quantized deployment graph from an FP32 graph + calibration.

    Integer-kernel ops (conv / depthwise / fully-connected) get quantized
    weights and int32 biases; pass-through ops inherit their input's qparams
    so raw integers flow through unchanged; every other op becomes a float
    island with quantize/dequantize boundaries.
    """
    if not numerics.is_quantized:
        raise ValueError(f"{numerics} is not a quantized format")
    g = graph.clone(f"{graph.name}__{numerics.value}")
    g.frozen = False
    g.numerics = numerics

    # 1) activation qparams from calibration ranges
    for name, spec in g.tensor_specs.items():
        if spec.role in _SKIP_ROLES:
            continue
        if name not in calibration.ranges:
            raise KeyError(f"tensor {name!r} missing from calibration (graph mismatch?)")
        lo, hi = calibration.ranges[name]
        spec.qparams = choose_qparams(lo, hi, numerics)
        spec.numerics = numerics

    # 2) pass-through ops must not reinterpret the integer payload
    for op in g.ops:
        if op.pass_through:
            in_spec = g.spec(op.inputs[0])
            for out in op.outputs:
                g.tensor_specs[out].qparams = in_spec.qparams

    # 3) weights and biases of integer-kernel ops
    for op in g.ops:
        if not isinstance(op, (Conv2D, DepthwiseConv2D, FullyConnected)):
            continue
        w_name = op.attrs["weight"]
        w = g.params[w_name]
        if w is None:
            raise ValueError("cannot quantize a symbolic graph")
        axis = _weight_channel_axis(op)
        wq, w_qp = _quantize_weight(np.asarray(w, dtype=np.float32), axis, numerics)
        g.params[w_name] = wq
        g.param_qparams[w_name] = w_qp
        b_name = op.attrs.get("bias")
        if b_name:
            x_qp = g.spec(op.inputs[0]).qparams
            bias_scale = x_qp.scale[0] * w_qp.scale  # per-channel when weights are
            bq = np.round(np.asarray(g.params[b_name], dtype=np.float64) / bias_scale)
            g.params[b_name] = np.clip(bq, np.iinfo(np.int32).min, np.iinfo(np.int32).max).astype(
                np.int32
            )
            g.param_qparams[b_name] = QuantParams(
                scale=bias_scale, zero_point=np.zeros_like(bias_scale, dtype=np.int64),
                numerics=Numerics.INT16,  # tag only; storage is int32
                axis=0 if bias_scale.size > 1 else None,
            )

    g.metadata["quantization"] = {
        "numerics": numerics.value,
        "per_channel": True,
        "observer": "moving_average",
        "calibration_samples": calibration.num_samples,
    }
    g.freeze()
    # re-attest: quantization changed params/specs, so the export-time stamp
    # no longer matches the checksum (deferred import avoids a module cycle)
    from ..staticcheck.verifier import attest

    attest(g)
    return g


def convert_fp16(graph: Graph) -> Graph:
    """FP16 deployment conversion: weights rounded to half, ops run in half."""
    g = graph.clone(f"{graph.name}__fp16")
    g.frozen = False
    g.numerics = Numerics.FP16
    for name, value in g.params.items():
        if value is None:
            raise ValueError("cannot convert a symbolic graph")
        if np.issubdtype(value.dtype, np.floating):
            g.params[name] = value.astype(np.float16).astype(np.float32)
    for spec in g.tensor_specs.values():
        if spec.role not in _SKIP_ROLES:
            spec.numerics = Numerics.FP16
    g.metadata["quantization"] = {"numerics": "fp16"}
    g.freeze()
    from ..staticcheck.verifier import attest

    attest(g)
    return g
