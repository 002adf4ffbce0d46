"""Value-range engine: abstract interpretation over the graph IR (VR rules).

Propagates sound closed intervals from declared input domains
(:attr:`TensorSpec.domain`) through every op via the per-op transfer
functions (``Op.infer_ranges``), modelling the *storage* effect of each
deployment format on top of the real-arithmetic transfer:

- quantized graphs round every stored activation to its code grid (±scale/2)
  and clip it to the ``QuantParams`` representable window;
- FP16 graphs round every op output through half precision (relative 2⁻¹⁰
  slack) and overflow to ±inf past the 65504 ceiling;
- FP32 storage is the identity (per-op transfers already pad for float32
  rounding).

The invariant, checked end-to-end by the test suite's instrumented executor
runs: for any feed inside the declared domains, every concrete stored tensor
value lies inside the proven interval.

On top of the engine, :func:`check_ranges` emits the VR rule family:
range-aware int32 accumulator proofs (VR001, tightening QS001), per-tensor
requantization clipping proofs (VR002), calibration-coverage findings
(VR003), FP16 overflow/denormal proofs (VR004/VR005) and dead-activation
detection (VR006).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.graph import Graph
from ..graph.ops import Activation, Add, Conv2D, DepthwiseConv2D, FullyConnected
from ..kernels.numerics import Numerics, QuantParams
from .findings import Finding
from .intervals import FP16_MAX, FP16_SMALLEST_NORMAL, Interval
from .quantcheck import _INT32_MAX, _SKIP_ROLES, accumulator_bound

__all__ = [
    "DEFAULT_DATA_DOMAIN",
    "RangeAnalysis",
    "input_intervals",
    "infer_graph_ranges",
    "check_ranges",
    "observed_ranges",
]

# fallback domain for "data" inputs with no declared TensorSpec.domain: wide
# enough for any normalized feed convention the zoo uses, finite so the
# analysis stays informative
DEFAULT_DATA_DOMAIN = (-8.0, 8.0)

_ROLE_DOMAINS = {
    "mask": (0.0, 1.0),
    "ids": (0.0, float("inf")),
}

# one half-precision rounding step is 2⁻¹¹ relative; 2⁻¹⁰ absorbs the
# float32->float16->float32 round trip comfortably
_FP16_REL = 2.0 ** -10
_TINY = 1e-30

# VR003 fires when the calibrated width covers less than this fraction of
# the provable width — values outside the calibrated window clip silently
_COVERAGE_THRESHOLD = 0.5

# VR006: output provably constant while the input still varies
_DEAD_OUT_WIDTH = 1e-12
_DEAD_IN_WIDTH = 1e-6

_INTEGER_KERNEL_OPS = (Conv2D, DepthwiseConv2D, FullyConnected)


@dataclass
class RangeAnalysis:
    """Result of one whole-graph interval propagation.

    ``intervals`` holds the proven interval of each tensor *as stored*
    (post-quantization/post-cast); ``pre_storage`` holds the transfer result
    before the format's storage effect — the quantity that decides whether
    requantization or the FP16 cast can clip. ``acc_bounds`` maps integer-
    kernel op names to their (range-aware, format-worst-case) accumulator
    bound pair.
    """

    graph: str
    numerics: Numerics
    intervals: dict[str, Interval] = field(default_factory=dict)
    pre_storage: dict[str, Interval] = field(default_factory=dict)
    acc_bounds: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "numerics": self.numerics.value,
            "intervals": {k: v.to_dict() for k, v in sorted(self.intervals.items())},
            "acc_bounds": {k: dict(v) for k, v in sorted(self.acc_bounds.items())},
        }


def input_intervals(
    graph: Graph, overrides: dict[str, tuple[float, float]] | None = None
) -> dict[str, Interval]:
    """Seed intervals for the graph inputs: overrides > declared domain >
    role default ("mask" → [0,1], "ids" → [0,∞)) > :data:`DEFAULT_DATA_DOMAIN`."""
    seeds: dict[str, Interval] = {}
    for spec in graph.inputs:
        if overrides and spec.name in overrides:
            lo, hi = overrides[spec.name]
        elif spec.domain is not None:
            lo, hi = spec.domain
        else:
            lo, hi = _ROLE_DOMAINS.get(spec.role, DEFAULT_DATA_DOMAIN)
        seeds[spec.name] = Interval(lo, hi)
    return seeds


def _quant_store(iv: Interval, qp: QuantParams) -> Interval:
    """Storage effect of quantization: round to the code grid, clip to the
    representable window. A provably-saturating clip collapses to the edge
    (that is what ``intersect`` does for disjoint intervals)."""
    scale = float(np.max(qp.scale))
    rep_lo, rep_hi = qp.representable_range()
    if not iv.is_bounded:
        return Interval(rep_lo, rep_hi)
    return iv.widen(0.5 * scale * (1.0 + 1e-9) + _TINY).intersect(Interval(rep_lo, rep_hi))


def _fp16_store(iv: Interval) -> Interval:
    """Storage effect of the FP16 cast: half-precision rounding, with
    magnitudes past the ceiling overflowing to ±inf."""
    lo = -np.inf if iv.lo < -FP16_MAX else iv.lo - abs(iv.lo) * _FP16_REL - _TINY
    hi = np.inf if iv.hi > FP16_MAX else iv.hi + abs(iv.hi) * _FP16_REL + _TINY
    return Interval(lo, hi)


def _stored(iv: Interval, spec, numerics: Numerics, *, is_input: bool) -> Interval:
    if numerics.is_quantized and spec.qparams is not None and spec.role not in _SKIP_ROLES:
        return _quant_store(iv, spec.qparams)
    if numerics == Numerics.FP16 and not is_input and spec.role not in _SKIP_ROLES:
        # the executor casts op outputs through half precision; raw feeds are
        # consumed as-is, so graph inputs keep their real interval
        return _fp16_store(iv)
    return iv


def _code_interval(iv: Interval, qp: QuantParams) -> tuple[int, int]:
    """Integer codes a stored real interval can occupy (for VR001)."""
    scale = float(qp.scale[0])
    zp = int(qp.zero_point[0])
    qmin, qmax = qp.numerics.qmin, qp.numerics.qmax
    if not iv.is_bounded:
        return qmin, qmax
    q_lo = int(np.floor(iv.lo / scale - 1e-9)) + zp
    q_hi = int(np.ceil(iv.hi / scale + 1e-9)) + zp
    return max(qmin, min(q_lo, qmax)), min(qmax, max(q_hi, qmin))


def infer_graph_ranges(
    graph: Graph,
    inputs: dict[str, tuple[float, float]] | None = None,
) -> RangeAnalysis:
    """Propagate sound value intervals through every op of ``graph``."""
    analysis = RangeAnalysis(graph.name, graph.numerics)
    env = analysis.intervals
    seeds = input_intervals(graph, inputs)
    for spec in graph.inputs:
        seed = seeds[spec.name]
        analysis.pre_storage[spec.name] = seed
        env[spec.name] = _stored(seed, spec, graph.numerics, is_input=True)
    for op in graph.ops:
        in_rs = [env[t] for t in op.inputs]
        in_ss = [tuple(graph.spec(t).shape) for t in op.inputs]
        outs = op.infer_ranges(in_rs, in_ss, graph)
        for t, iv in zip(op.outputs, outs):
            analysis.pre_storage[t] = iv
            env[t] = _stored(iv, graph.spec(t), graph.numerics, is_input=False)
        if graph.numerics.is_quantized and isinstance(op, _INTEGER_KERNEL_OPS):
            x_qp = graph.spec(op.inputs[0]).qparams
            w_qp = graph.param_qparams.get(op.attrs["weight"])
            if x_qp is not None and w_qp is not None:
                analysis.acc_bounds[op.name] = {
                    "range_aware": accumulator_bound(
                        op, graph, _code_interval(env[op.inputs[0]], x_qp)),
                    "format": accumulator_bound(op, graph),
                }
    return analysis


def check_ranges(
    graph: Graph, analysis: RangeAnalysis | None = None
) -> tuple[list[Finding], dict]:
    """Run the VR rule family over one graph; returns (findings, metrics)."""
    if analysis is None:
        analysis = infer_graph_ranges(graph)
    out: list[Finding] = []
    gname = graph.name
    numerics = graph.numerics
    producers = {t: op for op in graph.ops for t in op.outputs}

    never_clip = at_risk = 0
    if numerics.is_quantized:
        # VR001: accumulator overflow given the *proven* input interval
        for op in graph.ops:
            bounds = analysis.acc_bounds.get(op.name)
            if bounds and bounds["range_aware"] > _INT32_MAX:
                out.append(Finding(
                    "VR001", gname, op=op.name,
                    message=f"op {op.name!r} ({op.op_type}): accumulator can reach "
                            f"|{bounds['range_aware']}| > int32 max {_INT32_MAX} even "
                            f"restricted to the proven input interval",
                    details=dict(bounds, int32_max=_INT32_MAX)))

        cal = (graph.metadata.get("quantization") or {}).get("calibration_ranges") or {}
        for name, spec in graph.tensor_specs.items():
            qp = spec.qparams
            pre = analysis.pre_storage.get(name)
            if qp is None or pre is None or spec.role in _SKIP_ROLES:
                continue
            # VR002: can requantization of this tensor ever clip?
            scale = float(np.max(qp.scale))
            rep_lo, rep_hi = qp.representable_range()
            if not pre.is_bounded or pre.lo < rep_lo - scale or pre.hi > rep_hi + scale:
                at_risk += 1
                out.append(Finding(
                    "VR002", gname, tensor=name, op=getattr(producers.get(name), "name", None),
                    message=f"tensor {name!r}: proven interval {pre} exceeds the "
                            f"representable window [{rep_lo:.4g}, {rep_hi:.4g}]; "
                            f"requantization can clip",
                    details={"proven": pre.to_dict(),
                             "representable": [rep_lo, rep_hi]}))
            else:
                never_clip += 1
            # VR003: calibrated range much narrower than the provable one
            if name in cal and pre.is_bounded and pre.width > 0:
                c_lo, c_hi = cal[name]
                coverage = max(0.0, c_hi - c_lo) / pre.width
                if coverage < _COVERAGE_THRESHOLD:
                    out.append(Finding(
                        "VR003", gname, tensor=name,
                        message=f"tensor {name!r}: calibrated range "
                                f"[{c_lo:.4g}, {c_hi:.4g}] covers only "
                                f"{coverage:.0%} of the provable interval {pre}; "
                                f"out-of-calibration values clip silently",
                        details={"calibrated": [c_lo, c_hi],
                                 "proven": pre.to_dict(),
                                 "coverage": coverage}))

    if numerics == Numerics.FP16:
        for op in graph.ops:
            for t in op.outputs:
                pre = analysis.pre_storage.get(t)
                if pre is None:
                    continue
                # VR004 fires only where *this* op pushes past the ceiling —
                # an already-infinite input interval would just cascade noise
                if pre.is_bounded and pre.max_abs > FP16_MAX:
                    out.append(Finding(
                        "VR004", gname, tensor=t, op=op.name,
                        message=f"tensor {t!r}: proven interval {pre} exceeds the "
                                f"FP16 ceiling {FP16_MAX}; the half-precision cast "
                                f"overflows to inf",
                        details={"proven": pre.to_dict(), "fp16_max": FP16_MAX}))
                elif 0.0 < pre.max_abs < FP16_SMALLEST_NORMAL:
                    out.append(Finding(
                        "VR005", gname, tensor=t, op=op.name,
                        message=f"tensor {t!r}: proven interval {pre} sits below "
                                f"the smallest normal half-precision magnitude "
                                f"{FP16_SMALLEST_NORMAL:.3g}; values collapse to "
                                f"denormals or zero",
                        details={"proven": pre.to_dict()}))

    # VR006: activation provably constant while its input varies
    for op in graph.ops:
        kinds = []
        if isinstance(op, Activation):
            kinds.append(op.attrs["kind"])
        elif isinstance(op, (Conv2D, FullyConnected, Add)) and op.attrs.get("activation"):
            kinds.append(op.attrs["activation"])
        if not kinds:
            continue
        x = analysis.intervals.get(op.inputs[0])
        y = analysis.pre_storage.get(op.outputs[0])
        if x is None or y is None or not x.is_bounded:
            continue
        if y.width <= _DEAD_OUT_WIDTH and x.width >= _DEAD_IN_WIDTH:
            out.append(Finding(
                "VR006", gname, op=op.name, tensor=op.outputs[0],
                message=f"op {op.name!r}: {kinds[0]} output is provably the "
                        f"constant {y.lo:.4g} while its input spans {x}; the "
                        f"activation is dead",
                details={"input": x.to_dict(), "output": y.to_dict()}))

    bounded = sum(1 for iv in analysis.intervals.values() if iv.is_bounded)
    metrics = {
        "tensors": len(analysis.intervals),
        "bounded": bounded,
        "integer_ops": len(analysis.acc_bounds),
        "never_clip": never_clip,
        "clip_risk": at_risk,
        "intervals": {k: v.to_dict() for k, v in sorted(analysis.intervals.items())},
        "acc_bounds": {k: dict(v) for k, v in sorted(analysis.acc_bounds.items())},
    }
    return out, metrics


def observed_ranges(
    graph: Graph, feeds_seq: list[dict[str, np.ndarray]]
) -> dict[str, tuple[float, float]]:
    """Concrete per-tensor value ranges from instrumented execution.

    Runs the execution plan with a ``tap`` on every stored tensor,
    dequantizing integer codes through their qparams so the result is
    in the same real domain the proven intervals live in. This is the
    experimental side of the soundness argument: tests assert observed ⊆
    proven across the zoo × numerics matrix.
    """
    from ..graph.executor import Executor

    obs: dict[str, tuple[float, float]] = {}

    def tap(name: str, arr: np.ndarray) -> None:
        a = np.asarray(arr)
        if a.size == 0:
            return
        spec = graph.tensor_specs.get(name)
        if (spec is not None and spec.qparams is not None
                and not np.issubdtype(a.dtype, np.floating)):
            # exact float64 dequantization: the proven intervals bound the
            # *real* stored value scale·(q − zp), not its float32 rounding
            qp = spec.qparams
            shape = qp.broadcast_shape(a.ndim)
            a = (a.astype(np.float64) - qp.zero_point.reshape(shape)) * qp.scale.reshape(shape)
        lo, hi = float(np.min(a)), float(np.max(a))
        prev = obs.get(name)
        if prev is not None:
            lo, hi = min(lo, prev[0]), max(hi, prev[1])
        obs[name] = (lo, hi)

    ex = Executor(graph)
    for feeds in feeds_seq:
        ex.run(feeds, tap=tap)
    return obs
