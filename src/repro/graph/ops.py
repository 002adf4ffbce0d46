"""Operator set of the graph IR.

Each operator knows how to (1) infer output shapes, (2) execute in float,
(3) execute in the quantized domain, and (4) report an analytical cost
(:class:`OpCost`) consumed by the hardware performance model.

The op vocabulary mirrors the TFLite subset the five MLPerf Mobile reference
models require. Quantized execution uses true integer kernels for the
MAC-dominated ops (conv / depthwise / fully-connected) and LUTs for unary
activations; the remaining ops fall back to dequantize -> float -> quantize,
exactly as TFLite does for its "float fallback" islands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import kernels as K
from ..kernels.numerics import Numerics, QuantParams, dequantize, quantize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..staticcheck.intervals import Interval
    from .graph import Graph

_INTERVALS = None


def _iv():
    """Lazy import of the interval domain (breaks the staticcheck cycle)."""
    global _INTERVALS
    if _INTERVALS is None:
        from ..staticcheck import intervals as mod

        _INTERVALS = mod
    return _INTERVALS

__all__ = [
    "OpCost",
    "ShapeError",
    "Op",
    "Conv2D",
    "DepthwiseConv2D",
    "FullyConnected",
    "AvgPool2D",
    "MaxPool2D",
    "GlobalAvgPool",
    "ResizeBilinear",
    "Add",
    "Concat",
    "Activation",
    "Softmax",
    "Reshape",
    "BatchNorm",
    "LayerNorm",
    "MultiHeadAttention",
    "Embedding",
    "Split",
    "LSTM",
    "DepthToSpace",
    "Constant",
    "Pad",
    "ACTIVATION_FUNCTIONS",
]


ACTIVATION_FUNCTIONS = {
    "relu": K.relu,
    "relu6": K.relu6,
    "hard_swish": K.hard_swish,
    "hard_sigmoid": K.hard_sigmoid,
    "sigmoid": K.sigmoid,
    "tanh": K.tanh,
    "gelu": K.gelu,
}


@dataclass(frozen=True)
class OpCost:
    """Analytical cost of one operator execution for a single sample."""

    macs: int = 0
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0

    def __add__(self, other: "OpCost") -> "OpCost":
        return OpCost(
            self.macs + other.macs,
            self.weight_bytes + other.weight_bytes,
            self.activation_bytes + other.activation_bytes,
        )


class ShapeError(ValueError):
    """Shape inference failed; carries op name, op type and input shapes."""

    def __init__(self, op: "Op", reason: str, in_shapes: Sequence[tuple[int, ...]]):
        self.op_name = op.name
        self.op_type = op.op_type
        self.in_shapes = [tuple(s) for s in in_shapes]
        super().__init__(
            f"{self.op_type} op {op.name!r}: {reason} "
            f"(input shapes: {self.in_shapes})"
        )


def _shape_elems(shape: Sequence[int]) -> int:
    n = 1
    for d in shape:
        if d != -1:
            n *= d
    return n


def _real_param(graph: "Graph", name: str) -> np.ndarray | None:
    """A parameter's real-valued matrix (dequantized when it carries qparams)."""
    arr = graph.params.get(name)
    if arr is None:
        return None
    qp = graph.param_qparams.get(name)
    if qp is not None:
        return dequantize(arr, qp).astype(np.float64)
    return np.asarray(arr, dtype=np.float64)


def _qparams_equal(a: QuantParams | None, b: QuantParams | None) -> bool:
    """True when two quantization params describe the identical affine map."""
    if a is None or b is None:
        return a is b
    return (
        a.numerics is b.numerics
        and a.axis == b.axis
        and np.array_equal(a.scale, b.scale)
        and np.array_equal(a.zero_point, b.zero_point)
    )


def _reduction_interval(
    w_flat: np.ndarray,
    x,
    bias: np.ndarray | None,
    *,
    include_zero: bool,
):
    """Interval of ``Σ_i w_i·x_i + b`` per output column, hulled over columns.

    ``w_flat`` is the real weight matrix reshaped to ``(reduction, out)``;
    every ``x_i`` independently ranges over the interval ``x``.
    ``include_zero`` widens each term with 0 (a "same"-padded tap contributes
    nothing). The result is padded by the float32 dot-product error bound, so
    it contains the kernel's floating-point output, not just the real one.
    """
    Interval = _iv().Interval
    if not x.is_bounded:
        return Interval.top()
    a = w_flat * x.lo
    b = w_flat * x.hi
    term_lo = np.minimum(a, b)
    term_hi = np.maximum(a, b)
    if include_zero:
        term_lo = np.minimum(term_lo, 0.0)
        term_hi = np.maximum(term_hi, 0.0)
    lo = term_lo.sum(axis=0)
    hi = term_hi.sum(axis=0)
    mag = np.abs(w_flat).sum(axis=0) * x.max_abs
    if bias is not None:
        lo = lo + bias
        hi = hi + bias
        mag = mag + np.abs(bias)
    pad = _iv().dot_error_bound(w_flat.shape[0] + 1, float(mag.max(initial=0.0)))
    return Interval(float(lo.min()) - pad, float(hi.max()) + pad)


def _symbolic_reduction_interval(graph: "Graph", op: "Op", k: int, x):
    """Weight-free fallback: bound the reduction from the weight qparams.

    With only a quantization format for the weights, every real weight lies
    in ``[-A, A]`` with ``A = max_c scale_c · max(|qmin−zp|, |qmax−zp|)``;
    without even that, the reduction is unbounded.
    """
    Interval = _iv().Interval
    w_qp = graph.param_qparams.get(op.attrs["weight"])
    b_name = op.attrs.get("bias")
    if w_qp is None or not x.is_bounded or (b_name and graph.params.get(b_name) is None):
        return Interval.top()
    zp = w_qp.zero_point.astype(np.float64)
    amp = float(np.max(w_qp.scale * np.maximum(
        np.abs(w_qp.numerics.qmin - zp), np.abs(w_qp.numerics.qmax - zp))))
    m = k * amp * x.max_abs
    iv = Interval(-m, m)
    if b_name:
        b = _real_param(graph, b_name)
        iv = iv + Interval(float(b.min()), float(b.max()))
    return iv.widen(_iv().dot_error_bound(k + 1, m))


class Op:
    """Base operator. Subclasses set ``op_type`` and implement the hooks."""

    op_type = "base"
    integer_kernel = False  # True if execute_quantized is a real integer path

    def __init__(self, name: str, inputs: Sequence[str], outputs: Sequence[str], **attrs):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.attrs = dict(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.inputs}->{self.outputs}>"

    # -- interface ---------------------------------------------------------
    def param_names(self) -> list[str]:
        return []

    def infer_shapes(self, in_shapes: list[tuple[int, ...]], graph: "Graph") -> list[tuple[int, ...]]:
        raise NotImplementedError

    def infer_ranges(
        self, in_ranges: list["Interval"], in_shapes: list[tuple[int, ...]],
        graph: "Graph",
    ) -> list["Interval"]:
        """Sound value-interval transfer: concrete inputs inside ``in_ranges``
        imply concrete outputs inside the returned intervals (including
        float32 rounding). The base op knows nothing and returns ⊤."""
        return [_iv().Interval.top() for _ in self.outputs]

    def execute_float(self, inputs: list[np.ndarray], graph: "Graph") -> list[np.ndarray]:
        raise NotImplementedError

    def execute_quantized(self, inputs: list[np.ndarray], graph: "Graph") -> list[np.ndarray]:
        """Default float-fallback: dequantize -> float kernel -> quantize."""
        deq = []
        for name, arr in zip(self.inputs, inputs):
            qp = graph.spec(name).qparams
            deq.append(dequantize(arr, qp) if qp is not None else arr)
        outs = self.execute_float(deq, graph)
        result = []
        for name, arr in zip(self.outputs, outs):
            qp = graph.spec(name).qparams
            result.append(quantize(arr, qp) if qp is not None else arr)
        return result

    def cost(
        self,
        in_shapes: list[tuple[int, ...]],
        out_shapes: list[tuple[int, ...]],
        graph: "Graph",
        numerics: Numerics = Numerics.FP32,
    ) -> OpCost:
        act = sum(_shape_elems(s) for s in in_shapes) + sum(_shape_elems(s) for s in out_shapes)
        w_elems = sum(graph.param_elements(p) for p in self.param_names())
        b = numerics.bytes_per_element
        return OpCost(
            macs=self.macs(in_shapes, out_shapes, graph),
            weight_bytes=w_elems * b,
            activation_bytes=act * b,
        )

    def macs(self, in_shapes, out_shapes, graph: "Graph") -> int:
        return 0

    def _apply_activation(self, x: np.ndarray) -> np.ndarray:
        act = self.attrs.get("activation")
        if act is None:
            return x
        return ACTIVATION_FUNCTIONS[act](x)


class Conv2D(Op):
    op_type = "conv2d"
    integer_kernel = True

    def param_names(self) -> list[str]:
        names = [self.attrs["weight"]]
        if self.attrs.get("bias"):
            names.append(self.attrs["bias"])
        return names

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        kh, kw, cin, cout = graph.param_shape(self.attrs["weight"])
        if cin != c:
            raise ShapeError(
                self, f"input has {c} channels but weight expects {cin}", in_shapes)
        oh, ow, _, _ = K.conv_output_shape(
            h, w, kh, kw, self.attrs["stride"], self.attrs["padding"],
            self.attrs.get("dilation", 1),
        )
        return [(n, oh, ow, cout)]

    def execute_float(self, inputs, graph):
        w = graph.params[self.attrs["weight"]]
        b = graph.params.get(self.attrs.get("bias"))
        out = K.conv2d(
            inputs[0], w, b, stride=self.attrs["stride"], padding=self.attrs["padding"],
            dilation=self.attrs.get("dilation", 1),
        )
        return [self._apply_activation(out)]

    def execute_quantized(self, inputs, graph):
        wq = graph.params[self.attrs["weight"]]
        bq = graph.params.get(self.attrs.get("bias"))
        x_qp = graph.spec(self.inputs[0]).qparams
        w_qp = graph.param_qparams[self.attrs["weight"]]
        out_qp = graph.spec(self.outputs[0]).qparams
        out = K.conv2d_quantized(
            inputs[0], wq, bq, x_qp, w_qp, out_qp,
            stride=self.attrs["stride"], padding=self.attrs["padding"],
            dilation=self.attrs.get("dilation", 1),
        )
        act = self.attrs.get("activation")
        if act in ("relu", "relu6"):
            # clamp in the integer domain at the quantized representation of 0/6
            zp = int(out_qp.zero_point[0])
            lo = zp
            hi = out_qp.numerics.qmax
            if act == "relu6":
                hi = min(hi, int(round(6.0 / float(out_qp.scale[0])) + zp))
            out = np.clip(out, lo, hi).astype(out_qp.numerics.np_dtype)
        elif act is not None:
            lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
            out = K.apply_quantized_lut(out, lut, out_qp)
        return [out]

    def macs(self, in_shapes, out_shapes, graph):
        kh, kw, cin, cout = graph.param_shape(self.attrs["weight"])
        _, oh, ow, _ = out_shapes[0]
        return oh * ow * kh * kw * cin * cout

    def infer_ranges(self, in_ranges, in_shapes, graph):
        w = _real_param(graph, self.attrs["weight"])
        act = self.attrs.get("activation")
        same = self.attrs["padding"] == "same"
        if w is None:
            iv = _symbolic_reduction_interval(
                graph, self, self._reduction_len(graph), in_ranges[0])
        else:
            b_name = self.attrs.get("bias")
            bias = _real_param(graph, b_name) if b_name else None
            iv = _reduction_interval(
                self._weight_as_matrix(w), in_ranges[0], bias, include_zero=same)
        return [_iv().activation_transfer(act, iv)]

    def _weight_as_matrix(self, w: np.ndarray) -> np.ndarray:
        # (kh, kw, Cin, Cout) -> (kh*kw*Cin, Cout): reduction per output channel
        return w.reshape(-1, w.shape[-1])

    def _reduction_len(self, graph: "Graph") -> int:
        kh, kw, cin, _ = graph.param_shape(self.attrs["weight"])
        return kh * kw * cin


class DepthwiseConv2D(Conv2D):
    op_type = "depthwise_conv2d"

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        kh, kw, wc, mult = graph.param_shape(self.attrs["weight"])
        if wc != c or mult != 1:
            raise ShapeError(
                self,
                f"depthwise weight {graph.param_shape(self.attrs['weight'])} "
                f"needs channel dim {c} and multiplier 1",
                in_shapes)
        oh, ow, _, _ = K.conv_output_shape(h, w, kh, kw, self.attrs["stride"], self.attrs["padding"])
        return [(n, oh, ow, c)]

    def execute_float(self, inputs, graph):
        w = graph.params[self.attrs["weight"]]
        b = graph.params.get(self.attrs.get("bias"))
        out = K.depthwise_conv2d(
            inputs[0], w, b, stride=self.attrs["stride"], padding=self.attrs["padding"]
        )
        return [self._apply_activation(out)]

    def execute_quantized(self, inputs, graph):
        wq = graph.params[self.attrs["weight"]]
        bq = graph.params.get(self.attrs.get("bias"))
        x_qp = graph.spec(self.inputs[0]).qparams
        w_qp = graph.param_qparams[self.attrs["weight"]]
        out_qp = graph.spec(self.outputs[0]).qparams
        out = K.depthwise_conv2d_quantized(
            inputs[0], wq, bq, x_qp, w_qp, out_qp,
            stride=self.attrs["stride"], padding=self.attrs["padding"],
        )
        act = self.attrs.get("activation")
        if act in ("relu", "relu6"):
            zp = int(out_qp.zero_point[0])
            hi = out_qp.numerics.qmax
            if act == "relu6":
                hi = min(hi, int(round(6.0 / float(out_qp.scale[0])) + zp))
            out = np.clip(out, zp, hi).astype(out_qp.numerics.np_dtype)
        elif act is not None:
            lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
            out = K.apply_quantized_lut(out, lut, out_qp)
        return [out]

    def macs(self, in_shapes, out_shapes, graph):
        kh, kw, c, _ = graph.param_shape(self.attrs["weight"])
        _, oh, ow, _ = out_shapes[0]
        return oh * ow * kh * kw * c

    def _weight_as_matrix(self, w: np.ndarray) -> np.ndarray:
        # (kh, kw, C, 1) -> (kh*kw, C): per-channel window reduction
        return w[..., 0].reshape(-1, w.shape[2])

    def _reduction_len(self, graph: "Graph") -> int:
        kh, kw, _, _ = graph.param_shape(self.attrs["weight"])
        return kh * kw


class FullyConnected(Op):
    op_type = "fully_connected"
    integer_kernel = True

    def param_names(self) -> list[str]:
        names = [self.attrs["weight"]]
        if self.attrs.get("bias"):
            names.append(self.attrs["bias"])
        return names

    def infer_shapes(self, in_shapes, graph):
        fin, fout = graph.param_shape(self.attrs["weight"])
        shape = in_shapes[0]
        if shape[-1] != fin:
            raise ShapeError(
                self, f"feature dim {shape[-1]} != weight input dim {fin}", in_shapes)
        return [shape[:-1] + (fout,)]

    def execute_float(self, inputs, graph):
        w = graph.params[self.attrs["weight"]]
        b = graph.params.get(self.attrs.get("bias"))
        return [self._apply_activation(K.fully_connected(inputs[0], w, b))]

    def execute_quantized(self, inputs, graph):
        wq = graph.params[self.attrs["weight"]]
        bq = graph.params.get(self.attrs.get("bias"))
        x_qp = graph.spec(self.inputs[0]).qparams
        w_qp = graph.param_qparams[self.attrs["weight"]]
        out_qp = graph.spec(self.outputs[0]).qparams
        out = K.fully_connected_quantized(inputs[0], wq, bq, x_qp, w_qp, out_qp)
        act = self.attrs.get("activation")
        if act is not None:
            lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
            out = K.apply_quantized_lut(out, lut, out_qp)
        return [out]

    def macs(self, in_shapes, out_shapes, graph):
        fin, fout = graph.param_shape(self.attrs["weight"])
        lead = _shape_elems(in_shapes[0][:-1])
        return lead * fin * fout

    def infer_ranges(self, in_ranges, in_shapes, graph):
        w = _real_param(graph, self.attrs["weight"])
        act = self.attrs.get("activation")
        if w is None:
            fin = graph.param_shape(self.attrs["weight"])[0]
            iv = _symbolic_reduction_interval(graph, self, fin, in_ranges[0])
        else:
            b_name = self.attrs.get("bias")
            bias = _real_param(graph, b_name) if b_name else None
            iv = _reduction_interval(w, in_ranges[0], bias, include_zero=False)
        return [_iv().activation_transfer(act, iv)]


class AvgPool2D(Op):
    op_type = "avg_pool2d"

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        oh, ow, _, _ = K.conv_output_shape(
            h, w, self.attrs["k"], self.attrs["k"], self.attrs["stride"], self.attrs["padding"]
        )
        return [(n, oh, ow, c)]

    def execute_float(self, inputs, graph):
        return [K.avg_pool2d(inputs[0], self.attrs["k"], self.attrs["stride"], self.attrs["padding"])]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        iv = in_ranges[0]
        if not iv.is_bounded:
            return [iv]
        if self.attrs["padding"] == "same":
            # zero-padded taps participate in the mean
            iv = iv.hull(_iv().Interval.point(0.0))
        k2 = self.attrs["k"] ** 2
        pad = _iv().dot_error_bound(k2 + 1, iv.max_abs * k2) / max(k2, 1)
        return [iv.widen(pad).pad_f32()]


class MaxPool2D(AvgPool2D):
    op_type = "max_pool2d"

    def execute_float(self, inputs, graph):
        return [K.max_pool2d(inputs[0], self.attrs["k"], self.attrs["stride"], self.attrs["padding"])]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        # exact selection of an existing element (padding uses -inf taps)
        return [in_ranges[0]]


class GlobalAvgPool(Op):
    op_type = "global_avg_pool"

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        if self.attrs.get("keepdims", True):
            return [(n, 1, 1, c)]
        return [(n, c)]

    def execute_float(self, inputs, graph):
        return [K.global_avg_pool(inputs[0], keepdims=self.attrs.get("keepdims", True))]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        iv = in_ranges[0]
        if not iv.is_bounded:
            return [iv]
        hw = _shape_elems(in_shapes[0][1:3]) if len(in_shapes[0]) == 4 else 1
        pad = _iv().dot_error_bound(hw + 1, iv.max_abs * hw) / max(hw, 1)
        return [iv.widen(pad).pad_f32()]


class ResizeBilinear(Op):
    op_type = "resize_bilinear"

    def infer_shapes(self, in_shapes, graph):
        n, _, _, c = in_shapes[0]
        return [(n, self.attrs["out_h"], self.attrs["out_w"], c)]

    def execute_float(self, inputs, graph):
        return [
            K.resize_bilinear(
                inputs[0],
                self.attrs["out_h"],
                self.attrs["out_w"],
                self.attrs.get("align_corners", False),
            )
        ]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        # convex combination of existing samples, plus interpolation rounding
        return [in_ranges[0].pad_f32() if in_ranges[0].is_bounded else in_ranges[0]]


class Add(Op):
    op_type = "add"

    def infer_shapes(self, in_shapes, graph):
        if len(in_shapes) != 2:
            raise ShapeError(self, f"needs exactly 2 inputs, got {len(in_shapes)}", in_shapes)
        if in_shapes[0][1:] != in_shapes[1][1:]:
            raise ShapeError(self, "operand shapes disagree beyond the batch dim", in_shapes)
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        return [self._apply_activation((inputs[0] + inputs[1]).astype(np.float32))]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        iv = in_ranges[0] + in_ranges[1]
        if iv.is_bounded:
            iv = iv.pad_f32()
        return [_iv().activation_transfer(self.attrs.get("activation"), iv)]


class Concat(Op):
    op_type = "concat"

    def infer_shapes(self, in_shapes, graph):
        axis = self.attrs["axis"]
        base = list(in_shapes[0])
        if not -len(base) <= axis < len(base):
            raise ShapeError(self, f"axis {axis} out of range for rank {len(base)}", in_shapes)
        for s in in_shapes[1:]:
            if len(s) != len(base):
                raise ShapeError(self, "inputs have different ranks", in_shapes)
            mismatched = [
                d for d in range(len(base))
                if d != axis % len(base) and s[d] != base[d]
            ]
            if mismatched:
                raise ShapeError(
                    self, f"inputs disagree on non-concat dim(s) {mismatched}", in_shapes)
        base[axis] = sum(s[axis] for s in in_shapes)
        return [tuple(base)]

    def execute_float(self, inputs, graph):
        return [np.concatenate(inputs, axis=self.attrs["axis"]).astype(np.float32)]

    def execute_quantized(self, inputs, graph):
        # requantize every input into the shared output domain, then concat
        out_qp = graph.spec(self.outputs[0]).qparams
        if out_qp is None:
            return [np.concatenate(inputs, axis=self.attrs["axis"])]
        parts = []
        for name, arr in zip(self.inputs, inputs):
            qp = graph.spec(name).qparams
            parts.append(quantize(dequantize(arr, qp), out_qp) if qp is not None else arr)
        return [np.concatenate(parts, axis=self.attrs["axis"])]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        iv = in_ranges[0]
        for other in in_ranges[1:]:
            iv = iv.hull(other)
        return [iv]


class Activation(Op):
    op_type = "activation"
    integer_kernel = True

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        return [ACTIVATION_FUNCTIONS[self.attrs["kind"]](inputs[0])]

    def execute_quantized(self, inputs, graph):
        in_qp = graph.spec(self.inputs[0]).qparams
        out_qp = graph.spec(self.outputs[0]).qparams
        if in_qp is None or out_qp is None:
            return super().execute_quantized(inputs, graph)
        lut = K.quantized_lut(ACTIVATION_FUNCTIONS[self.attrs["kind"]], in_qp, out_qp)
        return [K.apply_quantized_lut(inputs[0], lut, in_qp)]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        return [_iv().activation_transfer(self.attrs["kind"], in_ranges[0])]


class Softmax(Op):
    op_type = "softmax"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        return [K.softmax(inputs[0], axis=self.attrs.get("axis", -1))]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        return [_iv().Interval(0.0, 1.0)]


class Reshape(Op):
    op_type = "reshape"

    def infer_shapes(self, in_shapes, graph):
        target = self.attrs["shape"]  # per-sample shape
        in_elems = _shape_elems(in_shapes[0][1:])
        if _shape_elems(target) != in_elems:
            raise ShapeError(
                self,
                f"cannot reshape {in_elems} elements/sample to (batch, *{tuple(target)})",
                in_shapes)
        return [(in_shapes[0][0],) + tuple(target)]

    def execute_float(self, inputs, graph):
        batch = inputs[0].shape[0]
        return [np.ascontiguousarray(inputs[0]).reshape(batch, *self.attrs["shape"])]

    def execute_quantized(self, inputs, graph):
        return self.execute_float(inputs, graph)

    def infer_ranges(self, in_ranges, in_shapes, graph):
        return [in_ranges[0]]  # pure data movement


class BatchNorm(Op):
    """Inference batch norm; exists pre-export and is folded by the converter."""

    op_type = "batch_norm"

    def param_names(self) -> list[str]:
        return [self.attrs[k] for k in ("mean", "variance", "gamma", "beta")]

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        p = graph.params
        return [
            K.batch_norm(
                inputs[0],
                p[self.attrs["mean"]],
                p[self.attrs["variance"]],
                p[self.attrs["gamma"]],
                p[self.attrs["beta"]],
                self.attrs.get("eps", 1e-3),
            )
        ]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        Interval = _iv().Interval
        x = in_ranges[0]
        mean = _real_param(graph, self.attrs["mean"])
        var = _real_param(graph, self.attrs["variance"])
        gamma = _real_param(graph, self.attrs["gamma"])
        beta = _real_param(graph, self.attrs["beta"])
        if any(p is None for p in (mean, var, gamma, beta)) or not x.is_bounded:
            return [Interval.top()]
        # y_c = a_c·x + b_c with a_c = γ_c/√(var_c+eps); hull over channels
        a = gamma / np.sqrt(var + self.attrs.get("eps", 1e-3))
        b = beta - a * mean
        lo = np.minimum(a * x.lo, a * x.hi) + b
        hi = np.maximum(a * x.lo, a * x.hi) + b
        return [Interval(float(lo.min()), float(hi.max())).pad_f32()]


class LayerNorm(Op):
    op_type = "layer_norm"

    def param_names(self) -> list[str]:
        return [self.attrs["gamma"], self.attrs["beta"]]

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        return [
            K.layer_norm(
                inputs[0],
                graph.params[self.attrs["gamma"]],
                graph.params[self.attrs["beta"]],
                self.attrs.get("eps", 1e-6),
            )
        ]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        Interval = _iv().Interval
        gamma = _real_param(graph, self.attrs["gamma"])
        beta = _real_param(graph, self.attrs["beta"])
        if gamma is None or beta is None or not in_ranges[0].is_bounded:
            return [Interval.top()]
        # the normalized vector z satisfies ‖z‖₂ = √N, so |z_i| ≤ √N for any
        # input; y_c = γ_c·z + β_c, hulled over channels
        n = in_shapes[0][-1]
        z = math.sqrt(float(n)) * (1.0 + 1e-5)  # float32 normalization slack
        lo = np.minimum(gamma * -z, gamma * z) + beta
        hi = np.maximum(gamma * -z, gamma * z) + beta
        return [Interval(float(lo.min()), float(hi.max())).pad_f32()]


class MultiHeadAttention(Op):
    """Fused scaled-dot-product attention over already-projected q/k/v."""

    op_type = "attention"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def execute_float(self, inputs, graph):
        mask = inputs[3] if len(inputs) > 3 else None
        return [K.multi_head_attention(inputs[0], inputs[1], inputs[2], self.attrs["num_heads"], mask)]

    def macs(self, in_shapes, out_shapes, graph):
        _, s, hidden = in_shapes[0]
        return 2 * s * s * hidden

    def infer_ranges(self, in_ranges, in_shapes, graph):
        # softmax weights are a convex combination of the value rows, so the
        # output lives in the hull of v's interval regardless of q/k
        v = in_ranges[2]
        if not v.is_bounded:
            return [v]
        s = in_shapes[0][1]
        return [v.widen(_iv().dot_error_bound(s + 1, v.max_abs * 1.01)).pad_f32()]


class Embedding(Op):
    """Token-id gather plus learned position embeddings."""

    op_type = "embedding"

    def param_names(self) -> list[str]:
        names = [self.attrs["table"]]
        if self.attrs.get("position_table"):
            names.append(self.attrs["position_table"])
        return names

    def infer_shapes(self, in_shapes, graph):
        n, s = in_shapes[0]
        _, d = graph.param_shape(self.attrs["table"])
        return [(n, s, d)]

    def execute_float(self, inputs, graph):
        ids = inputs[0].astype(np.int64)
        table = graph.params[self.attrs["table"]]
        out = table[np.clip(ids, 0, table.shape[0] - 1)]
        pos = self.attrs.get("position_table")
        if pos:
            out = out + graph.params[pos][None, : ids.shape[1]]
        return [out.astype(np.float32)]

    def execute_quantized(self, inputs, graph):
        # ids are never quantized; only the output gets quantized
        outs = self.execute_float(inputs, graph)
        qp = graph.spec(self.outputs[0]).qparams
        return [quantize(outs[0], qp) if qp is not None else outs[0]]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        Interval = _iv().Interval
        table = _real_param(graph, self.attrs["table"])
        if table is None:
            return [Interval.top()]
        iv = Interval(float(table.min()), float(table.max()))
        pos_name = self.attrs.get("position_table")
        if pos_name:
            pos = _real_param(graph, pos_name)
            if pos is None:
                return [Interval.top()]
            iv = iv + Interval(float(pos.min()), float(pos.max()))
        return [iv.pad_f32()]


class Split(Op):
    """Split the last axis into equal parts (e.g. start/end QA logits)."""

    op_type = "split"

    def infer_shapes(self, in_shapes, graph):
        parts = self.attrs["parts"]
        last = in_shapes[0][-1]
        if last % parts:
            raise ShapeError(
                self, f"last dim {last} not divisible into {parts} parts", in_shapes)
        return [in_shapes[0][:-1] + (last // parts,)] * parts

    def execute_float(self, inputs, graph):
        return [np.ascontiguousarray(a) for a in np.split(inputs[0], self.attrs["parts"], axis=-1)]

    def execute_quantized(self, inputs, graph):
        return self.execute_float(inputs, graph)

    def infer_ranges(self, in_ranges, in_shapes, graph):
        return [in_ranges[0]] * self.attrs["parts"]  # pure data movement


class LSTM(Op):
    """Full-sequence LSTM (the streaming-speech encoder substrate, App. E).

    Runs in float even inside quantized graphs (its state recurrence is the
    classic hard case for per-tensor activation quantization); quantized
    deployments keep it as a float island with boundary (de)quantization.
    """

    op_type = "lstm"

    def param_names(self) -> list[str]:
        return [self.attrs["w_ih"], self.attrs["w_hh"], self.attrs["bias"]]

    def infer_shapes(self, in_shapes, graph):
        n, t, _ = in_shapes[0]
        hidden = graph.param_shape(self.attrs["w_hh"])[0]
        return [(n, t, hidden)]

    def execute_float(self, inputs, graph):
        return [
            K.lstm_sequence(
                np.asarray(inputs[0], dtype=np.float32),
                graph.params[self.attrs["w_ih"]],
                graph.params[self.attrs["w_hh"]],
                graph.params[self.attrs["bias"]],
            )
        ]

    def macs(self, in_shapes, out_shapes, graph):
        _, t, f_in = in_shapes[0]
        hidden = graph.param_shape(self.attrs["w_hh"])[0]
        return t * 4 * hidden * (f_in + hidden)

    def infer_ranges(self, in_ranges, in_shapes, graph):
        # h_t = o_t · tanh(c_t) with o_t ∈ (0, 1), tanh ∈ (−1, 1)
        return [_iv().Interval(-1.0, 1.0)]


class Constant(Op):
    """Materialize a parameter as a tensor (leading broadcast dim of 1).

    With ``raw=True`` the stored parameter already holds the *runtime
    representation* (quantized codes in quantized graphs, fp16-cast floats
    in FP16 graphs) and is emitted verbatim. With ``raw=False`` the
    parameter is a real-valued array quantized on the way out like any
    other tensor.

    The output shape carries a symbolic batch dim (-1) and the value
    broadcasts along it; consumers that do not broadcast over the batch
    (e.g. concat along axis 0) must not be fed a Constant.
    """

    op_type = "constant"

    def param_names(self) -> list[str]:
        return [self.attrs["value"]]

    def infer_shapes(self, in_shapes, graph):
        if in_shapes:
            raise ShapeError(self, "constant takes no inputs", in_shapes)
        return [(-1,) + graph.param_shape(self.attrs["value"])]

    def execute_float(self, inputs, graph):
        v = graph.params[self.attrs["value"]]
        if self.attrs.get("raw"):
            return [np.asarray(v)[None]]
        return [np.asarray(v, dtype=np.float32)[None]]

    def execute_quantized(self, inputs, graph):
        v = graph.params[self.attrs["value"]]
        if self.attrs.get("raw"):
            return [np.asarray(v)[None]]
        qp = graph.spec(self.outputs[0]).qparams
        arr = np.asarray(v, dtype=np.float32)
        return [quantize(arr, qp)[None] if qp is not None else arr[None]]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        Interval = _iv().Interval
        v = _real_param(graph, self.attrs["value"])
        if v is None:
            return [Interval.top()]
        return [Interval(float(v.min()), float(v.max()))]


class Pad(Op):
    """Explicit spatial constant-padding of an NHWC tensor.

    Mirrors the TFLite PAD operator that mobile converters emit in front of
    stride-2 convolutions.
    """

    op_type = "pad"
    integer_kernel = True

    def infer_shapes(self, in_shapes, graph):
        if len(in_shapes[0]) != 4:
            raise ShapeError(self, "pad requires a rank-4 NHWC input", in_shapes)
        n, h, w, c = in_shapes[0]
        t, b = self.attrs["pads_h"]
        l, r = self.attrs["pads_w"]
        if min(t, b, l, r) < 0:
            raise ShapeError(self, "negative padding", in_shapes)
        return [(n, h + t + b, w + l + r, c)]

    def execute_float(self, inputs, graph):
        value = float(self.attrs.get("value", 0.0))
        return [
            np.pad(
                np.asarray(inputs[0], dtype=np.float32),
                ((0, 0), tuple(self.attrs["pads_h"]), tuple(self.attrs["pads_w"]), (0, 0)),
                constant_values=value,
            )
        ]

    def execute_quantized(self, inputs, graph):
        # pad with the quantized code of the constant (zero pads with the
        # zero point), staying in the integer domain. The interior codes are
        # copied verbatim, which is only valid when input and output share
        # qparams; otherwise fall back to the float path.
        in_qp = graph.spec(self.inputs[0]).qparams
        out_qp = graph.spec(self.outputs[0]).qparams
        if out_qp is None:
            return [
                np.pad(
                    inputs[0],
                    ((0, 0), tuple(self.attrs["pads_h"]), tuple(self.attrs["pads_w"]), (0, 0)),
                )
            ]
        if in_qp is None or not _qparams_equal(in_qp, out_qp):
            return super().execute_quantized(inputs, graph)
        value = float(self.attrs.get("value", 0.0))
        code = int(quantize(np.asarray([value], dtype=np.float32), out_qp)[0])
        return [
            np.pad(
                inputs[0],
                ((0, 0), tuple(self.attrs["pads_h"]), tuple(self.attrs["pads_w"]), (0, 0)),
                constant_values=code,
            )
        ]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        value = float(self.attrs.get("value", 0.0))
        iv = in_ranges[0]
        if not iv.is_bounded:
            return [iv]
        return [iv.hull(_iv().Interval.point(value))]


class DepthToSpace(Op):
    """Pixel-shuffle upsampling (super-resolution models, App. E)."""

    op_type = "depth_to_space"

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        block = self.attrs["block"]
        if c % (block * block):
            raise ShapeError(
                self, f"channels {c} not divisible by block^2 = {block * block}", in_shapes)
        return [(n, h * block, w * block, c // (block * block))]

    def execute_float(self, inputs, graph):
        return [K.depth_to_space(inputs[0], self.attrs["block"])]

    def execute_quantized(self, inputs, graph):
        # pure data movement: the integer payload is rearranged, not rescaled
        return [K.depth_to_space(inputs[0], self.attrs["block"])]

    def infer_ranges(self, in_ranges, in_shapes, graph):
        return [in_ranges[0]]  # pure data movement
