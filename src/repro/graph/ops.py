"""Operator set of the graph IR.

Each operator knows how to (1) infer output shapes, (2) prepare its kernel
for a graph's numerics, and (3) report an analytical cost (:class:`OpCost`)
consumed by the hardware performance model.

Execution semantics are written once per op, as ``prepare(graph)``: like a
TFLite kernel's prepare/invoke pair, it does all compile-time work (the
weighted kernels' own ``prepare_*`` step, LUTs, qparam and attribute
lookups) and returns the per-call closure. The execution plan, BN
calibration and every instrumented run go through it.

The op vocabulary mirrors the TFLite subset the five MLPerf Mobile reference
models require. Quantized execution uses true integer kernels for the
MAC-dominated ops (conv / depthwise / fully-connected) and LUTs for unary
activations; data-movement ops move integer codes unchanged; the remaining
ops fall back to dequantize -> float -> quantize, exactly as TFLite does for
its "float fallback" islands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .. import kernels as K
from ..kernels.numerics import Numerics, QuantParams, dequantize, quantize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import Graph

__all__ = [
    "OpCost",
    "ShapeError",
    "Op",
    "Conv2D",
    "DepthwiseConv2D",
    "FullyConnected",
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
    "ACTIVATION_FUNCTIONS",
    "Kernel",
]

# a prepared op: input arrays in, freshly computed output arrays out
Kernel = Callable[[list[np.ndarray]], list[np.ndarray]]


ACTIVATION_FUNCTIONS = {
    "relu": K.relu,
    "relu6": K.relu6,
    "sigmoid": K.sigmoid,
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


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _float_epilogue(act: str | None) -> Callable[[np.ndarray], np.ndarray]:
    """The fused float activation, applied to a kernel's fresh output.

    relu and relu6 clamp that array in place; the other activations
    allocate their result.
    """
    if act == "relu":
        return lambda out: np.maximum(out, 0.0, out=out)
    if act == "relu6":
        return lambda out: np.clip(out, 0.0, 6.0, out=out)
    return ACTIVATION_FUNCTIONS[act] if act is not None else _identity


def _quantized_epilogue(
    act: str | None, out_qp: QuantParams
) -> Callable[[np.ndarray], np.ndarray]:
    """The fused activation of an integer kernel, in its output code domain.

    relu/relu6 clamp the kernel's fresh codes in place at the quantized
    representation of 0 and 6 (the same codes their LUT would give); other
    activations gather through a LUT into a new array.
    """
    if act is None:
        return _identity
    if act in ("relu", "relu6"):
        lo = int(out_qp.zero_point[0])
        hi = out_qp.numerics.qmax
        if act == "relu6":
            hi = min(hi, int(round(6.0 / float(out_qp.scale[0])) + lo))
        return lambda out: np.clip(out, lo, hi, out=out)
    lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
    return lambda out: K.apply_quantized_lut(out, lut, out_qp)


def _shape_elems(shape: Sequence[int]) -> int:
    n = 1
    for d in shape:
        if d != -1:
            n *= d
    return n


class Op:
    """Base operator. Subclasses set ``op_type`` and implement the hooks."""

    op_type = "base"
    # pure data movement: quantized codes pass through unchanged, so the
    # quantized kernel is the float one and the output shares input qparams
    pass_through = False

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

    def prepare(self, graph: "Graph") -> Kernel:
        """Compile this op for ``graph``'s numerics into a per-call closure.

        The closure never writes into its inputs; a fused epilogue writes
        only into the kernel's freshly allocated output. FP16 rounding of
        the outputs is the caller's job (the plan applies it to every op).
        """
        if graph.numerics.is_quantized:
            return self._prepare_quantized(graph)
        return self._prepare_float(graph)

    def _prepare_float(self, graph: "Graph") -> Kernel:
        raise NotImplementedError

    def missing_qparams(self, graph: "Graph") -> list[str]:
        """The qparams this op's integer kernel needs and ``graph`` lacks
        (``"input"``, ``"weight"``, ``"output"``). Non-empty means the op
        runs the float fallback; an op with no integer kernel needs none."""
        return []

    def _prepare_quantized(self, graph: "Graph") -> Kernel:
        """The float kernel as-is for a pass-through op; otherwise the float
        fallback: dequantize inputs -> float kernel -> quantize outputs."""
        fn = self._prepare_float(graph)
        if self.pass_through:
            return fn
        in_qps = [graph.spec(t).qparams for t in self.inputs]
        out_qps = [graph.spec(t).qparams for t in self.outputs]

        def fallback(ins):
            outs = fn([x if qp is None else dequantize(x, qp) for x, qp in zip(ins, in_qps)])
            return [y if qp is None else quantize(y, qp) for y, qp in zip(outs, out_qps)]
        return fallback

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


class _WeightedOp(Op):
    """An op whose weight (and optional bias) feed a ``prepare_*`` kernel.

    Subclasses name one kernel prepare function per numerics domain and the
    geometry keywords it takes (:meth:`_window`). Weights, geometry and
    (quantized) qparams are bound at prepare time; the closure maps the
    input to the kernel's fresh output, then applies the fused epilogue.
    """

    _float_kernel: Callable  # (w, b, **window) -> x -> y
    _quantized_kernel: Callable  # (wq, bq, x_qp, w_qp, out_qp, **window) -> xq -> yq

    def param_names(self) -> list[str]:
        names = [self.attrs["weight"]]
        if self.attrs.get("bias"):
            names.append(self.attrs["bias"])
        return names

    def _window(self) -> dict:
        return {}

    def _params(self, graph: "Graph") -> tuple[np.ndarray, np.ndarray | None]:
        return graph.params[self.attrs["weight"]], graph.params.get(self.attrs.get("bias"))

    def _prepare_float(self, graph):
        run = self._float_kernel(*self._params(graph), **self._window())
        post = _float_epilogue(self.attrs.get("activation"))
        return lambda ins: [post(run(ins[0]))]

    def _qparams(self, graph) -> tuple[QuantParams | None, ...]:
        """(input, weight, output) qparams; any may be None."""
        return (graph.spec(self.inputs[0]).qparams,
                graph.param_qparams.get(self.attrs["weight"]),
                graph.spec(self.outputs[0]).qparams)

    def missing_qparams(self, graph):
        return [label for label, qp in zip(("input", "weight", "output"), self._qparams(graph))
                if qp is None]

    def _prepare_quantized(self, graph):
        if self.missing_qparams(graph):
            return super()._prepare_quantized(graph)
        x_qp, w_qp, out_qp = self._qparams(graph)
        run = self._quantized_kernel(*self._params(graph), x_qp, w_qp, out_qp, **self._window())
        post = _quantized_epilogue(self.attrs.get("activation"), out_qp)

        def integer_kernel(ins):
            return [post(run(ins[0]))]

        integer_kernel.operand_dtype = run.operand_dtype  # read by ExecutionPlan.describe
        return integer_kernel


class Conv2D(_WeightedOp):
    op_type = "conv2d"
    _float_kernel = staticmethod(K.prepare_conv2d)
    _quantized_kernel = staticmethod(K.prepare_conv2d_quantized)

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

    def _window(self) -> dict:
        return {
            "stride": self.attrs["stride"],
            "padding": self.attrs["padding"],
            "dilation": self.attrs.get("dilation", 1),
        }

    def macs(self, in_shapes, out_shapes, graph):
        kh, kw, cin, cout = graph.param_shape(self.attrs["weight"])
        _, oh, ow, _ = out_shapes[0]
        return oh * ow * kh * kw * cin * cout


class DepthwiseConv2D(Conv2D):
    op_type = "depthwise_conv2d"
    _float_kernel = staticmethod(K.prepare_depthwise_conv2d)
    _quantized_kernel = staticmethod(K.prepare_depthwise_conv2d_quantized)

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

    def _window(self) -> dict:
        return {"stride": self.attrs["stride"], "padding": self.attrs["padding"]}

    def macs(self, in_shapes, out_shapes, graph):
        kh, kw, c, _ = graph.param_shape(self.attrs["weight"])
        _, oh, ow, _ = out_shapes[0]
        return oh * ow * kh * kw * c


class FullyConnected(_WeightedOp):
    op_type = "fully_connected"
    _float_kernel = staticmethod(K.prepare_fully_connected)
    _quantized_kernel = staticmethod(K.prepare_fully_connected_quantized)

    def infer_shapes(self, in_shapes, graph):
        fin, fout = graph.param_shape(self.attrs["weight"])
        shape = in_shapes[0]
        if shape[-1] != fin:
            raise ShapeError(
                self, f"feature dim {shape[-1]} != weight input dim {fin}", in_shapes)
        return [shape[:-1] + (fout,)]

    def macs(self, in_shapes, out_shapes, graph):
        fin, fout = graph.param_shape(self.attrs["weight"])
        lead = _shape_elems(in_shapes[0][:-1])
        return lead * fin * fout


class GlobalAvgPool(Op):
    op_type = "global_avg_pool"

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        if self.attrs.get("keepdims", True):
            return [(n, 1, 1, c)]
        return [(n, c)]

    def _prepare_float(self, graph):
        keepdims = self.attrs.get("keepdims", True)
        return lambda ins: [K.global_avg_pool(ins[0], keepdims=keepdims)]


class ResizeBilinear(Op):
    op_type = "resize_bilinear"

    def infer_shapes(self, in_shapes, graph):
        n, _, _, c = in_shapes[0]
        return [(n, self.attrs["out_h"], self.attrs["out_w"], c)]

    def _prepare_float(self, graph):
        out_h, out_w = self.attrs["out_h"], self.attrs["out_w"]
        align_corners = self.attrs.get("align_corners", False)
        return lambda ins: [K.resize_bilinear(ins[0], out_h, out_w, align_corners)]


class Add(Op):
    op_type = "add"

    def infer_shapes(self, in_shapes, graph):
        if len(in_shapes) != 2:
            raise ShapeError(self, f"needs exactly 2 inputs, got {len(in_shapes)}", in_shapes)
        if in_shapes[0][1:] != in_shapes[1][1:]:
            raise ShapeError(self, "operand shapes disagree beyond the batch dim", in_shapes)
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        post = _float_epilogue(self.attrs.get("activation"))
        return lambda ins: [post((ins[0] + ins[1]).astype(np.float32))]


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

    def _prepare_float(self, graph):
        axis = self.attrs["axis"]
        return lambda ins: [np.concatenate(ins, axis=axis).astype(np.float32)]

    def _prepare_quantized(self, graph):
        # requantize every input into the shared output domain, then concat
        axis = self.attrs["axis"]
        out_qp = graph.spec(self.outputs[0]).qparams
        if out_qp is None:
            return lambda ins: [np.concatenate(ins, axis=axis)]
        in_qps = [graph.spec(t).qparams for t in self.inputs]

        def concat(ins):
            parts = [
                x if qp is None else quantize(dequantize(x, qp), out_qp)
                for x, qp in zip(ins, in_qps)
            ]
            return [np.concatenate(parts, axis=axis)]
        return concat


class Activation(Op):
    op_type = "activation"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        fn = ACTIVATION_FUNCTIONS[self.attrs["kind"]]
        return lambda ins: [fn(ins[0])]

    def missing_qparams(self, graph):
        return [label for label, t in (("input", self.inputs[0]), ("output", self.outputs[0]))
                if graph.spec(t).qparams is None]

    def _prepare_quantized(self, graph):
        if self.missing_qparams(graph):
            return super()._prepare_quantized(graph)
        in_qp = graph.spec(self.inputs[0]).qparams
        out_qp = graph.spec(self.outputs[0]).qparams
        lut = K.quantized_lut(ACTIVATION_FUNCTIONS[self.attrs["kind"]], in_qp, out_qp)
        return lambda ins: [K.apply_quantized_lut(ins[0], lut, in_qp)]


class Softmax(Op):
    op_type = "softmax"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        axis = self.attrs.get("axis", -1)
        return lambda ins: [K.softmax(ins[0], axis=axis)]


class Reshape(Op):
    op_type = "reshape"
    pass_through = True

    def infer_shapes(self, in_shapes, graph):
        target = self.attrs["shape"]  # per-sample shape
        in_elems = _shape_elems(in_shapes[0][1:])
        if _shape_elems(target) != in_elems:
            raise ShapeError(
                self,
                f"cannot reshape {in_elems} elements/sample to (batch, *{tuple(target)})",
                in_shapes)
        return [(in_shapes[0][0],) + tuple(target)]

    def _prepare_float(self, graph):
        shape = tuple(self.attrs["shape"])
        return lambda ins: [np.ascontiguousarray(ins[0]).reshape(ins[0].shape[0], *shape)]


class BatchNorm(Op):
    """Inference batch norm; exists pre-export and is folded by the converter."""

    op_type = "batch_norm"

    def param_names(self) -> list[str]:
        return [self.attrs[k] for k in ("mean", "variance", "gamma", "beta")]

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        stats = [graph.params[self.attrs[k]] for k in ("mean", "variance", "gamma", "beta")]
        eps = self.attrs.get("eps", 1e-3)
        return lambda ins: [K.batch_norm(ins[0], *stats, eps)]


class LayerNorm(Op):
    op_type = "layer_norm"

    def param_names(self) -> list[str]:
        return [self.attrs["gamma"], self.attrs["beta"]]

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        gamma = graph.params[self.attrs["gamma"]]
        beta = graph.params[self.attrs["beta"]]
        eps = self.attrs.get("eps", 1e-6)
        return lambda ins: [K.layer_norm(ins[0], gamma, beta, eps)]


class MultiHeadAttention(Op):
    """Fused scaled-dot-product attention over already-projected q/k/v."""

    op_type = "attention"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]

    def _prepare_float(self, graph):
        heads = self.attrs["num_heads"]

        def attention(ins):
            mask = ins[3] if len(ins) > 3 else None
            return [K.multi_head_attention(ins[0], ins[1], ins[2], heads, mask)]
        return attention

    def macs(self, in_shapes, out_shapes, graph):
        _, s, hidden = in_shapes[0]
        return 2 * s * s * hidden


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

    def _prepare_float(self, graph):
        table = graph.params[self.attrs["table"]]
        pos_name = self.attrs.get("position_table")
        pos = graph.params[pos_name] if pos_name else None

        def embed(ins):
            ids = ins[0].astype(np.int64)
            out = table[np.clip(ids, 0, table.shape[0] - 1)]
            if pos is not None:
                out = out + pos[None, : ids.shape[1]]
            return [out.astype(np.float32)]
        return embed


class Split(Op):
    """Split the last axis into equal parts (e.g. start/end QA logits)."""

    op_type = "split"
    pass_through = True

    def infer_shapes(self, in_shapes, graph):
        parts = self.attrs["parts"]
        last = in_shapes[0][-1]
        if last % parts:
            raise ShapeError(
                self, f"last dim {last} not divisible into {parts} parts", in_shapes)
        return [in_shapes[0][:-1] + (last // parts,)] * parts

    def _prepare_float(self, graph):
        parts = self.attrs["parts"]
        return lambda ins: [np.ascontiguousarray(a) for a in np.split(ins[0], parts, axis=-1)]


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

    def _prepare_float(self, graph):
        weights = [graph.params[n] for n in self.param_names()]
        return lambda ins: [K.lstm_sequence(np.asarray(ins[0], dtype=np.float32), *weights)]

    def macs(self, in_shapes, out_shapes, graph):
        _, t, f_in = in_shapes[0]
        hidden = graph.param_shape(self.attrs["w_hh"])[0]
        return t * 4 * hidden * (f_in + hidden)


class DepthToSpace(Op):
    """Pixel-shuffle upsampling (super-resolution models, App. E)."""

    op_type = "depth_to_space"
    pass_through = True

    def infer_shapes(self, in_shapes, graph):
        n, h, w, c = in_shapes[0]
        block = self.attrs["block"]
        if c % (block * block):
            raise ShapeError(
                self, f"channels {c} not divisible by block^2 = {block * block}", in_shapes)
        return [(n, h * block, w * block, c // (block * block))]

    def _prepare_float(self, graph):
        block = self.attrs["block"]
        return lambda ins: [K.depth_to_space(ins[0], block)]
