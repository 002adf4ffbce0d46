"""Planned execution engine: one-time compilation of a materialized graph.

The LoadGen design rule (MLPerf Inference, arXiv:1911.02549) is that query
issuance and harness bookkeeping must never be the bottleneck — measured
latency has to reflect the workload. The legacy interpreter re-derived
everything per query: quantized conv kernels re-cast and re-reduced their
weight tensors on every call, activation LUTs were rebuilt per op call, and
the environment retained every intermediate for the whole pass.

An :class:`ExecutionPlan` is compiled once per ``(graph, numerics)`` and
caches three things:

1. **Prepacked constants** — weight matrices, zero-point column sums,
   effective scales, widened biases and activation LUTs, via the kernel-level
   prepack API (:mod:`repro.kernels.conv`, :mod:`repro.kernels.linear`).
2. **Dispatch** — each op is bound to a prepared closure, so the per-query
   loop is a flat list of calls with no attribute/spec lookups.
3. **Tensor liveness** — each intermediate is released from the environment
   right after its last consumer runs, so peak live activation bytes track
   the true working set instead of the whole activation footprint.

Plans are bit-exact with the legacy interpreter (``Executor.run_unplanned``)
in all four numerics modes: the prepacked kernels perform the identical
operation sequence, merely hoisted out of the per-query path.

Every kernel returns a freshly allocated array. A fused epilogue (bias add,
relu/relu6 clamp) writes in place only into that fresh array, never into an
operand, so a plan never mutates its feeds or its graph's parameters. A
compiled plan holds no mutable state, which makes one plan safe to share
across threads.
"""

from __future__ import annotations

import time
import weakref
from typing import Callable

import numpy as np

from .. import kernels as K
from ..kernels.numerics import Numerics, cast_fp16, dequantize, quantize
from .arena import graph_arena_layout
from .graph import Graph
from .ops import (
    ACTIVATION_FUNCTIONS,
    Activation,
    Conv2D,
    DepthwiseConv2D,
    FullyConnected,
    Op,
)
from .profiler import ExecutionProfiler

__all__ = ["ExecutionPlan", "PlannedStep"]

Observer = Callable[[str, np.ndarray], None]

# compiled plans are cached per graph object (plans hold only read-only views
# of the graph's parameters, so sharing across executors/threads is safe)
_PLAN_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[tuple, ExecutionPlan]]" = (
    weakref.WeakKeyDictionary()
)


def _graph_fingerprint(graph: Graph) -> tuple:
    """Cheap mutation detector for the plan cache.

    Model fitting, cross-layer equalization and bias correction all *replace*
    parameter arrays on an already-executed graph, so a cached plan keyed on
    graph identity alone would serve stale prepacked constants. Array object
    ids (plus op count and numerics) catch every such replacement without
    hashing any data.
    """
    return (
        graph.numerics,
        graph.frozen,
        len(graph.ops),
        tuple(map(id, graph.params.values())),
    )


class PlannedStep:
    """One prepared op call: bound kernel closure plus liveness bookkeeping."""

    __slots__ = ("name", "op_type", "inputs", "outputs", "fn", "release", "prepacked")

    def __init__(
        self,
        name: str,
        op_type: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        fn: Callable[[list[np.ndarray]], list[np.ndarray]],
        prepacked: bool,
    ):
        self.name = name
        self.op_type = op_type
        self.inputs = inputs
        self.outputs = outputs
        self.fn = fn
        self.release: tuple[str, ...] = ()
        self.prepacked = prepacked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "prepacked" if self.prepacked else "generic"
        return f"<PlannedStep {self.op_type}:{self.name} [{tag}]>"


class ExecutionPlan:
    """A compiled, reusable execution schedule for one materialized graph."""

    def __init__(self, graph: Graph):
        if graph.is_symbolic:
            raise ValueError(f"graph {graph.name!r} is symbolic and cannot execute")
        self.graph = graph
        self.numerics = graph.numerics
        self._compile()

    @classmethod
    def for_graph(cls, graph: Graph) -> "ExecutionPlan":
        """Shared per-graph plan (weakly cached; recompiled if the graph mutated)."""
        fingerprint = _graph_fingerprint(graph)
        cached = _PLAN_CACHE.get(graph)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        plan = cls(graph)
        _PLAN_CACHE[graph] = (fingerprint, plan)
        return plan

    # -- compilation --------------------------------------------------------
    def _compile(self) -> None:
        g = self.graph
        quantized = self.numerics.is_quantized
        self._input_prep: list[tuple[str, object]] = [
            (spec.name, spec.qparams if quantized and spec.qparams is not None else None)
            for spec in g.inputs
        ]
        self._output_qp = {name: g.spec(name).qparams for name in g.output_names}

        steps: list[PlannedStep] = []
        for op in g.ops:
            fn, prepacked = self._bind(op)
            if self.numerics == Numerics.FP16:
                fn = _fp16_wrap(fn)
            steps.append(
                PlannedStep(op.name, op.op_type, tuple(op.inputs), tuple(op.outputs), fn, prepacked)
            )
        self._steps = steps

        protected = set(g.output_names)
        last_use: dict[str, int] = {}
        for i, step in enumerate(steps):
            for t in step.inputs:
                last_use[t] = i
        for i, step in enumerate(steps):
            step.release = tuple(
                sorted({t for t in step.inputs if last_use[t] == i and t not in protected})
            )

    def _bind(self, op: Op) -> tuple[Callable, bool]:
        """Bind ``op`` to a prepared closure for this plan's numerics."""
        if self.numerics.is_quantized:
            return self._bind_quantized(op)
        return self._bind_float(op)

    # The fast paths below must replicate the exact operation sequence of the
    # corresponding ``Op.execute_*`` methods (ops.py): same casts, same
    # rounding, same clamp constants — only hoisted to compile time. Their
    # epilogues may write in place into the kernel's fresh output, never into
    # an input.

    def _bind_float(self, op: Op) -> tuple[Callable, bool]:
        g = self.graph
        if type(op) is Conv2D:
            pack = K.prepack_conv2d(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            stride = op.attrs["stride"]
            padding = op.attrs["padding"]
            dilation = op.attrs.get("dilation", 1)
            act = _float_activation(op)
            def conv_fn(ins, pack=pack, act=act):
                out = K.conv2d_prepacked(
                    ins[0], pack, stride=stride, padding=padding, dilation=dilation
                )
                return [act(out) if act is not None else out]
            return conv_fn, True
        if type(op) is DepthwiseConv2D:
            pack = K.prepack_depthwise_conv2d(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            stride = op.attrs["stride"]
            padding = op.attrs["padding"]
            act = _float_activation(op)
            def dw_fn(ins, pack=pack, act=act):
                out = K.depthwise_conv2d_prepacked(ins[0], pack, stride=stride, padding=padding)
                return [act(out) if act is not None else out]
            return dw_fn, True
        if type(op) is FullyConnected:
            pack = K.prepack_fully_connected(
                g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias"))
            )
            act = _float_activation(op)
            def fc_fn(ins, pack=pack, act=act):
                out = K.fully_connected_prepacked(ins[0], pack)
                return [act(out) if act is not None else out]
            return fc_fn, True
        if type(op) is Activation:
            act_fn = ACTIVATION_FUNCTIONS[op.attrs["kind"]]
            return (lambda ins, act_fn=act_fn: [act_fn(ins[0])]), False
        return (lambda ins, op=op, g=g: op.execute_float(ins, g)), False

    def _bind_quantized(self, op: Op) -> tuple[Callable, bool]:
        g = self.graph
        if type(op) in (Conv2D, DepthwiseConv2D):
            qparams = _conv_qparams(op, g)
            if qparams is not None:
                x_qp, w_qp, out_qp = qparams
                wq = g.params[op.attrs["weight"]]
                bq = g.params.get(op.attrs.get("bias"))
                stride = op.attrs["stride"]
                padding = op.attrs["padding"]
                post = _quantized_conv_post(op, out_qp)
                if type(op) is Conv2D:
                    pack = K.prepack_conv2d_quantized(wq, bq, x_qp, w_qp)
                    dilation = op.attrs.get("dilation", 1)
                    def qconv_fn(ins, pack=pack, post=post):
                        out = K.conv2d_quantized_prepacked(
                            ins[0], pack, out_qp,
                            stride=stride, padding=padding, dilation=dilation,
                        )
                        return [post(out) if post is not None else out]
                    return qconv_fn, True
                pack = K.prepack_depthwise_conv2d_quantized(wq, bq, x_qp, w_qp)
                def qdw_fn(ins, pack=pack, post=post):
                    out = K.depthwise_conv2d_quantized_prepacked(
                        ins[0], pack, out_qp, stride=stride, padding=padding
                    )
                    return [post(out) if post is not None else out]
                return qdw_fn, True
        if type(op) is FullyConnected:
            qparams = _conv_qparams(op, g)
            if qparams is not None:
                x_qp, w_qp, out_qp = qparams
                pack = K.prepack_fully_connected_quantized(
                    g.params[op.attrs["weight"]], g.params.get(op.attrs.get("bias")), x_qp, w_qp
                )
                act = op.attrs.get("activation")
                lut = (
                    K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
                    if act is not None
                    else None
                )
                def qfc_fn(ins, pack=pack, lut=lut):
                    out = K.fully_connected_quantized_prepacked(ins[0], pack, out_qp)
                    if lut is not None:
                        out = K.apply_quantized_lut(out, lut, out_qp)
                    return [out]
                return qfc_fn, True
        if type(op) is Activation:
            in_qp = g.spec(op.inputs[0]).qparams
            out_qp = g.spec(op.outputs[0]).qparams
            if in_qp is not None and out_qp is not None:
                lut = K.quantized_lut(ACTIVATION_FUNCTIONS[op.attrs["kind"]], in_qp, out_qp)
                return (
                    (lambda ins, lut=lut, in_qp=in_qp: [K.apply_quantized_lut(ins[0], lut, in_qp)]),
                    True,
                )
        return (lambda ins, op=op, g=g: op.execute_quantized(ins, g)), False

    # -- execution -----------------------------------------------------------
    def run(
        self,
        feeds: dict[str, np.ndarray],
        observer: Observer | None = None,
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute and return the output tensors (always dequantized floats).

        ``observer`` (used for PTQ calibration) is called with every float
        intermediate; it is only valid on FP32 graphs. ``profiler``
        accumulates per-op kernel time, bytes moved and peak live bytes.
        """
        numerics = self.numerics
        if observer is not None and numerics != Numerics.FP32:
            raise ValueError("calibration observers require an FP32 graph")
        env: dict[str, np.ndarray] = {}
        for name, qp in self._input_prep:
            if name not in feeds:
                raise KeyError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            if qp is not None:
                arr = quantize(arr, qp)
            env[name] = arr

        live_bytes = 0
        if profiler is not None:
            profiler.runs += 1
            live_bytes = sum(a.nbytes for a in env.values())
            profiler.note_live_bytes(live_bytes)

        for step in self._steps:
            ins = [env[t] for t in step.inputs]
            if profiler is None:
                outs = step.fn(ins)
            else:
                t0 = time.perf_counter()
                outs = step.fn(ins)
                elapsed = time.perf_counter() - t0
                moved = sum(a.nbytes for a in ins) + sum(a.nbytes for a in outs)
                profiler.record(step.name, step.op_type, elapsed, moved)
            if observer is None:
                for t, arr in zip(step.outputs, outs):
                    env[t] = arr
            else:
                for t, arr in zip(step.outputs, outs):
                    env[t] = arr
                    if np.issubdtype(arr.dtype, np.floating):
                        observer(t, arr)
            if profiler is not None:
                live_bytes += sum(env[t].nbytes for t in step.outputs)
                for t in step.release:
                    live_bytes -= env[t].nbytes
                    del env[t]
                profiler.note_live_bytes(live_bytes)
            else:
                for t in step.release:
                    del env[t]

        results = {}
        for name in self.graph.output_names:
            arr = env[name]
            qp = self._output_qp[name]
            if (
                numerics.is_quantized
                and qp is not None
                and not np.issubdtype(arr.dtype, np.floating)
            ):
                arr = dequantize(arr, qp)
            results[name] = arr
        return results

    def __call__(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.run(feeds)

    # -- introspection -------------------------------------------------------
    @property
    def num_prepacked(self) -> int:
        return sum(1 for s in self._steps if s.prepacked)

    def describe(self) -> dict:
        """Summary of what compilation cached (docs/debugging aid).

        ``arena`` is the static batch-1 layout the hardware DRAM model
        charges (:func:`repro.graph.arena.graph_arena_layout`).
        """
        return {
            "graph": self.graph.name,
            "numerics": self.numerics.value,
            "ops": len(self._steps),
            "prepacked_ops": self.num_prepacked,
            "released_tensors": sum(len(s.release) for s in self._steps),
            "arena": graph_arena_layout(self.graph).describe(),
        }


def _fp16_wrap(fn: Callable) -> Callable:
    """Round every float op output through IEEE half, as the legacy loop did."""
    def wrapped(ins):
        return [
            cast_fp16(o) if np.issubdtype(o.dtype, np.floating) else o for o in fn(ins)
        ]
    return wrapped


def _float_activation(op: Op):
    """The fused float activation, applied to a kernel's fresh output.

    relu and relu6 clamp that array in place; the other activations
    allocate their result.
    """
    act = op.attrs.get("activation")
    if act == "relu":
        return lambda out: np.maximum(out, 0.0, out=out)
    if act == "relu6":
        return lambda out: np.clip(out, 0.0, 6.0, out=out)
    return ACTIVATION_FUNCTIONS[act] if act is not None else None


def _conv_qparams(op: Op, g: Graph):
    """The (x, w, out) qparams of an integer-kernel op, or None to fall back."""
    x_qp = g.spec(op.inputs[0]).qparams
    w_qp = g.param_qparams.get(op.attrs["weight"])
    out_qp = g.spec(op.outputs[0]).qparams
    if x_qp is None or w_qp is None or out_qp is None:
        return None
    return x_qp, w_qp, out_qp


def _quantized_conv_post(op: Op, out_qp):
    """Compile the integer-domain activation epilogue of a quantized conv.

    relu/relu6 clamp the kernel's fresh codes in place; other activations
    gather through a LUT into a new array.
    """
    act = op.attrs.get("activation")
    if act is None:
        return None
    if act in ("relu", "relu6"):
        # clamp in the integer domain at the quantized representation of 0/6
        zp = int(out_qp.zero_point[0])
        lo = zp
        hi = out_qp.numerics.qmax
        if act == "relu6":
            hi = min(hi, int(round(6.0 / float(out_qp.scale[0])) + zp))
        return lambda out: np.clip(out, lo, hi, out=out)
    lut = K.quantized_lut(ACTIVATION_FUNCTIONS[act], out_qp, out_qp)
    return lambda out: K.apply_quantized_lut(out, lut, out_qp)
