"""Planned execution engine: one-time compilation of a materialized graph.

The LoadGen design rule (MLPerf Inference, arXiv:1911.02549) is that query
issuance and harness bookkeeping must never be the bottleneck — measured
latency has to reflect the workload, not per-query re-derivation of
constants, dispatch or qparams.

An :class:`ExecutionPlan` is compiled once per ``(graph, numerics)`` and
caches three things:

1. **Prepared ops** — each op's :meth:`~repro.graph.ops.Op.prepare` closure,
   which holds its prepared constants (weight matrices, zero-point column
   sums, effective scales, widened biases, activation LUTs) and every
   attribute and qparam lookup, so the per-query loop is a flat list of calls.
2. **FP16 rounding** — on FP16 graphs every float op output is rounded
   through IEEE half here, in one place (:func:`_fp16_wrap`).
3. **Tensor liveness** — each intermediate is released from the environment
   right after its last consumer runs, so peak live activation bytes track
   the true working set instead of the whole activation footprint.

Each op's semantics live only in its ``prepare``; exactness across refactors
is pinned by the golden output digests (``tests/golden_outputs.json``,
checked by ``tools/references.py --check golden_outputs``) for every zoo
model in all four numerics.

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

from ..kernels.numerics import Numerics, cast_fp16, dequantize, quantize
from .graph import Graph
from .ops import Kernel
from .profiler import ExecutionProfiler

__all__ = ["ExecutionPlan", "PlannedStep", "Tap"]

# called with (tensor name, array) for each graph input and op output
Tap = Callable[[str, np.ndarray], None]

# compiled plans are cached per graph object (plans hold only read-only views
# of the graph's parameters, so sharing across executors/threads is safe)
_PLAN_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[tuple, ExecutionPlan]]" = (
    weakref.WeakKeyDictionary()
)


def _graph_fingerprint(graph: Graph) -> tuple:
    """Cheap mutation detector for the plan cache.

    Model fitting *replaces* parameter arrays on an already-executed
    graph (BN statistics, then head weights), so a cached plan keyed on
    graph identity alone would serve stale prepared constants. Array object
    ids (plus op count and numerics) catch every such replacement without
    hashing any data. In-place edits cannot slip past the ids: a frozen
    graph's parameters are read-only (:meth:`Graph.freeze`), and a graph is
    not frozen again without its fingerprint changing.
    """
    return (
        graph.numerics,
        graph.frozen,
        len(graph.ops),
        tuple(map(id, graph.params.values())),
    )


class PlannedStep:
    """One prepared op call: the op's kernel closure plus liveness bookkeeping."""

    __slots__ = ("name", "op_type", "inputs", "outputs", "fn", "release")

    def __init__(
        self,
        name: str,
        op_type: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        fn: Kernel,
    ):
        self.name = name
        self.op_type = op_type
        self.inputs = inputs
        self.outputs = outputs
        self.fn = fn
        self.release: tuple[str, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlannedStep {self.op_type}:{self.name}>"


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
            fn = op.prepare(g)
            if self.numerics == Numerics.FP16:
                fn = _fp16_wrap(fn)
            steps.append(PlannedStep(op.name, op.op_type, tuple(op.inputs), tuple(op.outputs), fn))
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

    # -- execution -----------------------------------------------------------
    def run(
        self,
        feeds: dict[str, np.ndarray],
        tap: Tap | None = None,
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute and return the output tensors (always dequantized floats).

        ``tap``, valid in every numerics mode, is called with every tensor in
        its raw stored form (integer codes on quantized graphs, values after
        the half-precision cast on FP16): first each graph input after
        boundary quantization, then each op output as it is produced.
        Calibration, fitting and the range analysis instrument execution
        through it. ``profiler`` accumulates per-op kernel time, bytes moved
        and peak live bytes.
        """
        env: dict[str, np.ndarray] = {}
        for name, qp in self._input_prep:
            if name not in feeds:
                raise KeyError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            if qp is not None:
                arr = quantize(arr, qp)
            env[name] = arr
            if tap is not None:
                tap(name, arr)

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
            for t, arr in zip(step.outputs, outs):
                env[t] = arr
                if tap is not None:
                    tap(t, arr)
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
                self.numerics.is_quantized
                and qp is not None
                and not np.issubdtype(arr.dtype, np.floating)
            ):
                arr = dequantize(arr, qp)
            results[name] = arr
        return results

    # -- introspection -------------------------------------------------------
    def describe(self) -> dict:
        """Summary of what compilation cached (docs/debugging aid).

        ``integer_operands`` counts the integer kernels (quantized conv,
        depthwise and fully-connected) by the float dtype their exactness
        proof chose for the matmul operands.
        """
        dtypes = [str(s.fn.operand_dtype) for s in self._steps if hasattr(s.fn, "operand_dtype")]
        return {
            "graph": self.graph.name,
            "numerics": self.numerics.value,
            "ops": len(self._steps),
            "released_tensors": sum(len(s.release) for s in self._steps),
            "integer_operands": {name: dtypes.count(name) for name in ("float32", "float64")},
        }


def _fp16_wrap(fn: Kernel) -> Kernel:
    """Round every float op output through IEEE half precision."""
    def wrapped(ins):
        return [
            cast_fp16(o) if np.issubdtype(o.dtype, np.floating) else o for o in fn(ins)
        ]
    return wrapped
