"""Reference executor: runs a materialized graph in FP32, FP16 or INT8/UINT8.

This is the functional core the accuracy mode of the benchmark runs on.
FP16 execution rounds every op output through IEEE half precision; quantized
execution dispatches to integer kernels (or float-fallback islands) using the
qparams installed by the PTQ pass.

``Executor.run`` executes through a compiled :class:`ExecutionPlan`
(prepacked constants, cached dispatch, tensor liveness — see
:mod:`repro.graph.plan`); ``run_unplanned`` keeps the original interpreting
loop, which the plan is regression-tested to match bit-exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..kernels.numerics import Numerics, cast_fp16, dequantize, quantize
from .graph import Graph
from .plan import ExecutionPlan
from .profiler import ExecutionProfiler

__all__ = ["Executor"]

Observer = Callable[[str, np.ndarray], None]


class Executor:
    """Executes a graph. One instance is reusable across many batches."""

    def __init__(self, graph: Graph):
        if graph.is_symbolic:
            raise ValueError(f"graph {graph.name!r} is symbolic and cannot execute")
        self.graph = graph

    @property
    def plan(self) -> ExecutionPlan:
        """The compiled plan (shared per graph, built on first use)."""
        return ExecutionPlan.for_graph(self.graph)

    def run(
        self,
        feeds: dict[str, np.ndarray],
        observer: Observer | None = None,
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute and return the output tensors (always dequantized floats).

        ``observer`` (used for PTQ calibration) is called with every float
        intermediate; it is only valid on FP32 graphs. ``profiler``
        accumulates per-op timing (see :class:`ExecutionProfiler`).
        """
        return self.plan.run(feeds, observer=observer, profiler=profiler)

    def run_arena(
        self,
        feeds: dict[str, np.ndarray],
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute one accuracy batch; the entry point ``AccuracySUT`` calls.

        Identical to :meth:`run` without an observer. The benchmark's traced
        per-layer run (``perfbench/layers.py``) wraps this method by name, so
        the name must stay until the benchmark changes with it.
        """
        return self.plan.run(feeds, profiler=profiler)

    def run_unplanned(
        self,
        feeds: dict[str, np.ndarray],
        observer: Observer | None = None,
        tap: Observer | None = None,
    ) -> dict[str, np.ndarray]:
        """The legacy per-query interpreting loop (the plan's exactness oracle).

        Re-derives dispatch, qparams and constant-operand reductions on every
        call and retains all intermediates; kept as the reference
        implementation that ``ExecutionPlan`` must match bit-for-bit.

        ``tap``, unlike ``observer``, is valid on every numerics mode: it
        receives every tensor in its raw stored form (integer codes on
        quantized graphs, post-cast floats on FP16) — inputs after boundary
        quantization and each op output. Used by the static range analysis to
        cross-validate proven intervals against concrete execution.
        """
        g = self.graph
        numerics = g.numerics
        if observer is not None and numerics != Numerics.FP32:
            raise ValueError("calibration observers require an FP32 graph")
        env: dict[str, np.ndarray] = {}
        for spec in g.inputs:
            if spec.name not in feeds:
                raise KeyError(f"missing feed for input {spec.name!r}")
            arr = np.asarray(feeds[spec.name])
            if numerics.is_quantized and spec.qparams is not None:
                arr = quantize(arr, spec.qparams)
            env[spec.name] = arr
            if tap is not None:
                tap(spec.name, arr)

        for op in g.ops:
            ins = [env[t] for t in op.inputs]
            if numerics.is_quantized:
                outs = op.execute_quantized(ins, g)
            else:
                outs = op.execute_float(ins, g)
                if numerics == Numerics.FP16:
                    outs = [
                        cast_fp16(o) if np.issubdtype(o.dtype, np.floating) else o for o in outs
                    ]
            for t, arr in zip(op.outputs, outs):
                env[t] = arr
                if observer is not None and np.issubdtype(arr.dtype, np.floating):
                    observer(t, arr)
                if tap is not None:
                    tap(t, arr)

        results = {}
        for name in g.output_names:
            arr = env[name]
            qp = g.spec(name).qparams
            if numerics.is_quantized and qp is not None and not np.issubdtype(arr.dtype, np.floating):
                arr = dequantize(arr, qp)
            results[name] = arr
        return results

    def __call__(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.run(feeds)
