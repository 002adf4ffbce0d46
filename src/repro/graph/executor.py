"""Reference executor: runs a materialized graph in FP32, FP16 or INT8/UINT8.

This is the functional core the accuracy mode of the benchmark runs on.
FP16 execution rounds every op output through IEEE half precision; quantized
execution dispatches to integer kernels (or float-fallback islands) using the
qparams installed by the PTQ pass.

``Executor.run`` executes through the graph's compiled :class:`ExecutionPlan`
(each op prepared once, FP16 rounding, tensor liveness — see
:mod:`repro.graph.plan`). Outputs are pinned by golden digests
(``tools/golden_outputs.py``).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .plan import ExecutionPlan, Tap
from .profiler import ExecutionProfiler

__all__ = ["Executor"]


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
        tap: Tap | None = None,
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute and return the output tensors (always dequantized floats).

        ``tap`` sees every graph input and op output in its stored form (see
        :meth:`ExecutionPlan.run`). ``profiler`` accumulates per-op timing
        (see :class:`ExecutionProfiler`).
        """
        return self.plan.run(feeds, tap=tap, profiler=profiler)

    def run_arena(
        self,
        feeds: dict[str, np.ndarray],
        profiler: ExecutionProfiler | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute one accuracy batch; the entry point ``AccuracySUT`` calls.

        Identical to :meth:`run` without a tap. The benchmark's traced
        per-layer run (``perfbench/layers.py``) wraps this method by name, so
        the name must stay until the benchmark changes with it.
        """
        return self.plan.run(feeds, profiler=profiler)
