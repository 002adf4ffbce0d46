#!/usr/bin/env python
"""Profile one INT8 MobileNetEdgeTPU inference and print the top-10 ops.

Demonstrates the per-op profiler of the planned execution engine: compile the
plan once, print its ``describe()`` (including how many integer kernels run
float32 and how many float64 operands), attach an :class:`ExecutionProfiler`,
run a query, and read back where the time and bytes went.

Run:  PYTHONPATH=src python examples/profile_inference.py
"""

from __future__ import annotations

import numpy as np

from repro.graph import ExecutionPlan, ExecutionProfiler, export_mobile
from repro.kernels import Numerics
from repro.models import create_reference_model
from repro.quantization import calibrate, quantize_graph


def main() -> None:
    bundle = create_reference_model("mobilenet_edgetpu", fitted=False)
    exported = export_mobile(bundle.graph)

    rng = np.random.default_rng(0)
    shape = tuple(4 if d == -1 else d for d in exported.inputs[0].shape)
    calib = [{"images": rng.normal(0, 0.5, shape).astype(np.float32)}]
    graph = quantize_graph(exported, calibrate(exported, calib), Numerics.INT8)

    plan = ExecutionPlan.for_graph(graph)
    info = plan.describe()
    print(f"model: {graph.name}")
    print(f"plan : {info['ops']} ops prepared once, "
          f"{info['released_tensors']} intermediates released early")
    print(f"describe: {info}")

    profiler = ExecutionProfiler()
    single = tuple(1 if d == -1 else d for d in exported.inputs[0].shape)
    feeds = {"images": rng.normal(0, 0.5, single).astype(np.float32)}
    for _ in range(3):  # a few runs so per-op means are stable
        plan.run(feeds, profiler=profiler)

    print()
    print(profiler.summary(n=10))


if __name__ == "__main__":
    main()
