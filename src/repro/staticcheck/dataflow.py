"""Typed dataflow verifier (rules DF001–DF011).

Checks the connectivity invariants of an op list. Dangling tensors,
duplicate producers and op names, unreachable outputs, parameters that
shadow inputs and inputs read before any op provides them (DF001, DF004,
DF005, DF008, DF010, DF011) come from :meth:`Graph.problems`, the walk
``Graph.validate`` raises on; this module adds dead ops, unused and
missing params (DF002, DF003, DF009), shapes (DF006) and numerics tags
(DF007). DF006 re-runs each op's own ``infer_shapes`` on the input specs
the graph recorded and compares the result with the recorded output specs.
Checking every op locally is equivalent to forward shape propagation, and a
disagreement names the op at fault. Whether ``infer_shapes`` itself is
right is a separate question; ``tests/test_plan.py`` answers it by tapping
real runs of every zoo model.
"""

from __future__ import annotations

from ..graph.graph import Graph
from .findings import Finding

__all__ = ["check_dataflow"]

_DATA_ROLES = ("data",)  # ids/mask tensors keep their own numerics by design


def check_dataflow(graph: Graph) -> list[Finding]:
    """Rules DF001–DF011 over one graph (materialized or symbolic)."""
    gname = graph.name
    # DF001/DF004/DF005/DF008/DF010/DF011: the graph's own structural walk
    out = [Finding(p.rule_id, gname, message=p.message, op=p.op, tensor=p.tensor)
           for p in graph.problems() if p.rule_id is not None]

    # DF009 missing params
    for op in graph.ops:
        for p in op.param_names():
            if p not in graph.params:
                out.append(Finding(
                    "DF009", gname, op=op.name,
                    message=f"op {op.name!r} ({op.op_type}) references missing "
                            f"parameter {p!r}"))

    # DF002 dead ops: backward reachability from the outputs
    live_tensors = set(graph.output_names)
    for op in reversed(graph.ops):
        if any(t in live_tensors for t in op.outputs):
            live_tensors.update(op.inputs)
    for op in graph.ops:
        if not any(t in live_tensors for t in op.outputs):
            out.append(Finding(
                "DF002", gname, op=op.name,
                message=f"op {op.name!r} ({op.op_type}) contributes to no graph output"))

    # DF003 unused parameters
    used_params = {p for op in graph.ops for p in op.param_names()}
    for p in graph.params:
        if p not in used_params:
            out.append(Finding(
                "DF003", gname, tensor=p,
                message=f"parameter {p!r} is referenced by no op"))

    # DF006 each op's own shape inference against the recorded specs
    for op in graph.ops:
        if any(t not in graph.tensor_specs for t in op.inputs) or any(
                p not in graph.params for p in op.param_names()):
            continue  # no spec to infer from; a missing param is DF009
        in_shapes = [tuple(graph.spec(t).shape) for t in op.inputs]
        # a ShapeError, or a ValueError from unpacking a shape of the wrong
        # rank; NotImplementedError is an op type with no inference at all
        try:
            inferred = op.infer_shapes(in_shapes, graph)
        except (ValueError, NotImplementedError) as exc:
            out.append(Finding(
                "DF006", gname, op=op.name,
                message=f"op {op.name!r} ({op.op_type}) cannot infer shapes from "
                        f"its recorded inputs {in_shapes}: "
                        f"{type(exc).__name__}: {exc}"))
            continue
        if len(inferred) != len(op.outputs):
            out.append(Finding(
                "DF006", gname, op=op.name,
                message=f"op {op.name!r} infers {len(inferred)} output(s) but "
                        f"records {len(op.outputs)}"))
            continue
        for name, shape in zip(op.outputs, inferred):
            spec = graph.tensor_specs.get(name)
            shape = tuple(int(d) for d in shape)
            if spec is not None and tuple(spec.shape) != shape:
                out.append(Finding(
                    "DF006", gname, tensor=name, op=op.name,
                    message=f"recorded shape {tuple(spec.shape)} of {name!r} "
                            f"disagrees with {op.name!r}'s infer_shapes {shape}",
                    details={"recorded": list(spec.shape), "inferred": list(shape)}))

    # DF007 numerics tags
    for name, spec in graph.tensor_specs.items():
        if spec.role in _DATA_ROLES and spec.numerics != graph.numerics:
            out.append(Finding(
                "DF007", gname, tensor=name,
                message=f"tensor {name!r} tagged {spec.numerics.value} inside a "
                        f"{graph.numerics.value} graph"))
    return out
