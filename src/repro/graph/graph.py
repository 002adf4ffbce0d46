"""Graph container: a static, topologically-ordered op list with parameters.

A :class:`Graph` may be *materialized* (parameters are NumPy arrays; it can
execute) or *symbolic* (only parameter shapes are known; it can still infer
shapes and report costs). The model zoo uses symbolic full-size graphs for
the hardware performance model and materialized scaled graphs for accuracy.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..kernels.numerics import Numerics, QuantParams
from .ops import Op, OpCost
from .tensor import TensorSpec

__all__ = ["Graph", "GraphProblem", "GraphValidationError"]


class GraphValidationError(ValueError):
    """The graph violates a structural invariant."""


class GraphProblem(NamedTuple):
    """One structural invariant a graph breaks, at an op and/or tensor.

    ``rule_id`` is the static-verifier rule that reports it (DF001, DF004,
    DF005, DF008, DF010 or DF011), or None for an invariant only
    :meth:`Graph.validate` enforces.
    """

    rule_id: str | None
    message: str
    op: str | None = None
    tensor: str | None = None


class Graph:
    def __init__(self, name: str):
        self.name = name
        self.inputs: list[TensorSpec] = []
        self.output_names: list[str] = []
        self.ops: list[Op] = []
        self.params: dict[str, np.ndarray | None] = {}
        self.param_shapes: dict[str, tuple[int, ...]] = {}
        self.param_qparams: dict[str, QuantParams] = {}
        self.tensor_specs: dict[str, TensorSpec] = {}
        self.numerics: Numerics = Numerics.FP32
        self.metadata: dict = {}
        self.frozen: bool = False

    # -- construction ------------------------------------------------------
    def add_input(self, spec: TensorSpec) -> TensorSpec:
        self._assert_mutable()
        if spec.name in self.tensor_specs:
            raise GraphValidationError(f"duplicate tensor {spec.name!r}")
        self.inputs.append(spec)
        self.tensor_specs[spec.name] = spec
        return spec

    def add_param(self, name: str, value: np.ndarray | None, shape: tuple[int, ...] | None = None):
        self._assert_mutable()
        if name in self.params:
            raise GraphValidationError(f"duplicate parameter {name!r}")
        if value is not None:
            shape = tuple(value.shape)
        if shape is None:
            raise GraphValidationError(f"symbolic parameter {name!r} needs an explicit shape")
        self.params[name] = value
        self.param_shapes[name] = tuple(int(d) for d in shape)

    def add_op(self, op: Op) -> Op:
        """Append an op; inputs must already exist (enforces topological order)."""
        self._assert_mutable()
        for t in op.inputs:
            if t not in self.tensor_specs:
                raise GraphValidationError(f"op {op.name!r} consumes unknown tensor {t!r}")
        for p in op.param_names():
            if p not in self.params:
                raise GraphValidationError(f"op {op.name!r} references unknown parameter {p!r}")
        in_shapes = [self.tensor_specs[t].shape for t in op.inputs]
        out_shapes = op.infer_shapes(in_shapes, self)
        if len(out_shapes) != len(op.outputs):
            raise GraphValidationError(f"op {op.name!r} arity mismatch")
        for t, shape in zip(op.outputs, out_shapes):
            if t in self.tensor_specs:
                raise GraphValidationError(f"tensor {t!r} produced twice")
            self.tensor_specs[t] = TensorSpec(t, shape, self.numerics)
        self.ops.append(op)
        return op

    def set_outputs(self, names: Iterable[str]) -> None:
        self._assert_mutable()
        names = list(names)
        for n in names:
            if n not in self.tensor_specs:
                raise GraphValidationError(f"unknown output tensor {n!r}")
        self.output_names = names

    def _assert_mutable(self) -> None:
        if self.frozen:
            raise GraphValidationError(f"graph {self.name!r} is frozen")

    # -- queries -----------------------------------------------------------
    def spec(self, name: str) -> TensorSpec:
        return self.tensor_specs[name]

    def param_shape(self, name: str) -> tuple[int, ...]:
        return self.param_shapes[name]

    def param_elements(self, name: str) -> int:
        n = 1
        for d in self.param_shapes[name]:
            n *= d
        return n

    @property
    def is_symbolic(self) -> bool:
        return any(v is None for v in self.params.values())

    @property
    def num_parameters(self) -> int:
        return sum(self.param_elements(p) for p in self.params)

    def producers(self) -> dict[str, Op]:
        """Map tensor name -> the op producing it."""
        out: dict[str, Op] = {}
        for op in self.ops:
            for t in op.outputs:
                out[t] = op
        return out

    def consumers(self) -> dict[str, list[Op]]:
        out: dict[str, list[Op]] = {}
        for op in self.ops:
            for t in op.inputs:
                out.setdefault(t, []).append(op)
        return out

    def op_costs(self, numerics: Numerics | None = None) -> list[tuple[Op, OpCost]]:
        """Per-sample analytical cost of every op, in execution order."""
        numerics = numerics or self.numerics
        result = []
        for op in self.ops:
            in_shapes = [self.tensor_specs[t].shape for t in op.inputs]
            out_shapes = [self.tensor_specs[t].shape for t in op.outputs]
            result.append((op, op.cost(in_shapes, out_shapes, self, numerics)))
        return result

    def total_cost(self, numerics: Numerics | None = None) -> OpCost:
        total = OpCost()
        for _, c in self.op_costs(numerics):
            total = total + c
        return total

    @property
    def total_macs(self) -> int:
        return self.total_cost().macs

    # -- lifecycle ---------------------------------------------------------
    def clone(self, name: str | None = None) -> "Graph":
        """Deep copy (specs/ops/metadata); parameter arrays are shared read-only."""
        g = Graph(name or self.name)
        g.inputs = [s.copy() for s in self.inputs]
        g.output_names = list(self.output_names)
        g.ops = copy.deepcopy(self.ops)
        g.params = dict(self.params)
        g.param_shapes = dict(self.param_shapes)
        g.param_qparams = dict(self.param_qparams)
        g.tensor_specs = {k: v.copy() for k, v in self.tensor_specs.items()}
        for s in g.inputs:
            g.tensor_specs[s.name] = s
        g.numerics = self.numerics
        g.metadata = copy.deepcopy(self.metadata)
        return g

    def freeze(self) -> str:
        """Mark immutable and return the structural checksum (audit anchor).

        Every parameter array becomes read-only, so an in-place edit raises
        instead of silently diverging from a cached plan's prepared copy.
        """
        self.validate()
        self.frozen = True
        for arr in self.params.values():
            if arr is not None:
                arr.flags.writeable = False
        return self.checksum()

    def checksum(self) -> str:
        """Stable hash over structure and (when materialized) parameter bytes."""
        h = hashlib.sha256()
        h.update(self.name.encode())
        for s in self.inputs:
            h.update(f"{s.name}:{s.shape}:{s.numerics.value}".encode())
        for op in self.ops:
            attrs = {k: v for k, v in sorted(op.attrs.items())}
            h.update(f"{op.op_type}:{op.name}:{op.inputs}:{op.outputs}:{attrs}".encode())
        for name in sorted(self.params):
            h.update(f"{name}:{self.param_shapes[name]}".encode())
            arr = self.params[name]
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(",".join(self.output_names).encode())
        return h.hexdigest()

    def problems(self) -> Iterator[GraphProblem]:
        """Walk the graph once and yield every structural invariant it breaks.

        Rules DF001, DF004, DF005, DF008, DF010 and DF011 are stated here
        and nowhere else: :meth:`validate` raises on the first problem, and the
        static verifier's dataflow family reports each tagged one as a
        finding.
        """
        if not self.inputs:
            yield GraphProblem(None, f"graph {self.name!r} has no inputs")
        if not self.output_names:
            yield GraphProblem(None, f"graph {self.name!r} has no outputs")
        input_names = {s.name for s in self.inputs}
        op_names: set[str] = set()
        produced: dict[str, str] = {}
        for op in self.ops:
            if op.name in op_names:
                yield GraphProblem(
                    "DF008", f"op name {op.name!r} is defined more than once "
                             f"(op names key plans, profiles and placements)", op=op.name)
            op_names.add(op.name)
            for t in op.inputs:
                if t not in input_names and t not in produced:
                    yield GraphProblem("DF011", f"op {op.name!r} runs before its input {t!r}",
                                       op=op.name, tensor=t)
            for t in op.outputs:
                if t in input_names or t in produced:
                    prev = produced.get(t, "<graph input>")
                    yield GraphProblem(
                        "DF004", f"tensor {t!r} has two producers: {prev!r} and {op.name!r}",
                        op=op.name, tensor=t)
                produced[t] = op.name
        for name in self.output_names:
            if name not in produced and name not in input_names:
                yield GraphProblem("DF005", f"declared output {name!r} is never produced",
                                   tensor=name)
        for p in self.params:
            if p in input_names:
                yield GraphProblem(
                    "DF010", f"parameter {p!r} shadows the graph input of the same name",
                    tensor=p)
        for name, arr in self.params.items():
            if arr is not None and tuple(arr.shape) != self.param_shapes[name]:
                yield GraphProblem(
                    None, f"parameter {name!r} shape drifted: array is "
                          f"{tuple(arr.shape)}, declared {self.param_shapes[name]}", tensor=name)
        # every non-output intermediate must be consumed (no dead ends)
        consumed = {t for op in self.ops for t in op.inputs} | set(self.output_names)
        for op in self.ops:
            for t in op.outputs:
                if t not in consumed:
                    yield GraphProblem(
                        "DF001", f"tensor {t!r} (produced by {op.name!r}) is never "
                                 f"consumed and is not a graph output", op=op.name, tensor=t)

    def validate(self) -> None:
        """Raise :class:`GraphValidationError` on the first of :meth:`problems`."""
        for problem in self.problems():
            raise GraphValidationError(problem.message)
