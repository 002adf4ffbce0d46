"""Liveness-driven static memory planner (TFLite-style arena allocation).

On-device runtimes do not malloc per tensor per inference: they compute
each intermediate's live interval ahead of time and pack all of them into
one preallocated arena, reusing the bytes of tensors whose lifetimes do
not overlap (Lee et al. 2019, §"memory management"; TFLite's
``GreedyBySize`` planner). This module models that planner for our IR; the
NumPy executor itself allocates per op and never uses these layouts.

* :func:`plan_layout` packs abstract ``(size, [first, last])`` records with
  the greedy best-fit-by-decreasing-size algorithm;
* :func:`graph_arena_layout` lays out every op-produced intermediate of a
  (possibly symbolic) graph from its tensor specs;
* :func:`graph_arena_bytes` summarizes that layout as the planned activation
  footprint the hardware DRAM/footprint model charges — replacing the naive
  every-intermediate-resident estimate.

Intervals are **inclusive** on both ends: a tensor is live from the step
that defines it through the last step that reads it. Two records may share
bytes only when their intervals are disjoint — which in particular keeps a
step's inputs and outputs in disjoint regions (their intervals both cover
the step itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.numerics import Numerics
from .graph import Graph

__all__ = [
    "ARENA_ALIGNMENT",
    "ArenaSlot",
    "ArenaLayout",
    "TensorRecord",
    "plan_layout",
    "tensor_nbytes",
    "graph_arena_layout",
    "graph_arena_bytes",
]

ARENA_ALIGNMENT = 64  # bytes; cache-line alignment, matching TFLite's default


@dataclass(frozen=True)
class TensorRecord:
    """One tensor to place: its size, live interval and arena key."""

    name: str
    nbytes: int
    first: int  # step index that defines the tensor
    last: int  # step index of the last read (inclusive)
    key: str = "default"  # one arena per key (dtype class)


@dataclass(frozen=True)
class ArenaSlot:
    """A placed tensor: byte offset inside the arena keyed ``key``."""

    name: str
    key: str
    offset: int
    nbytes: int
    first: int
    last: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass(frozen=True)
class ArenaLayout:
    """The full packing result: slots plus per-arena and summary sizes."""

    slots: dict[str, ArenaSlot]
    arena_bytes: dict[str, int]
    alignment: int = ARENA_ALIGNMENT

    @property
    def total_bytes(self) -> int:
        return sum(self.arena_bytes.values())

    @property
    def naive_bytes(self) -> int:
        """Footprint with no reuse: every tensor resident simultaneously."""
        return sum(_align_up(s.nbytes, self.alignment) for s in self.slots.values())

    @property
    def reuse_ratio(self) -> float:
        """naive / planned — how many times over the arena bytes are reused."""
        total = self.total_bytes
        return (self.naive_bytes / total) if total else 1.0

    def describe(self) -> dict:
        return {
            "tensors": len(self.slots),
            "arena_bytes": dict(sorted(self.arena_bytes.items())),
            "peak_bytes": self.total_bytes,
            "naive_bytes": self.naive_bytes,
            "reuse_ratio": round(self.reuse_ratio, 3),
            "alignment": self.alignment,
        }


def _align_up(n: int, alignment: int) -> int:
    return -(-n // alignment) * alignment


def _overlaps(a_first: int, a_last: int, b_first: int, b_last: int) -> bool:
    return a_first <= b_last and b_first <= a_last


def plan_layout(
    records: list[TensorRecord], alignment: int = ARENA_ALIGNMENT
) -> ArenaLayout:
    """Greedy best-fit packing by decreasing size (the TFLite arena planner).

    Tensors are placed largest-first (ties broken by definition step, then
    name, for determinism). Each tensor considers only already-placed slots
    of the same key whose live interval overlaps its own, scans the gaps
    between their occupied byte ranges, and takes the smallest gap that
    fits — or the end of the arena when none does.
    """
    order = sorted(records, key=lambda r: (-r.nbytes, r.first, r.name))
    slots: dict[str, ArenaSlot] = {}
    arena_bytes: dict[str, int] = {}
    for rec in order:
        live = sorted(
            (
                s
                for s in slots.values()
                if s.key == rec.key and _overlaps(s.first, s.last, rec.first, rec.last)
            ),
            key=lambda s: s.offset,
        )
        best_offset: int | None = None
        best_gap: int | None = None
        cursor = 0
        for s in live:
            if s.offset > cursor:
                gap = s.offset - cursor
                if gap >= rec.nbytes and (best_gap is None or gap < best_gap):
                    best_offset, best_gap = cursor, gap
            cursor = max(cursor, _align_up(s.end, alignment))
        offset = best_offset if best_offset is not None else cursor
        slots[rec.name] = ArenaSlot(
            rec.name, rec.key, offset, rec.nbytes, rec.first, rec.last
        )
        arena_bytes[rec.key] = max(arena_bytes.get(rec.key, 0), offset + rec.nbytes)
    return ArenaLayout(slots=slots, arena_bytes=arena_bytes, alignment=alignment)


# -- deriving records from graphs -------------------------------------------


def _spec_elements(shape, batch: int) -> int:
    n = 1
    for d in shape:
        n *= batch if d == -1 else int(d)
    return n


def tensor_nbytes(graph: Graph, name: str, numerics: Numerics, batch: int = 1) -> int:
    """Bytes of tensor ``name`` at ``batch`` when ``graph`` runs in ``numerics``.

    Quantized tensors take their own format's width; everything else takes
    the execution format's (so FP16 activations count two bytes).
    """
    spec = graph.spec(name)
    if numerics.is_quantized and spec.qparams is not None:
        per = spec.qparams.numerics.bytes_per_element
    else:
        per = numerics.bytes_per_element
    return int(_spec_elements(spec.shape, batch) * per)


def graph_arena_layout(
    graph: Graph, numerics: Numerics | None = None, batch: int = 1
) -> ArenaLayout:
    """Static layout of every op-produced intermediate (symbolic graphs too).

    Graph outputs (they must survive into the caller) and tensors no op
    reads are not placed. Each tensor is live from its producing op through
    its last reader, in ``graph.ops`` order.
    """
    numerics = numerics or graph.numerics
    last_use: dict[str, int] = {}
    for i, op in enumerate(graph.ops):
        for t in op.inputs:
            last_use[t] = i
    outputs = set(graph.output_names)
    records = []
    for i, op in enumerate(graph.ops):
        for t in op.outputs:
            if t in outputs or t not in last_use:
                continue
            nbytes = tensor_nbytes(graph, t, numerics, batch)
            records.append(TensorRecord(t, nbytes, i, last_use[t]))
    return plan_layout(records)


def graph_arena_bytes(
    graph: Graph, numerics: Numerics | None = None, batch: int = 1
) -> dict:
    """Planned activation footprint of a graph (works on symbolic graphs).

    Packs *every* op-produced intermediate with the arena planner — the
    memory model of an ideal runtime (:func:`graph_arena_layout`) — and
    reports the planned peak next to the no-reuse footprint and the resident
    I/O bytes. The hardware simulator consumes ``arena_bytes + io_bytes`` as
    the per-sample activation working set.
    """
    numerics = numerics or graph.numerics
    layout = graph_arena_layout(graph, numerics, batch)
    io_bytes = sum(tensor_nbytes(graph, s.name, numerics, batch) for s in graph.inputs) + sum(
        tensor_nbytes(graph, n, numerics, batch) for n in graph.output_names
    )
    return {
        "arena_bytes": layout.total_bytes,
        "io_bytes": io_bytes,
        "naive_bytes": layout.naive_bytes + io_bytes,
        "planned_bytes": layout.total_bytes + io_bytes,
        "reuse_ratio": layout.reuse_ratio,
    }
