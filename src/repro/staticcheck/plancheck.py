"""Plan consistency checker (rules PL001–PL007).

Walks a compiled :class:`repro.graph.plan.ExecutionPlan` step list and
re-derives tensor liveness from scratch: when is each buffer defined, read
and released. The plan's release schedule is then checked against that
independent account — a buffer freed before its final consumer, freed twice,
or never freed at all is a scheduling bug that dynamic tests only catch when
a specific graph shape happens to trip it.

PL007 extends the same double-entry discipline to the static memory arena
the hardware DRAM model charges (:func:`repro.graph.arena.graph_arena_layout`):
its slots are cross-validated against a liveness replay over ``graph.ops``,
proving no two live tensors share bytes, every slot is large enough for its
spec, and every intermediate the model charges has a slot.
"""

from __future__ import annotations

from ..graph.arena import ArenaLayout, graph_arena_layout, tensor_nbytes
from ..graph.graph import Graph
from ..graph.plan import ExecutionPlan
from .findings import Finding

__all__ = ["check_plan", "check_arena_layout"]


def check_arena_layout(graph: Graph, layout: "ArenaLayout | None" = None) -> list[Finding]:
    """Rule PL007: the batch-1 arena layout against a liveness replay.

    ``layout`` defaults to :func:`graph_arena_layout` of ``graph``; passing
    one in lets tests (and the seeded-fault harness) validate corrupted
    layouts.
    """
    out: list[Finding] = []
    gname = graph.name
    if layout is None:
        layout = graph_arena_layout(graph)

    # replay: the defining op and the last reading op of every tensor
    defined_at: dict[str, int] = {}
    last_read: dict[str, int] = {}
    for i, op in enumerate(graph.ops):
        for t in op.inputs:
            last_read[t] = i
        for t in op.outputs:
            defined_at.setdefault(t, i)
    outputs = set(graph.output_names)

    for t in defined_at:
        if t not in outputs and t in last_read and t not in layout.slots:
            out.append(Finding(
                "PL007", gname, tensor=t,
                message=f"intermediate {t!r} (live [{defined_at[t]}, "
                        f"{last_read[t]}]) has no arena slot"))

    slots = list(layout.slots.values())
    for s in slots:
        if s.name not in defined_at:
            out.append(Finding(
                "PL007", gname, tensor=s.name,
                message=f"arena slot {s.name!r} does not correspond to any "
                        f"op output"))
            continue
        lo, hi = defined_at[s.name], last_read.get(s.name, defined_at[s.name])
        if (s.first, s.last) != (lo, hi):
            out.append(Finding(
                "PL007", gname, tensor=s.name,
                message=f"arena slot {s.name!r} records live interval "
                        f"[{s.first}, {s.last}] but the replay "
                        f"finds [{lo}, {hi}]",
                details={"recorded": [s.first, s.last], "replayed": [lo, hi]}))
        need = tensor_nbytes(graph, s.name, graph.numerics)
        if s.nbytes < need:
            out.append(Finding(
                "PL007", gname, tensor=s.name,
                message=f"arena slot {s.name!r} holds {s.nbytes} bytes but "
                        f"its spec needs {need}",
                details={"slot_bytes": s.nbytes, "spec_bytes": need}))
    for i, a in enumerate(slots):
        lo_a, hi_a = defined_at.get(a.name, a.first), last_read.get(a.name, a.last)
        for b in slots[i + 1:]:
            if a.key != b.key:
                continue
            lo_b, hi_b = defined_at.get(b.name, b.first), last_read.get(b.name, b.last)
            if lo_a <= hi_b and lo_b <= hi_a:  # live at the same time
                if a.offset < b.end and b.offset < a.end:  # and share bytes
                    out.append(Finding(
                        "PL007", gname, tensor=a.name,
                        message=f"arena slots {a.name!r} [{a.offset}, {a.end}) "
                                f"and {b.name!r} [{b.offset}, {b.end}) overlap "
                                f"while both are live (steps [{lo_a}, {hi_a}] "
                                f"vs [{lo_b}, {hi_b}]) in arena {a.key!r}",
                        details={"a": a.name, "b": b.name, "key": a.key}))
    return out


def check_plan(plan: ExecutionPlan) -> list[Finding]:
    """Rules PL001–PL007 over one compiled execution plan."""
    out: list[Finding] = []
    graph = plan.graph
    gname = graph.name
    outputs = set(graph.output_names)
    steps = plan._steps

    # independent liveness: the true last reader of every tensor
    last_read: dict[str, int] = {}
    for i, step in enumerate(steps):
        for t in step.inputs:
            last_read[t] = i

    defined = {spec.name for spec in graph.inputs}
    released: dict[str, int] = {}  # tensor -> step index that freed it
    ever_defined = set(defined)

    for i, step in enumerate(steps):
        if not callable(step.fn):
            out.append(Finding(
                "PL003", gname, op=step.name,
                message=f"step {i} ({step.name!r}) has no callable kernel bound "
                        f"(fn={step.fn!r})"))
        for t in step.inputs:
            if t in defined:
                continue
            if t in released:
                out.append(Finding(
                    "PL001", gname, op=step.name, tensor=t,
                    message=f"step {i} ({step.name!r}) reads {t!r}, which step "
                            f"{released[t]} already released"))
            elif t not in ever_defined:
                out.append(Finding(
                    "PL006", gname, op=step.name, tensor=t,
                    message=f"step {i} ({step.name!r}) reads {t!r}, which no "
                            f"graph input or earlier step defines"))
        for t in step.outputs:
            defined.add(t)
            ever_defined.add(t)
        for t in step.release:
            if t in released:
                out.append(Finding(
                    "PL002", gname, op=step.name, tensor=t,
                    message=f"step {i} ({step.name!r}) releases {t!r} a second "
                            f"time (first freed by step {released[t]})"))
                continue
            if t in outputs:
                out.append(Finding(
                    "PL005", gname, op=step.name, tensor=t,
                    message=f"step {i} ({step.name!r}) releases graph output {t!r}"))
            if last_read.get(t, -1) > i:
                out.append(Finding(
                    "PL001", gname, op=step.name, tensor=t,
                    message=f"step {i} ({step.name!r}) releases {t!r} before its "
                            f"last consumer (step {last_read[t]})"))
            released[t] = i
            defined.discard(t)

    for t in sorted(ever_defined):
        if t in outputs or t in released:
            continue
        if t not in last_read:
            continue  # never consumed: a dataflow problem (DF001), not liveness
        out.append(Finding(
            "PL004", gname, tensor=t,
            message=f"tensor {t!r} is consumed (last at step {last_read[t]}) "
                    f"but never released; it stays resident for the whole run"))
    out.extend(check_arena_layout(graph))
    return out
