"""Plan consistency checker (rules PL001–PL006).

Walks a compiled :class:`repro.graph.plan.ExecutionPlan` step list and
re-derives tensor liveness from scratch: when is each buffer defined, read
and released. The plan's release schedule is then checked against that
independent account — a buffer freed before its final consumer, freed twice,
or never freed at all is a scheduling bug that dynamic tests only catch when
a specific graph shape happens to trip it.
"""

from __future__ import annotations

from ..graph.plan import ExecutionPlan
from .findings import Finding

__all__ = ["check_plan"]


def check_plan(plan: ExecutionPlan) -> list[Finding]:
    """Rules PL001–PL006 over one compiled execution plan."""
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
    return out
