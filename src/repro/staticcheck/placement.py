"""Backend placement lint (rules BP001–BP004).

Compiles a graph the way each vendor runtime would ship it
(:meth:`repro.backends.Backend.compile_single_stream`, which partitions it
with :func:`repro.hardware.scheduler.partition_graph`) and lints the
resulting segments: which ops fall back off the primary engine, how many
contiguous segments result, and what the boundary synchronization costs
(the hop terms :meth:`CompiledModel.hop_seconds` charges). This is the
Table-3 delegate-gap story turned into a lint, read from the one placement
the performance simulator runs.
"""

from __future__ import annotations

from ..backends.base import Backend
from ..backends.vendors import BACKEND_FACTORIES
from ..graph.graph import Graph
from ..hardware.accelerator import OP_SUPPORT
from ..hardware.scheduler import CompiledModel
from ..hardware.soc import SOC_CATALOG
from ..kernels.numerics import Numerics
from .findings import Finding

__all__ = ["check_schedulable", "check_placement", "sweep_vendor_placements"]

# more segments than this on one graph means the placement is shredded into
# confetti and boundary sync will dominate (paper Insight 4); the zoo's worst
# honest case (ENN v0.7 concat exclusion on DeepLab) stays well under it
_MAX_SEGMENTS = 24

# the primary engine should keep the bulk of the arithmetic
_MIN_PRIMARY_MAC_FRACTION = 0.5


def check_schedulable(graph: Graph, ctx: str = "") -> list[Finding]:
    """Rule BP001, decided from the op list alone.

    The CPU fallback takes any op the framework implements (partitioning
    never rejects the fallback target), so only op types no engine class
    has ever heard of — or batch norms the scheduler refuses — are fatal.
    """
    out: list[Finding] = []
    known_op_types = set().union(*OP_SUPPORT.values())
    for op in graph.ops:
        if op.op_type == "batch_norm":
            out.append(Finding(
                "BP001", graph.name, op=op.name,
                message=f"{ctx} op {op.name!r} is an unfolded batch_norm; the "
                        f"scheduler refuses unexported graphs"))
        elif op.op_type not in known_op_types:
            out.append(Finding(
                "BP001", graph.name, op=op.name,
                message=f"{ctx} op {op.name!r} has unknown type {op.op_type!r}; "
                        f"no engine class implements it"))
    return out


def check_placement(
    graph: Graph, compiled: CompiledModel, primary: str, backend: str
) -> tuple[list[Finding], dict]:
    """Rules BP002–BP004 over one compiled placement, plus its summary."""
    soc = compiled.soc
    primary_acc = soc.accelerator(primary)
    op_types = {op.name: op.op_type for op in graph.ops}
    fallback_ops = [name for seg in compiled.segments if seg.accelerator.name != primary
                    for name in seg.op_names]
    fallback_types = sorted({op_types[name] for name in fallback_ops})
    total_macs = sum(seg.macs for seg in compiled.segments)
    primary_macs = sum(seg.macs for seg in compiled.segments
                       if seg.accelerator.name == primary)
    mac_fraction = (primary_macs / total_macs) if total_macs else 1.0
    sync_ms = sum(sum(compiled.hop_seconds(i)) for i in range(1, len(compiled.segments))) * 1e3
    partitions = len(compiled.segments)
    summary = {
        "backend": backend,
        "soc": soc.name,
        "task": compiled.task,
        "numerics": compiled.numerics.value,
        "primary": primary,
        "partition_count": partitions,
        "segments": [{"accelerator": seg.accelerator.name, "ops": list(seg.op_names)}
                     for seg in compiled.segments],
        "fallback_ops": fallback_ops,
        "fallback_op_types": fallback_types,
        "primary_mac_fraction": round(mac_fraction, 4),
        "boundary_sync_ms": round(sync_ms, 4),
    }

    out: list[Finding] = []
    gname = graph.name
    ctx = f"[{backend}@{soc.name}]"
    if compiled.numerics not in primary_acc.effective_tops:
        out.append(Finding(
            "BP002", gname,
            message=f"{ctx} primary engine {primary!r} does not run "
                    f"{compiled.numerics.value}; the whole graph silently "
                    f"falls back"))

    if partitions > _MAX_SEGMENTS:
        out.append(Finding(
            "BP003", gname,
            message=f"{ctx} graph fragments into {partitions} segments (budget "
                    f"{_MAX_SEGMENTS}); boundary sync ~{sync_ms:.2f} ms will dominate",
            details={"partition_count": partitions, "budget": _MAX_SEGMENTS}))

    if primary_acc.kind != "cpu" and mac_fraction < _MIN_PRIMARY_MAC_FRACTION:
        out.append(Finding(
            "BP004", gname,
            message=f"{ctx} primary engine {primary!r} keeps only "
                    f"{mac_fraction:.0%} of the MACs; fallback ops dominate "
                    f"compute (types: {', '.join(fallback_types)})",
            details={"primary_mac_fraction": mac_fraction}))
    return out, summary


def sweep_vendor_placements(
    graph: Graph, numerics: Numerics
) -> tuple[list[Finding], list[dict]]:
    """Lint this graph's placement under every applicable vendor profile.

    A profile applies when the backend supports the graph's task *and* runs
    it in the graph's numeric format (each numerics variant of a model is
    linted against the runtimes that would actually ship it). A graph that
    draws BP001 is not compiled: the scheduler refuses it.
    """
    task = str(graph.metadata.get("task", "unknown"))
    findings: list[Finding] = []
    summaries: list[dict] = []
    for backend_name, factory in sorted(BACKEND_FACTORIES.items()):
        for _soc_name, soc in sorted(SOC_CATALOG.items()):
            config = factory(soc)
            if config.vendor is not None and config.vendor != soc.vendor:
                continue
            if config.vendor is None and soc.name != "snapdragon_888":
                continue  # vendor-neutral CPU backends: one SoC is representative
            cfg = config.tasks.get(task)
            if cfg is None or cfg.numerics != numerics:
                continue
            unschedulable = check_schedulable(graph, f"[{backend_name}@{soc.name}]")
            if unschedulable:
                findings.extend(unschedulable)
                continue
            compiled = Backend(config, soc).compile_single_stream(graph, task)
            found, summary = check_placement(graph, compiled, cfg.primary, backend_name)
            findings.extend(found)
            summaries.append(summary)
    return findings, summaries
