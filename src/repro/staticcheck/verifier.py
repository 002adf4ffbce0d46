"""Verification driver: run analyzer families, attest, sweep the zoo.

``verify_graph`` runs the four analyzer families (dataflow, quantization,
placement, plan) and is the single entry point the CLI, the export pipeline
and the tests share. ``attest`` stamps the outcome into ``graph.metadata`` keyed
to the graph checksum, so a submission package carries a machine-checkable
claim that its frozen graphs passed static verification (and *which* ruleset
version proved it) — the shape of MLPerf's submission-checker contract.
"""

from __future__ import annotations

from ..graph.graph import Graph
from .dataflow import check_dataflow
from .findings import Report, RULESET_VERSION
from .placement import sweep_vendor_placements
from .plancheck import check_plan
from .quantcheck import check_quantization

__all__ = [
    "ALL_FAMILIES",
    "verify_graph",
    "attest",
    "attestation_problems",
    "zoo_deployments",
    "sweep_zoo",
]

ALL_FAMILIES = ("dataflow", "quantization", "placement", "plan")

# families cheap enough to run inline on every export (plan compilation
# prepares every kernel, so the export path leaves it to the CLI/tests)
_EXPORT_FAMILIES = ("dataflow", "quantization", "placement")


def verify_graph(
    graph: Graph,
    *,
    families: tuple[str, ...] = ALL_FAMILIES,
) -> Report:
    """Run the requested analyzer families over one graph."""
    unknown = set(families) - set(ALL_FAMILIES)
    if unknown:
        raise ValueError(f"unknown analyzer families {sorted(unknown)}")
    report = Report(f"{graph.name}[{graph.numerics.value}]")
    if "dataflow" in families:
        report.extend(check_dataflow(graph))
    if "quantization" in families:
        report.extend(check_quantization(graph))
    if "placement" in families:
        findings, placements = sweep_vendor_placements(graph, graph.numerics)
        report.extend(findings)
        report.metrics["placements"] = placements
    if "plan" in families and not graph.is_symbolic:
        from ..graph.plan import ExecutionPlan

        plan = ExecutionPlan.for_graph(graph)
        report.extend(check_plan(plan))
        report.metrics["plan"] = plan.describe()
    return report


def attest(graph: Graph, report: Report | None = None) -> dict:
    """Stamp a static-verification attestation into ``graph.metadata``.

    The stamp binds the verdict to the graph checksum (which covers ops,
    params and outputs but not metadata, so stamping does not perturb it):
    mutate the graph after attestation and the mismatch is detectable.
    """
    if report is None:
        report = verify_graph(graph, families=_EXPORT_FAMILIES)
    stamp = {
        "ruleset": RULESET_VERSION,
        "verified": not report.errors,
        "findings": len(report.findings),
        "errors": len(report.errors),
        "checksum": graph.checksum(),
    }
    graph.metadata["staticcheck"] = stamp
    return stamp


def attestation_problems(graph: Graph) -> list[str]:
    """Why this graph's attestation (if any) cannot be trusted.

    Lenient by design: an *absent* stamp is not a problem (old exports stay
    valid); a present stamp that records errors, a stale ruleset, or a
    checksum that no longer matches the graph is.
    """
    stamp = graph.metadata.get("staticcheck")
    if stamp is None:
        return []
    problems = []
    if not stamp.get("verified", False):
        problems.append(
            f"graph {graph.name!r}: staticcheck attestation records "
            f"{stamp.get('errors', '?')} unresolved error(s)")
    if stamp.get("ruleset") != RULESET_VERSION:
        problems.append(
            f"graph {graph.name!r}: attested under ruleset "
            f"{stamp.get('ruleset')!r}, current is {RULESET_VERSION}")
    if stamp.get("checksum") != graph.checksum():
        problems.append(
            f"graph {graph.name!r}: modified after attestation "
            f"(checksum mismatch)")
    return problems


def zoo_deployments(
    model: str, numerics_modes: tuple, *, batch: int = 2
):
    """Yield ``(numerics, graph)`` deployment variants of one zoo model.

    Builds the same artifacts the harness would ship: export the reference
    graph, calibrate on the zoo's fixed role-aware feeds, then derive each
    numerics variant. Imported lazily so ``repro.graph`` never depends on the
    model zoo at import time.
    """
    from ..kernels.numerics import Numerics
    from ..models import create_reference_model, model_feeds
    from ..quantization import calibrate, convert_fp16, quantize_graph

    bundle = create_reference_model(model, fitted=False)
    exported = bundle.graph
    if not exported.frozen:
        from ..graph.converter import export_mobile

        exported = export_mobile(exported)
    feeds = model_feeds(model, exported, batch)
    stats = None
    for numerics in numerics_modes:
        if numerics == Numerics.FP32:
            yield numerics, exported
        elif numerics == Numerics.FP16:
            yield numerics, convert_fp16(exported)
        else:
            if stats is None:
                stats = calibrate(exported, [feeds])
            yield numerics, quantize_graph(exported, stats, numerics)


def sweep_zoo(
    models: tuple[str, ...] | None = None,
    numerics_modes: tuple | None = None,
    *,
    families: tuple[str, ...] = ALL_FAMILIES,
) -> list[Report]:
    """Verify every (zoo model, numerics) deployment; the CLI/CI workhorse."""
    from ..kernels.numerics import Numerics
    from ..models import available_models

    if models is None:
        models = tuple(available_models())
    if numerics_modes is None:
        numerics_modes = (Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8)
    reports = []
    for model in models:
        for _numerics, graph in zoo_deployments(model, numerics_modes):
            reports.append(verify_graph(graph, families=families))
    return reports
