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
from ..kernels.numerics import Numerics
from .dataflow import check_dataflow
from .findings import Report, RULESET_VERSION
from .placement import sweep_vendor_placements
from .plancheck import check_plan
from .quantcheck import check_quantization

__all__ = [
    "ALL_FAMILIES",
    "ZOO_NUMERICS",
    "verify_graph",
    "attest",
    "attestation_problems",
    "deployment_variants",
    "sweep_zoo",
]

ALL_FAMILIES = ("dataflow", "quantization", "placement", "plan")

# the numerics formats a zoo sweep covers, and the batch it calibrates on
ZOO_NUMERICS = (Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8)
CALIBRATION_BATCH = 2

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


def attestation_problems(stamp: dict | None, shipped_checksum: str | None) -> list[str]:
    """Why a static-verification stamp cannot be trusted for the graph
    shipped with checksum ``shipped_checksum``.

    The one trust rule the submission checker, the package validator and
    the tests share. An absent stamp is not a problem (packages predating
    the verifier carry none); a present one that records errors, comes
    from another ruleset, or is bound to another checksum is. Without a
    shipped checksum there is nothing to compare the stamp's against.
    """
    if not stamp:
        return []
    problems = []
    if not stamp.get("verified", False):
        problems.append(
            f"graph failed static verification "
            f"({stamp.get('errors', '?')} unresolved error finding(s))")
    if stamp.get("ruleset") != RULESET_VERSION:
        problems.append(
            f"graph attested under staticcheck ruleset {stamp.get('ruleset')!r}, "
            f"current is {RULESET_VERSION}")
    if shipped_checksum and stamp.get("checksum") != shipped_checksum:
        problems.append(
            "graph was modified after its static-verification attestation "
            "(checksum mismatch)")
    return problems


def deployment_variants(exported: Graph, numerics_modes: tuple, calibration_batches: list[dict]):
    """Yield ``(numerics, graph)`` variants of an exported graph: itself for
    FP32, its FP16 conversion, and for INT8/UINT8 its quantization with
    statistics calibrated once on ``calibration_batches``. The one
    deployment recipe the zoo sweep, the golden digests and the plan tests
    share."""
    from ..quantization import calibrate, convert_fp16, quantize_graph

    stats = None
    for numerics in numerics_modes:
        if numerics == Numerics.FP32:
            yield numerics, exported
        elif numerics == Numerics.FP16:
            yield numerics, convert_fp16(exported)
        else:
            if stats is None:
                stats = calibrate(exported, calibration_batches)
            yield numerics, quantize_graph(exported, stats, numerics)


def sweep_zoo(
    models: tuple[str, ...] | None = None,
    numerics_modes: tuple | None = None,
    *,
    families: tuple[str, ...] = ALL_FAMILIES,
) -> list[Report]:
    """Verify every (zoo model, numerics) deployment; the CLI/CI workhorse.

    Builds what the harness would ship: each unfitted reference graph,
    exported, then :func:`deployment_variants` calibrated on the zoo's fixed
    batch-2 feeds. The zoo is imported lazily so ``repro.graph`` never
    depends on it at import time.
    """
    from ..graph.converter import export_mobile
    from ..models import available_models, create_reference_model, model_feeds

    if models is None:
        models = tuple(available_models())
    if numerics_modes is None:
        numerics_modes = ZOO_NUMERICS
    reports = []
    for model in models:
        graph = create_reference_model(model, fitted=False).graph
        exported = graph if graph.frozen else export_mobile(graph)
        feeds = [model_feeds(model, exported, CALIBRATION_BATCH)]
        for _numerics, variant in deployment_variants(exported, numerics_modes, feeds):
            reports.append(verify_graph(variant, families=families))
    return reports
