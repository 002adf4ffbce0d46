"""Findings and the rule catalog.

Every analyzer in :mod:`repro.staticcheck` emits machine-readable
:class:`Finding` records — ``rule_id``, severity, op/tensor location and a
human message — the way the MLPerf submission checker reports violations.
The catalog below is the single source of truth for rule ids and their
default severities; analyzers must not invent ids outside it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "Rule",
    "RULE_CATALOG",
    "Finding",
    "Report",
    "RULESET_VERSION",
]

# bump when rule semantics change: attestations record the ruleset they
# were produced under, so stale "verified" stamps are detectable
RULESET_VERSION = 7


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Rule:
    rule_id: str
    severity: Severity
    family: str  # "dataflow" | "quantization" | "placement" | "plan"
    title: str
    proves: str  # the invariant a clean pass establishes


_E, _W = Severity.ERROR, Severity.WARNING

RULE_CATALOG: dict[str, Rule] = {r.rule_id: r for r in [
    # -- typed dataflow verifier ------------------------------------------
    Rule("DF001", _E, "dataflow", "dangling tensor",
         "every produced tensor is consumed downstream or is a graph output"),
    Rule("DF002", _W, "dataflow", "dead op",
         "every op contributes (transitively) to at least one graph output"),
    Rule("DF003", _W, "dataflow", "unused parameter",
         "every parameter is referenced by at least one op"),
    Rule("DF004", _E, "dataflow", "duplicate producer",
         "every tensor has exactly one producing op (or is a graph input)"),
    Rule("DF005", _E, "dataflow", "unreachable output",
         "every declared output is actually produced by the graph"),
    Rule("DF006", _E, "dataflow", "shape disagreement",
         "every op's own infer_shapes, re-run on its recorded input specs, "
         "reproduces its recorded output specs"),
    Rule("DF007", _E, "dataflow", "numerics mismatch",
         "every data tensor carries the graph's numerics tag"),
    Rule("DF008", _E, "dataflow", "duplicate op name",
         "op names are unique (they key profiles, plans and placements)"),
    Rule("DF009", _E, "dataflow", "missing parameter",
         "every parameter an op references exists in the graph"),
    Rule("DF010", _E, "dataflow", "parameter shadows input",
         "parameter names never collide with input tensor names"),
    # -- quantization soundness analyzer ----------------------------------
    Rule("QS001", _E, "quantization", "int32 accumulator overflow",
         "no integer kernel's accumulator can exceed int32 under worst-case "
         "inputs (static interval bound over the reduction)"),
    Rule("QS002", _E, "quantization", "degenerate scale",
         "every quantization scale is finite and within sane magnitude"),
    Rule("QS003", _E, "quantization", "zero point out of range",
         "every zero point is representable in its integer format"),
    Rule("QS004", _W, "quantization", "requantization clipping",
         "concat inputs fit the shared output domain; add operands have "
         "commensurate scales (no silent saturation or precision collapse)"),
    Rule("QS005", _W, "quantization", "integer op falls back to float",
         "every integer-kernel-capable op inside a quantized graph has the "
         "qparams its integer kernel needs (no silent float fallback)"),
    Rule("QS006", _E, "quantization", "bias scale drift",
         "int32 bias scales equal input_scale * weight_scale exactly"),
    Rule("QS007", _W, "quantization", "missing activation qparams",
         "every data tensor in a quantized graph carries qparams"),
    # -- backend placement lint --------------------------------------------
    Rule("BP001", _E, "placement", "unschedulable op",
         "every op can execute somewhere on the SoC (at least the CPU)"),
    Rule("BP002", _W, "placement", "primary engine rejects numerics",
         "the requested numerics actually runs on the primary engine "
         "(otherwise the whole graph silently falls back)"),
    Rule("BP003", _W, "placement", "excessive fragmentation",
         "the compiled partition count stays below the fragmentation budget"),
    Rule("BP004", _W, "placement", "fallback dominates compute",
         "the primary engine keeps the majority of the graph's MACs"),
    # -- plan consistency checker ------------------------------------------
    Rule("PL001", _E, "plan", "tensor released before last use",
         "no buffer is freed before its final consumer has run"),
    Rule("PL002", _E, "plan", "double release",
         "every tensor is released at most once"),
    Rule("PL003", _E, "plan", "unbound dispatch",
         "every planned step carries a callable kernel closure"),
    Rule("PL004", _W, "plan", "leaked intermediate",
         "plans release every consumed non-output intermediate"),
    Rule("PL005", _E, "plan", "graph output released",
         "no declared graph output is ever freed by the schedule"),
    Rule("PL006", _E, "plan", "read of undefined tensor",
         "every step reads only graph inputs or earlier steps' outputs"),
]}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule_id: str
    graph: str
    message: str
    op: str | None = None
    tensor: str | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule_id not in RULE_CATALOG:
            raise KeyError(f"unknown rule id {self.rule_id!r}")

    @property
    def rule(self) -> Rule:
        return RULE_CATALOG[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    @property
    def location(self) -> str:
        if self.op and self.tensor:
            return f"{self.op}/{self.tensor}"
        return self.op or self.tensor or "<graph>"

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "graph": self.graph,
            "op": self.op,
            "tensor": self.tensor,
            "message": self.message,
            "details": dict(self.details),
        }

    def render(self) -> str:
        return (f"{self.severity.value.upper():7s} {self.rule_id} "
                f"[{self.graph}::{self.location}] {self.message}")


class Report:
    """Findings plus per-analyzer metrics for one verification run."""

    def __init__(self, subject: str):
        self.subject = subject
        self.findings: list[Finding] = []
        self.metrics: dict[str, object] = {}

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "findings": [f.to_dict() for f in self.findings],
            "metrics": self.metrics,
        }

    def render_text(self) -> str:
        lines = [f"== {self.subject}: {len(self.findings)} finding(s)"]
        for f in self.findings:
            lines.append("  " + f.render())
        return "\n".join(lines)

