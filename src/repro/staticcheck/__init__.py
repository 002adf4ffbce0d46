"""Static graph verifier and lint framework.

Proves graph-level invariants *before* anything runs, the way the MLPerf
submission checker statically vets result bundles: typed dataflow
(connectivity, and each op's own shape inference re-run against the
recorded specs), quantization soundness (int32 accumulator bounds, qparam
sanity), backend placement (each vendor runtime's compiled partition, the
Table-3 delegate-gap story as a lint) and execution-plan consistency
(tensor liveness). See DESIGN.md §8 for the rule catalog;
``python -m repro.staticcheck`` sweeps the model zoo.
"""

from .dataflow import check_dataflow
from .findings import (
    RULE_CATALOG,
    RULESET_VERSION,
    Finding,
    Report,
    Rule,
    Severity,
)
from .placement import check_placement, check_schedulable, sweep_vendor_placements
from .plancheck import check_plan
from .quantcheck import accumulator_bound, check_quantization
from .verifier import (
    ALL_FAMILIES,
    ZOO_NUMERICS,
    attest,
    attestation_problems,
    deployment_variants,
    sweep_zoo,
    verify_graph,
)

__all__ = [
    "ALL_FAMILIES",
    "Finding",
    "Report",
    "Rule",
    "RULE_CATALOG",
    "RULESET_VERSION",
    "ZOO_NUMERICS",
    "Severity",
    "accumulator_bound",
    "attest",
    "attestation_problems",
    "check_dataflow",
    "check_placement",
    "check_plan",
    "check_quantization",
    "check_schedulable",
    "deployment_variants",
    "sweep_vendor_placements",
    "sweep_zoo",
    "verify_graph",
]
