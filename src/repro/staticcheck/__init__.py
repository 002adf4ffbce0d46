"""Static graph verifier and lint framework.

Proves graph-level invariants *before* anything runs, the way the MLPerf
submission checker statically vets result bundles: typed dataflow
(independent shape re-inference, connectivity), quantization soundness
(int32 accumulator bounds, qparam sanity), backend placement prediction
(vendor-profile partitioning, the Table-3 delegate-gap story as a lint) and
execution-plan consistency (tensor liveness). See DESIGN.md §8 for the rule
catalog; ``python -m repro.staticcheck`` sweeps the model zoo.
"""

from .dataflow import check_dataflow, independent_shapes
from .findings import (
    RULE_CATALOG,
    RULESET_VERSION,
    Finding,
    Report,
    Rule,
    Severity,
)
from .placement import (
    PlacementPrediction,
    check_placement,
    predict_op_targets,
    predict_placement,
    sweep_vendor_placements,
)
from .plancheck import check_plan
from .quantcheck import accumulator_bound, check_quantization
from .verifier import (
    ALL_FAMILIES,
    attest,
    attestation_problems,
    sweep_zoo,
    verify_graph,
    zoo_deployments,
)

__all__ = [
    "ALL_FAMILIES",
    "Finding",
    "PlacementPrediction",
    "Report",
    "Rule",
    "RULE_CATALOG",
    "RULESET_VERSION",
    "Severity",
    "accumulator_bound",
    "attest",
    "attestation_problems",
    "check_dataflow",
    "check_placement",
    "check_plan",
    "check_quantization",
    "independent_shapes",
    "predict_op_targets",
    "predict_placement",
    "sweep_vendor_placements",
    "sweep_zoo",
    "verify_graph",
    "zoo_deployments",
]
