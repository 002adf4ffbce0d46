"""Static graph verifier and lint framework.

Proves graph-level invariants *before* anything runs, the way the MLPerf
submission checker statically vets result bundles: typed dataflow
(independent shape re-inference, connectivity), quantization soundness
(int32 accumulator bounds, qparam sanity), backend placement prediction
(vendor-profile partitioning, the Table-3 delegate-gap story as a lint),
execution-plan consistency (tensor liveness), and — opt-in — the value-range
engine (sound interval abstract interpretation from declared input domains;
VR rules). See DESIGN.md §8-9 for the rule catalog;
``python -m repro.staticcheck`` sweeps the model zoo.
"""

from .dataflow import check_dataflow, independent_shapes
from .findings import (
    RULE_CATALOG,
    RULESET_VERSION,
    Baseline,
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
from .intervals import Interval, activation_transfer, dot_error_bound
from .ranges import (
    DEFAULT_DATA_DOMAIN,
    RangeAnalysis,
    check_ranges,
    infer_graph_ranges,
    input_intervals,
    observed_ranges,
)
from .verifier import (
    ALL_FAMILIES,
    KNOWN_FAMILIES,
    attest,
    attestation_problems,
    sweep_zoo,
    verify_graph,
    zoo_deployments,
)

__all__ = [
    "ALL_FAMILIES",
    "Baseline",
    "DEFAULT_DATA_DOMAIN",
    "Finding",
    "Interval",
    "KNOWN_FAMILIES",
    "PlacementPrediction",
    "RangeAnalysis",
    "Report",
    "Rule",
    "RULE_CATALOG",
    "RULESET_VERSION",
    "Severity",
    "accumulator_bound",
    "activation_transfer",
    "attest",
    "attestation_problems",
    "check_dataflow",
    "check_placement",
    "check_plan",
    "check_quantization",
    "check_ranges",
    "dot_error_bound",
    "independent_shapes",
    "infer_graph_ranges",
    "input_intervals",
    "observed_ranges",
    "predict_op_targets",
    "predict_placement",
    "sweep_vendor_placements",
    "sweep_zoo",
    "verify_graph",
    "zoo_deployments",
]
