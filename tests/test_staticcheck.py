"""Static verifier tests: every rule fires on a seeded-broken graph, the
clean zoo stays silent, and the placement lint reports the segments the
scheduler compiles for each vendor profile."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import ROOT, build_toy_graph
from repro.backends import create_backend
from repro.core import Submission, SuiteResult, SystemDescription, validate_package, write_submission
from repro.graph import export_mobile
from repro.graph.graph import Graph, GraphValidationError
from repro.graph.ops import (
    Activation,
    Add,
    Concat,
    Conv2D,
    DepthwiseConv2D,
    FullyConnected,
    Op,
    ShapeError,
    Softmax,
    Split,
)
from repro.graph.plan import ExecutionPlan
from repro.graph.tensor import TensorSpec
from repro.hardware.scheduler import FrameworkProfile, compile_model
from repro.hardware.soc import SOC_CATALOG
from repro.kernels.numerics import Numerics, QuantParams
from repro.loadgen import loadgen_checksum
from repro.models import available_models
from repro.quantization import calibrate, convert_fp16, quantize_graph
from repro.staticcheck import (
    RULE_CATALOG,
    RULESET_VERSION,
    ZOO_NUMERICS,
    Finding,
    Report,
    Severity,
    accumulator_bound,
    attest,
    attestation_problems,
    check_dataflow,
    check_placement,
    check_plan,
    check_quantization,
    check_schedulable,
    sweep_vendor_placements,
    verify_graph,
)
from repro.staticcheck.__main__ import main as staticcheck_main


def _ids(findings):
    return {f.rule_id for f in findings}


def _wire(g: Graph, op: Op, out_shapes, numerics=None):
    """Append an op without add_op's guards (tests build *broken* graphs)."""
    g.ops.append(op)
    for t, shape in zip(op.outputs, out_shapes):
        g.tensor_specs[t] = TensorSpec(t, shape, numerics or g.numerics)
    return op


def _relu(name, src, dst):
    return Activation(name, [src], [dst], kind="relu")


def _base():
    g = Graph("broken")
    g.add_input(TensorSpec("x", (-1, 8, 8, 4)))
    return g


# ---------------------------------------------------------------------------
# dataflow rules DF001-DF011: one deliberately broken graph each
# ---------------------------------------------------------------------------

def _df_dangling():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    _wire(g, _relu("b", "x", "z"), [(-1, 8, 8, 4)])  # z dangles
    g.output_names = ["y"]
    return g


def _df_unused_param():
    g = _base()
    g.add_param("w_unused", np.zeros((3, 3, 4, 8), np.float32))
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


def _df_duplicate_producer():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    g.ops.append(_relu("b", "x", "y"))  # second producer of y
    g.output_names = ["y"]
    return g


def _df_unreachable_output():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    g.output_names = ["y", "ghost"]
    return g


def _df_shape_disagreement():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 4, 4, 4)])  # relu cannot change shape
    g.output_names = ["y"]
    return g


def _df_numerics_mismatch():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)], numerics=Numerics.FP16)
    g.output_names = ["y"]
    return g


def _df_duplicate_op_name():
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    _wire(g, _relu("a", "y", "z"), [(-1, 8, 8, 4)])
    g.output_names = ["z"]
    return g


def _df_missing_param():
    g = _base()
    op = Conv2D("c", ["x"], ["y"], weight="w_missing", stride=1, padding="same")
    _wire(g, op, [(-1, 8, 8, 8)])
    g.output_names = ["y"]
    return g


def _df_param_shadows_input():
    g = _base()
    g.add_param("x", np.zeros((2, 2), np.float32))
    _wire(g, _relu("a", "x", "y"), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


def _df_input_after_use():
    g = _base()
    _wire(g, _relu("b", "t", "y"), [(-1, 8, 8, 4)])  # reads t before a makes it
    _wire(g, _relu("a", "x", "t"), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


def _df_input_never_produced():
    g = _base()
    _wire(g, _relu("a", "ghost", "y"), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


class _Mystery(Op):
    op_type = "mystery"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]


def _mystery_graph():
    g = _base()
    _wire(g, _Mystery("m", ["x"], ["y"]), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


DATAFLOW_BREAKERS = {
    "DF001": _df_dangling,
    "DF002": _df_dangling,  # op b contributes to no output
    "DF003": _df_unused_param,
    "DF004": _df_duplicate_producer,
    "DF005": _df_unreachable_output,
    "DF006": _df_shape_disagreement,
    "DF007": _df_numerics_mismatch,
    "DF008": _df_duplicate_op_name,
    "DF009": _df_missing_param,
    "DF010": _df_param_shadows_input,
    "DF011": _df_input_after_use,
}


@pytest.mark.parametrize("rule_id", sorted(DATAFLOW_BREAKERS))
def test_dataflow_rule_fires(rule_id):
    findings = check_dataflow(DATAFLOW_BREAKERS[rule_id]())
    assert rule_id in _ids(findings)
    hit = next(f for f in findings if f.rule_id == rule_id)
    assert hit.severity is RULE_CATALOG[rule_id].severity
    assert hit.location != "<graph>" or rule_id not in ("DF001", "DF006")


@pytest.mark.parametrize("breaker,op,tensor", [
    (_df_input_after_use, "b", "t"),
    (_df_input_never_produced, "a", "ghost"),
])
def test_input_not_yet_provided_is_df011(breaker, op, tensor):
    """An op reading a tensor that no graph input or earlier op provides:
    ``validate`` raises on it, and the verifier reports it too."""
    hit = [f for f in check_dataflow(breaker()) if f.rule_id == "DF011"]
    assert [(f.op, f.tensor) for f in hit] == [(op, tensor)]


def test_clean_toy_graph_has_no_dataflow_findings():
    graph, _ = build_toy_graph()
    assert check_dataflow(export_mobile(graph)) == []


class _Shapeless(Op):
    op_type = "shapeless"  # inherits Op.infer_shapes, which raises


def _df_conv_channel_mismatch():
    g = _base()
    g.add_param("w", np.zeros((3, 3, 5, 8), np.float32))  # expects 5 channels
    _wire(g, Conv2D("c", ["x"], ["y"], weight="w", stride=1, padding="same"),
          [(-1, 8, 8, 8)])
    g.output_names = ["y"]
    return g


def _df_shapeless():
    g = _base()
    _wire(g, _Shapeless("s", ["x"], ["y"]), [(-1, 8, 8, 4)])
    g.output_names = ["y"]
    return g


@pytest.mark.parametrize("breaker", [_df_conv_channel_mismatch, _df_shapeless])
def test_df006_fires_when_infer_shapes_rejects_recorded_inputs(breaker):
    """A ShapeError or NotImplementedError from the op's own inference is a
    shape disagreement located at that op, not a crash of the verifier."""
    g = breaker()
    hits = [f for f in check_dataflow(g) if f.rule_id == "DF006"]
    assert [f.op for f in hits] == [g.ops[0].name]


def test_df006_names_the_op_at_fault():
    """Each op is checked on its own recorded inputs, so a wrong spec is
    reported once, at its producer, not again at every consumer."""
    g = _base()
    _wire(g, _relu("a", "x", "y"), [(-1, 4, 4, 4)])  # wrong: relu keeps shape
    _wire(g, _relu("b", "y", "z"), [(-1, 4, 4, 4)])  # right, given y's spec
    g.output_names = ["z"]
    hits = [f for f in check_dataflow(g) if f.rule_id == "DF006"]
    assert [(f.op, f.tensor) for f in hits] == [("a", "y")]


# ---------------------------------------------------------------------------
# quantization rules QS001-QS007
# ---------------------------------------------------------------------------

def _qtensor(name, shape, scale, zp=0, numerics=Numerics.UINT8):
    qp = QuantParams(scale=np.array([scale]), zero_point=np.array([zp]),
                     numerics=numerics)
    return TensorSpec(name, shape, numerics, qparams=qp)


def _qs_overflow():
    """UINT8 FC with a 70k-deep reduction of full-scale weights: the
    worst-case accumulator provably exceeds int32."""
    g = Graph("qs_overflow")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 70000), scale=1.0, zp=0))
    g.add_param("w", np.full((70000, 4), 255, np.uint8))
    g.param_qparams["w"] = QuantParams(
        scale=np.array([0.01]), zero_point=np.array([128]), numerics=Numerics.UINT8)
    _wire(g, FullyConnected("fc", ["x"], ["y"], weight="w"), [(-1, 4)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 4), scale=0.05, zp=0)
    g.output_names = ["y"]
    return g


def _qs_small_fc(scale_bias_wrong=False, drop_weight_qp=False):
    g = Graph("qs_fc")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 16), scale=0.05, zp=128))
    g.add_param("w", np.full((16, 4), 130, np.uint8))
    if not drop_weight_qp:
        g.param_qparams["w"] = QuantParams(
            scale=np.array([0.02]), zero_point=np.array([128]),
            numerics=Numerics.UINT8)
    g.add_param("b", np.zeros(4, np.int32))
    bias_scale = 0.05 * 0.02 * (2.0 if scale_bias_wrong else 1.0)
    g.param_qparams["b"] = QuantParams(
        scale=np.array([bias_scale]), zero_point=np.array([0]),
        numerics=Numerics.INT16)
    _wire(g, FullyConnected("fc", ["x"], ["y"], weight="w", bias="b"), [(-1, 4)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 4), scale=0.05, zp=0)
    g.output_names = ["y"]
    return g


def _qs_degenerate_scale():
    g = Graph("qs_scale")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 8), scale=0.05))
    _wire(g, _relu("a", "x", "y"), [(-1, 8)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 8), scale=1e-15)
    g.output_names = ["y"]
    return g


def _qs_zp_out_of_range():
    g = Graph("qs_zp")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 8), scale=0.05))
    _wire(g, _relu("a", "x", "y"), [(-1, 8)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 8), scale=0.05, zp=300)
    g.output_names = ["y"]
    return g


def _qs_concat_clipping():
    g = Graph("qs_concat")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x1", (-1, 4), scale=1.0))  # real range [0, 255]
    g.add_input(_qtensor("x2", (-1, 4), scale=0.05))
    _wire(g, Concat("cat", ["x1", "x2"], ["y"], axis=1), [(-1, 8)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 8), scale=0.1)  # [0, 25.5]: clips x1
    g.output_names = ["y"]
    return g


def _qs_add_scale_mismatch():
    g = Graph("qs_add")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x1", (-1, 4), scale=1.0))
    g.add_input(_qtensor("x2", (-1, 4), scale=0.001))  # 1000x finer
    _wire(g, Add("add", ["x1", "x2"], ["y"]), [(-1, 4)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 4), scale=1.0)
    g.output_names = ["y"]
    return g


def _qs_float_fallback():
    return _qs_small_fc(drop_weight_qp=True)


def _qs_bias_drift():
    return _qs_small_fc(scale_bias_wrong=True)


def _qs_missing_qparams():
    g = Graph("qs_missing")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 8), scale=0.05))
    _wire(g, _relu("a", "x", "y"), [(-1, 8)])
    g.tensor_specs["y"] = TensorSpec("y", (-1, 8), Numerics.UINT8)  # no qparams
    g.output_names = ["y"]
    return g


QUANT_BREAKERS = {
    "QS001": _qs_overflow,
    "QS002": _qs_degenerate_scale,
    "QS003": _qs_zp_out_of_range,
    "QS004": _qs_concat_clipping,
    "QS005": _qs_float_fallback,
    "QS006": _qs_bias_drift,
    "QS007": _qs_missing_qparams,
}


@pytest.mark.parametrize("rule_id", sorted(QUANT_BREAKERS))
def test_quantization_rule_fires(rule_id):
    findings = check_quantization(QUANT_BREAKERS[rule_id]())
    assert rule_id in _ids(findings)


@pytest.mark.parametrize("missing", [None, "input", "weight", "output"])
def test_fc_qparams_decide_the_fallback_and_qs005(missing):
    """The plan's float fallback and QS005 read one decision, the op's
    ``missing_qparams``: drop any one of a quantized FC's three qparams and
    the plan compiles no integer kernel while QS005 names that qparam."""
    g = _qs_small_fc(drop_weight_qp=missing == "weight")
    if missing in ("input", "output"):
        g.spec({"input": "x", "output": "y"}[missing]).qparams = None
    assert g.ops[0].missing_qparams(g) == ([missing] if missing else [])
    kernels = 0 if missing else 1
    assert ExecutionPlan(g).describe()["integer_operands"] == {"float32": kernels, "float64": 0}
    qs005 = [f.message for f in check_quantization(g) if f.rule_id == "QS005"]
    assert len(qs005) == (1 if missing else 0)
    assert all(f"missing {missing} qparams" in m for m in qs005)


def test_add_scale_mismatch_also_fires_qs004():
    assert "QS004" in _ids(check_quantization(_qs_add_scale_mismatch()))


def test_sound_quantized_fc_is_clean():
    assert check_quantization(_qs_small_fc()) == []


def test_float_graphs_skip_quantization_rules():
    graph, _ = build_toy_graph()
    assert check_quantization(export_mobile(graph)) == []


def test_accumulator_bound_symbolic_is_worst_case():
    """A symbolic weight must bound at least as high as any materialized one."""
    g = _qs_small_fc()
    op = g.ops[0]
    materialized = accumulator_bound(op, g)
    g.params["w"] = None  # same shape, unknown values
    assert accumulator_bound(op, g) >= materialized


def _qs_shifted_weights(k=16):
    """UINT8 FC whose weight codes are all 0 at zero point 100, fed inputs
    at zero point 128: the centred weights are -100, so the integer GEMM's
    raw-code product ``x_q @ w_c`` reaches 255 * 100 * k, twice the
    mathematical accumulator's 128 * 100 * k."""
    g = Graph("qs_shifted")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, k), scale=0.05, zp=128))
    g.add_param("w", np.zeros((k, 4), np.uint8))
    g.param_qparams["w"] = QuantParams(
        scale=np.array([0.02]), zero_point=np.array([100]), numerics=Numerics.UINT8)
    _wire(g, FullyConnected("fc", ["x"], ["y"], weight="w"), [(-1, 4)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 4), scale=0.05, zp=0)
    g.output_names = ["y"]
    return g


def test_accumulator_bound_covers_the_kernel_terms():
    """QS001 bounds what the integer GEMM computes, ``x_q @ w_c`` plus the
    constant row ``-zx * colsum(w_c)``, not only the mathematical
    accumulator ``sum (x_q - zx)(w_q - zw)``."""
    g = _qs_shifted_weights()
    w_c = g.params["w"].astype(np.int64) - 100
    x_max = np.full((1, 16), 255, np.int64)
    gemm_peak = int(np.abs(x_max @ w_c).max())
    offset = int(np.abs(-128 * w_c.sum(axis=0)).max())
    assert gemm_peak == 408_000 and offset == 204_800
    assert accumulator_bound(g.ops[0], g) == gemm_peak + offset


def test_accumulator_bound_depthwise_centres_the_input():
    """Integer depthwise reduces the centred codes ``(x_q - zx) @ w_c``:
    with zx = 200 they reach 200 in magnitude, and the offset is the bias
    alone (none here)."""
    g = Graph("qs_dw")
    g.numerics = Numerics.UINT8
    g.add_input(_qtensor("x", (-1, 4, 4, 2), scale=0.05, zp=200))
    g.add_param("w", np.zeros((3, 3, 2, 1), np.uint8))
    g.param_qparams["w"] = QuantParams(
        scale=np.array([0.02]), zero_point=np.array([100]), numerics=Numerics.UINT8)
    _wire(g, DepthwiseConv2D("dw", ["x"], ["y"], weight="w", stride=1, padding="same"),
          [(-1, 4, 4, 2)])
    g.tensor_specs["y"] = _qtensor("y", (-1, 4, 4, 2), scale=0.05, zp=0)
    g.output_names = ["y"]
    assert accumulator_bound(g.ops[0], g) == 200 * 9 * 100


def test_qs001_fires_on_kernel_term_overflow():
    """A reduction deep enough that the kernel's ``x_q @ w_c`` passes int32
    while the mathematical accumulator (128 * 100 * k) stays below it."""
    k = 120_000
    assert 128 * 100 * k < 2**31 - 1 < 255 * 100 * k
    assert "QS001" in _ids(check_quantization(_qs_shifted_weights(k)))


# ---------------------------------------------------------------------------
# placement rules BP001-BP004
# ---------------------------------------------------------------------------

PLACEMENT_RULES = {"BP001", "BP002", "BP003", "BP004"}
_EXY = SOC_CATALOG["exynos_990"]


def _place(g, numerics=Numerics.INT8, framework=None):
    """Compile onto exynos_990's NPU with CPU fallback, then lint."""
    compiled = compile_model(g, _EXY, primary="npu", numerics=numerics,
                             framework=framework or FrameworkProfile("t"))
    return check_placement(g, compiled, "npu", "test")


def test_bp001_fires_on_unknown_op_type():
    g = _mystery_graph()  # "mystery" is known to no engine class
    assert "BP001" in _ids(check_schedulable(g))


def test_bp001_fires_on_unfolded_batch_norm():
    graph, _ = build_toy_graph()  # pre-export: still has batch norms
    graph.metadata["task"] = "image_classification"
    # the scheduler refuses the graph, so the sweep reports BP001 per
    # applicable profile instead of compiling it
    findings, placements = sweep_vendor_placements(graph, graph.numerics)
    assert placements == [] and findings
    assert all(f.rule_id == "BP001" and "batch_norm" in f.message
               for f in findings)


def test_bp002_fires_when_primary_rejects_numerics():
    g = _base()
    g.add_op(_relu("a", "x", "y"))
    g.set_outputs(["y"])
    findings, summary = _place(g, numerics=Numerics.FP32)  # the NPU has no FP32 path
    assert "BP002" in _ids(findings)
    assert [seg["accelerator"] for seg in summary["segments"]] == ["cpu"]


def test_bp003_fires_on_shredded_graph():
    g = Graph("confetti")
    g.add_input(TensorSpec("x", (-1, 8)))
    prev = "x"
    for i in range(13):  # relu on NPU, softmax falls back: 26 segments
        g.add_op(_relu(f"a{i}", prev, f"r{i}"))
        g.add_op(Softmax(f"s{i}", [f"r{i}"], [f"p{i}"]))
        prev = f"p{i}"
    g.set_outputs([prev])
    findings, summary = _place(g)
    assert summary["partition_count"] == 26
    assert "BP003" in _ids(findings)


def test_bp004_fires_when_fallback_owns_the_macs():
    g = Graph("fallback_heavy")
    g.add_input(TensorSpec("x", (-1, 16)))
    g.add_param("w", np.zeros((16, 64), np.float32))
    g.add_op(_relu("a", "x", "h"))
    g.add_op(FullyConnected("fc", ["h"], ["y"], weight="w"))
    g.set_outputs(["y"])
    fw = FrameworkProfile("t", unsupported_ops=frozenset({"fully_connected"}))
    findings, summary = _place(g, framework=fw)
    assert summary["fallback_op_types"] == ["fully_connected"]
    assert summary["primary_mac_fraction"] == 0.0
    assert "BP004" in _ids(findings)


# ---------------------------------------------------------------------------
# plan rules PL001-PL006 (tampered execution plans)
# ---------------------------------------------------------------------------

PLAN_RULES = {"PL001", "PL002", "PL003", "PL004", "PL005", "PL006"}


def _toy_plan():
    graph, _ = build_toy_graph()
    return ExecutionPlan(export_mobile(graph))


def test_clean_plan_has_no_findings():
    assert check_plan(_toy_plan()) == []


def test_pl001_release_before_last_use():
    plan = _toy_plan()
    victim = plan._steps[-1].inputs[0]
    plan._steps[-2].release = plan._steps[-2].release + (victim,)
    assert "PL001" in _ids(check_plan(plan))


def test_pl002_double_release():
    plan = _toy_plan()
    donor = next(s for s in plan._steps if s.release)
    plan._steps[-1].release = plan._steps[-1].release + (donor.release[0],)
    assert "PL002" in _ids(check_plan(plan))


def test_pl003_unbound_dispatch():
    plan = _toy_plan()
    plan._steps[0].fn = None
    assert "PL003" in _ids(check_plan(plan))


def test_pl004_leaked_intermediate():
    plan = _toy_plan()
    step = next(s for s in plan._steps if s.release)
    victim = step.release[0]
    step.release = tuple(t for t in step.release if t != victim)
    findings = check_plan(plan)
    assert any(f.rule_id == "PL004" and f.tensor == victim for f in findings)


def test_pl005_output_released():
    plan = _toy_plan()
    out = plan.graph.output_names[0]
    plan._steps[-1].release = plan._steps[-1].release + (out,)
    assert "PL005" in _ids(check_plan(plan))


def test_pl006_read_of_undefined_tensor():
    plan = _toy_plan()
    plan._steps[0].inputs = plan._steps[0].inputs + ("phantom",)
    findings = check_plan(plan)
    assert any(f.rule_id == "PL006" and f.tensor == "phantom" for f in findings)


def test_every_catalog_rule_has_a_breaker_test():
    covered = (set(DATAFLOW_BREAKERS) | set(QUANT_BREAKERS)
               | PLACEMENT_RULES | PLAN_RULES)
    assert covered == set(RULE_CATALOG)


# every ruleset version and its rule count per family (IDs run 001..n within
# a family); a catalog edit without a new row and a version bump fails
RULESETS = {
    4: {"BP": 4, "DF": 11, "PL": 7, "QS": 7, "VR": 6},
    5: {"BP": 4, "DF": 11, "PL": 6, "QS": 7, "VR": 6},
    6: {"BP": 4, "DF": 11, "PL": 6, "QS": 7},
    7: {"BP": 4, "DF": 10, "PL": 6, "QS": 7},
    8: {"BP": 4, "DF": 11, "PL": 6, "QS": 7},
}


def test_ruleset_version_pins_the_catalog():
    assert RULESET_VERSION == max(RULESETS)
    expected = sorted(
        f"{family}{i:03d}"
        for family, count in RULESETS[RULESET_VERSION].items()
        for i in range(1, count + 1)
    )
    assert sorted(RULE_CATALOG) == expected


def test_enn_v07_concat_exclusion_fragments_deeplab(unfitted_zoo):
    """The paper's 12.7x segmentation story: the v0.7 ENN driver cannot place
    concat on the NPU, shredding DeepLab; the v1.0 driver fixes it."""
    _, g = unfitted_zoo["deeplab_v3plus"]
    task = "semantic_segmentation"

    def place(soc_name):
        backend = create_backend("enn", SOC_CATALOG[soc_name])
        cfg = backend.task_execution(task)
        fw = cfg.framework or backend.config.framework
        compiled = backend.compile_single_stream(g, task)
        return fw, check_placement(g, compiled, cfg.primary, "enn")[1]

    fw_990, old = place("exynos_990")
    fw_2100, new = place("exynos_2100")
    assert "concat" in fw_990.unsupported_ops
    assert "concat" not in fw_2100.unsupported_ops
    assert "concat" in old["fallback_op_types"]
    assert old["partition_count"] > new["partition_count"]
    assert old["boundary_sync_ms"] > new["boundary_sync_ms"]


# ---------------------------------------------------------------------------
# zoo sweep: the whole model zoo x all numerics must come back clean
# ---------------------------------------------------------------------------

def test_zoo_sweep_is_clean(reference_check):
    """The zoo sweep's checked-in JSON report, which the session's reference
    check reproduced byte for byte: clean, and within the fragmentation budget."""
    proc, verdicts = reference_check
    assert verdicts.get("staticcheck") == {"STATICCHECK.json": "ok"}, proc.stdout + proc.stderr
    report = json.loads((ROOT / "benchmarks" / "results" / "STATICCHECK.json").read_text())
    assert len(report["reports"]) == len(ZOO_NUMERICS) * len(available_models())
    assert (report["total_findings"], report["exit_code"]) == (0, 0)
    worst = max(p["partition_count"] for r in report["reports"]
                for p in r["metrics"].get("placements", []))
    assert 1 <= worst <= 24


def test_verify_graph_runs_all_families():
    graph, _ = build_toy_graph()
    report = verify_graph(export_mobile(graph))
    assert report.clean
    assert "plan" in report.metrics
    assert "placements" in report.metrics


def test_verify_graph_rejects_unknown_family():
    graph, _ = build_toy_graph()
    with pytest.raises(ValueError, match="unknown analyzer"):
        verify_graph(export_mobile(graph), families=("dataflow", "nonsense"))


# ---------------------------------------------------------------------------
# findings, attestation, CLI
# ---------------------------------------------------------------------------

def test_finding_rejects_unknown_rule_id():
    with pytest.raises(KeyError):
        Finding("XX999", "g", message="nope")


def test_severity_ordering_and_report_gating():
    report = Report("x")
    report.extend(check_dataflow(_df_dangling()))  # DF001 error + DF002 warning
    assert 0 < len(report.errors) < len(report.findings)
    assert all(f.severity is Severity.ERROR for f in report.errors)
    assert not report.clean


def test_export_stamps_a_verified_attestation():
    graph, _ = build_toy_graph()
    g = export_mobile(graph)
    stamp = g.metadata["staticcheck"]
    assert stamp["verified"] is True
    assert stamp["ruleset"] == RULESET_VERSION
    assert stamp["checksum"] == g.checksum()
    assert attestation_problems(stamp, g.checksum()) == []


def test_stamps_reuse_the_frozen_checksum(monkeypatch, toy_inputs):
    """``attest`` stamps the checksum ``freeze()`` returned instead of hashing
    the graph again: an export hashes its source and its frozen result, an
    FP16 conversion or a quantization only its result."""
    graph, _ = build_toy_graph()
    stats = calibrate(export_mobile(graph), [toy_inputs])
    calls = []
    checksum = Graph.checksum
    monkeypatch.setattr(Graph, "checksum", lambda g: calls.append(g.name) or checksum(g))
    exported = export_mobile(graph)
    counts = [len(calls)]
    for convert in (convert_fp16, lambda g: quantize_graph(g, stats)):
        calls.clear()
        convert(exported)
        counts.append(len(calls))
    assert counts == [2, 1, 1]


def test_tampering_after_attestation_is_detected():
    graph, _ = build_toy_graph()
    g = export_mobile(graph)
    name = next(iter(g.params))
    g.params[name] = g.params[name] + 1.0
    problems = attestation_problems(g.metadata["staticcheck"], g.checksum())
    assert any("checksum" in p for p in problems)


def test_failed_verification_is_recorded_in_the_stamp():
    g = _df_dangling()
    stamp = attest(g, g.checksum(), verify_graph(g, families=("dataflow",)))
    assert stamp["verified"] is False and stamp["errors"] >= 1
    assert any("unresolved error" in p for p in attestation_problems(stamp, g.checksum()))


def test_validate_package_flags_bad_attestations(tmp_path):
    submission = Submission(
        SystemDescription("x", "dimensity_1100", "phone", "smartphone", "Android"), "v1.0",
        SuiteResult("dimensity_1100", "neuron", "v1.0"),
        model_provenance={"image_classification": {
            "staticcheck": {"ruleset": RULESET_VERSION, "verified": False,
                            "errors": 2, "checksum": "aaa"},
            "deployed_checksum": "bbb",
        }},
        loadgen_checksum=loadgen_checksum(),
    )
    problems = validate_package(write_submission(submission, tmp_path / "pkg"))
    assert any("failed static verification" in p for p in problems)
    assert any("modified after" in p for p in problems)


def test_cli_single_model_json(capsys):
    rc = staticcheck_main(["mobilenet_edgetpu", "--numerics", "fp32",
                           "--families", "dataflow,placement",
                           "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["exit_code"] == 0
    assert payload["ruleset"] == RULESET_VERSION
    assert payload["reports"][0]["subject"].endswith("[fp32]")


def test_cli_fails_on_any_finding(monkeypatch, capsys):
    """No severity is exempt: a sweep with one warning exits 1."""
    report = Report("m[fp32]")
    report.extend([Finding("DF002", "m", message="dead op", op="a")])
    monkeypatch.setattr("repro.staticcheck.__main__.sweep_zoo", lambda *a, **k: [report])
    assert staticcheck_main(["mobilenet_edgetpu", "--numerics", "fp32"]) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_cli_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit):
        staticcheck_main(["no_such_model"])


# ---------------------------------------------------------------------------
# satellites: tightened Graph.validate and ShapeError context
# ---------------------------------------------------------------------------

# the rules Graph.problems states once: validate raises on each, and
# check_dataflow reports each, from the same breaker graph
SHARED_RULES = ("DF001", "DF004", "DF005", "DF008", "DF010", "DF011")


class TestValidateTightening:
    @pytest.mark.parametrize("rule_id", SHARED_RULES)
    def test_validate_and_check_dataflow_agree(self, rule_id):
        g = DATAFLOW_BREAKERS[rule_id]()
        with pytest.raises(GraphValidationError) as raised:
            g.validate()
        hit = next(f for f in check_dataflow(g) if f.rule_id == rule_id)
        assert str(raised.value) == hit.message

    def test_duplicate_op_names_rejected(self):
        g = _df_duplicate_op_name()
        with pytest.raises(GraphValidationError, match="more than once"):
            g.validate()

    def test_output_naming_nonexistent_tensor_rejected(self):
        g = _df_unreachable_output()
        with pytest.raises(GraphValidationError, match="ghost"):
            g.validate()

    def test_param_shadowing_input_rejected(self):
        g = _df_param_shadows_input()
        with pytest.raises(GraphValidationError, match="shadows"):
            g.validate()

    def test_duplicate_producer_rejected_with_both_op_names(self):
        g = _df_duplicate_producer()
        with pytest.raises(GraphValidationError, match="'a' and 'b'"):
            g.validate()


class TestShapeErrorContext:
    def test_conv_channel_mismatch(self):
        g = Graph("t")
        g.add_input(TensorSpec("x", (-1, 8, 8, 4)))
        g.add_param("w", np.zeros((3, 3, 5, 8), np.float32))
        with pytest.raises(ShapeError) as ei:
            g.add_op(Conv2D("c", ["x"], ["y"], weight="w", stride=1,
                            padding="same"))
        err = ei.value
        assert err.op_name == "c" and err.op_type == "conv2d"
        assert err.in_shapes == [(-1, 8, 8, 4)]
        assert "'c'" in str(err) and "(-1, 8, 8, 4)" in str(err)

    def test_add_operand_mismatch(self):
        g = Graph("t")
        g.add_input(TensorSpec("a", (-1, 4, 4, 2)))
        g.add_input(TensorSpec("b", (-1, 5, 4, 2)))
        with pytest.raises(ShapeError, match="disagree beyond the batch dim"):
            g.add_op(Add("add", ["a", "b"], ["y"]))

    def test_concat_non_axis_mismatch_names_dims(self):
        g = Graph("t")
        g.add_input(TensorSpec("a", (-1, 4, 4, 2)))
        g.add_input(TensorSpec("b", (-1, 5, 4, 2)))
        with pytest.raises(ShapeError, match=r"non-concat dim\(s\) \[1\]"):
            g.add_op(Concat("cat", ["a", "b"], ["y"], axis=3))

    def test_split_divisibility(self):
        g = Graph("t")
        g.add_input(TensorSpec("x", (-1, 10)))
        with pytest.raises(ShapeError, match="not divisible into 3 parts"):
            g.add_op(Split("s", ["x"], ["p0", "p1", "p2"], parts=3))
