"""Static verifier tests: every rule fires on a seeded-broken graph, the
clean zoo stays silent, and the placement predictor agrees with the hardware
simulator op-by-op on every applicable vendor profile."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import build_toy_graph
from repro.backends.vendors import BACKEND_FACTORIES
from repro.core.export import validate_package
from repro.graph import GraphBuilder, export_mobile
from repro.graph.graph import Graph, GraphValidationError
from repro.graph.ops import (
    Activation,
    Add,
    Concat,
    Conv2D,
    FullyConnected,
    Op,
    ShapeError,
    Softmax,
    Split,
)
from repro.graph.plan import ExecutionPlan
from repro.graph.tensor import TensorSpec
from repro.hardware.scheduler import FrameworkProfile, partition_graph
from repro.hardware.soc import SOC_CATALOG
from repro.kernels.numerics import Numerics, QuantParams
from repro.models import available_models, create_reference_model
from repro.staticcheck import (
    ALL_FAMILIES,
    KNOWN_FAMILIES,
    RULE_CATALOG,
    RULESET_VERSION,
    Baseline,
    Finding,
    Interval,
    Report,
    Severity,
    accumulator_bound,
    attest,
    attestation_problems,
    check_dataflow,
    check_placement,
    check_plan,
    check_quantization,
    check_ranges,
    independent_shapes,
    infer_graph_ranges,
    input_intervals,
    observed_ranges,
    predict_op_targets,
    predict_placement,
    sweep_zoo,
    verify_graph,
    zoo_deployments,
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


class _Mystery(Op):
    op_type = "mystery"

    def infer_shapes(self, in_shapes, graph):
        return [in_shapes[0]]


def _df_unverifiable():
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
    "DF011": _df_unverifiable,
}


@pytest.mark.parametrize("rule_id", sorted(DATAFLOW_BREAKERS))
def test_dataflow_rule_fires(rule_id):
    findings = check_dataflow(DATAFLOW_BREAKERS[rule_id]())
    assert rule_id in _ids(findings)
    hit = next(f for f in findings if f.rule_id == rule_id)
    assert hit.severity is RULE_CATALOG[rule_id].severity
    assert hit.location != "<graph>" or rule_id not in ("DF001", "DF006")


def test_clean_toy_graph_has_no_dataflow_findings():
    graph, _ = build_toy_graph()
    assert check_dataflow(export_mobile(graph)) == []


def test_independent_shapes_reports_unverifiable_ops():
    g = _df_unverifiable()
    shapes, unverifiable = independent_shapes(g)
    assert [op.name for op in unverifiable] == ["m"]
    assert "y" not in shapes  # nothing downstream of a mystery op is claimed


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


# ---------------------------------------------------------------------------
# placement rules BP001-BP004
# ---------------------------------------------------------------------------

PLACEMENT_RULES = {"BP001", "BP002", "BP003", "BP004"}
_EXY = SOC_CATALOG["exynos_990"]


def _predict(g, numerics=Numerics.INT8, framework=None, soc=_EXY):
    return predict_placement(
        g, backend="test", task="t", numerics=numerics, soc=soc,
        primary=soc.accelerator("npu"), fallback=soc.accelerator("cpu"),
        framework=framework)


def test_bp001_fires_on_unknown_op_type():
    g = _df_unverifiable()  # "mystery" is known to no engine class
    findings = check_placement(g, _predict(g), _EXY)
    assert "BP001" in _ids(findings)


def test_bp001_fires_on_unfolded_batch_norm():
    graph, _ = build_toy_graph()  # pre-export: still has batch norms
    findings = check_placement(graph, _predict(graph), _EXY)
    assert any(f.rule_id == "BP001" and "batch_norm" in f.message
               for f in findings)


def test_bp002_fires_when_primary_rejects_numerics():
    g = _base()
    g.add_op(_relu("a", "x", "y"))
    g.set_outputs(["y"])
    pred = _predict(g, numerics=Numerics.FP32)  # the NPU has no FP32 path
    findings = check_placement(g, pred, _EXY)
    assert "BP002" in _ids(findings)
    assert all(acc == "cpu" for _n, acc in pred.op_targets)


def test_bp003_fires_on_shredded_graph():
    g = Graph("confetti")
    g.add_input(TensorSpec("x", (-1, 8)))
    prev = "x"
    for i in range(13):  # relu on NPU, softmax falls back: 26 segments
        g.add_op(_relu(f"a{i}", prev, f"r{i}"))
        g.add_op(Softmax(f"s{i}", [f"r{i}"], [f"p{i}"]))
        prev = f"p{i}"
    g.set_outputs([prev])
    pred = _predict(g)
    assert pred.partition_count == 26
    assert "BP003" in _ids(check_placement(g, pred, _EXY))


def test_bp004_fires_when_fallback_owns_the_macs():
    g = Graph("fallback_heavy")
    g.add_input(TensorSpec("x", (-1, 16)))
    g.add_param("w", np.zeros((16, 64), np.float32))
    g.add_op(_relu("a", "x", "h"))
    g.add_op(FullyConnected("fc", ["h"], ["y"], weight="w"))
    g.set_outputs(["y"])
    fw = FrameworkProfile("t", unsupported_ops=frozenset({"fully_connected"}))
    pred = _predict(g, framework=fw)
    assert pred.fallback_op_types == ["fully_connected"]
    assert pred.primary_mac_fraction == 0.0
    assert "BP004" in _ids(check_placement(g, pred, _EXY))


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


# ---------------------------------------------------------------------------
# value-range rules VR001-VR006: one seeded-broken graph each
# ---------------------------------------------------------------------------

def _vr_range_aware_overflow():
    """The QS001 graph, but with a declared input domain wide enough that
    even the range-restricted accumulator provably exceeds int32."""
    g = _qs_overflow()
    g.inputs[0].domain = (0.0, 255.0)
    return g


def _vr_requant_clipping():
    # the FC's proven output interval reaches -4.1, but the uint8 output
    # qparams (zp=0) cannot represent anything negative: requantization clips
    return _qs_small_fc()


def _vr_uncovered_calibration():
    g = _qs_small_fc()
    g.metadata["quantization"] = {"calibration_ranges": {"y": [0.0, 0.1]}}
    return g


def _vr_fp16_overflow():
    g = Graph("vr_fp16_overflow")
    g.numerics = Numerics.FP16
    g.add_input(TensorSpec("x", (-1, 16), Numerics.FP16, domain=(-100.0, 100.0)))
    g.add_param("w", np.full((16, 64), 50.0, np.float32))
    _wire(g, FullyConnected("fc", ["x"], ["y"], weight="w"), [(-1, 64)],
          numerics=Numerics.FP16)
    g.output_names = ["y"]
    return g


def _vr_fp16_denormal():
    g = Graph("vr_fp16_denormal")
    g.numerics = Numerics.FP16
    g.add_input(TensorSpec("x", (-1, 16), Numerics.FP16, domain=(-1e-3, 1e-3)))
    g.add_param("w", np.full((16, 4), 1e-6, np.float32))
    _wire(g, FullyConnected("fc", ["x"], ["y"], weight="w"), [(-1, 4)],
          numerics=Numerics.FP16)
    g.output_names = ["y"]
    return g


def _vr_dead_activation():
    g = Graph("vr_dead")
    g.add_input(TensorSpec("x", (-1, 8), domain=(-5.0, -1.0)))
    _wire(g, _relu("a", "x", "y"), [(-1, 8)])
    g.output_names = ["y"]
    return g


RANGE_BREAKERS = {
    "VR001": _vr_range_aware_overflow,
    "VR002": _vr_requant_clipping,
    "VR003": _vr_uncovered_calibration,
    "VR004": _vr_fp16_overflow,
    "VR005": _vr_fp16_denormal,
    "VR006": _vr_dead_activation,
}


@pytest.mark.parametrize("rule_id", sorted(RANGE_BREAKERS))
def test_range_rule_fires(rule_id):
    findings, _metrics = check_ranges(RANGE_BREAKERS[rule_id]())
    assert rule_id in _ids(findings)
    hit = next(f for f in findings if f.rule_id == rule_id)
    assert hit.severity is RULE_CATALOG[rule_id].severity


def test_vr001_needs_the_declared_domain():
    """Without the wide domain, the range-aware accumulator proof clears the
    very graph QS001 condemns — the whole point of the tightening."""
    findings, _ = check_ranges(_qs_overflow())
    assert "VR001" not in _ids(findings)
    assert "QS001" in _ids(check_quantization(_qs_overflow()))


def test_range_aware_accumulator_bound_never_exceeds_format_bound():
    g = _qs_overflow()
    op = g.ops[0]
    fmt = accumulator_bound(g.ops[0], g)
    assert accumulator_bound(op, g, (0, 9)) <= fmt
    assert accumulator_bound(op, g, (0, 9)) < fmt  # strictly tighter here
    assert accumulator_bound(op, g, (0, 255)) == fmt


def test_input_intervals_precedence():
    g = Graph("seeds")
    g.add_input(TensorSpec("a", (-1, 4), domain=(-1.0, 1.0)))
    g.add_input(TensorSpec("m", (-1, 4), role="mask"))
    g.add_input(TensorSpec("d", (-1, 4)))
    seeds = input_intervals(g, overrides={"a": (0.0, 0.5)})
    assert seeds["a"] == Interval(0.0, 0.5)      # override beats domain
    assert seeds["m"] == Interval(0.0, 1.0)      # role default
    assert seeds["d"] == Interval(-8.0, 8.0)     # DEFAULT_DATA_DOMAIN
    assert input_intervals(g)["a"] == Interval(-1.0, 1.0)


def test_quantized_storage_clips_to_representable_window():
    an = infer_graph_ranges(_qs_small_fc())
    x = an.intervals["x"]  # scale 0.05, zp 128: representable [-6.4, 6.35]
    assert -6.5 <= x.lo and x.hi <= 6.4
    assert an.pre_storage["x"] == Interval(-8.0, 8.0)


def test_every_catalog_rule_has_a_breaker_test():
    covered = (set(DATAFLOW_BREAKERS) | set(QUANT_BREAKERS)
               | PLACEMENT_RULES | PLAN_RULES | set(RANGE_BREAKERS))
    assert covered == set(RULE_CATALOG)


# every ruleset version and its rule count per family (IDs run 001..n within
# a family); a catalog edit without a new row and a version bump fails
RULESETS = {
    4: {"BP": 4, "DF": 11, "PL": 7, "QS": 7, "VR": 6},
    5: {"BP": 4, "DF": 11, "PL": 6, "QS": 7, "VR": 6},
}


def test_ruleset_version_pins_the_catalog():
    assert RULESET_VERSION == max(RULESETS)
    expected = sorted(
        f"{family}{i:03d}"
        for family, count in RULESETS[RULESET_VERSION].items()
        for i in range(1, count + 1)
    )
    assert sorted(RULE_CATALOG) == expected


# ---------------------------------------------------------------------------
# transfer-function soundness: per-op property fuzz + the zoo x numerics
# matrix, observed concrete ranges vs proven intervals
# ---------------------------------------------------------------------------

def _fz_image(name, ch=4, lo=-2.0, hi=2.0):
    b = GraphBuilder(name, seed=5)
    return b, b.input("x", (-1, 8, 8, ch), domain=(lo, hi))


def _fz_conv():
    b, x = _fz_image("fz_conv")
    b.outputs(b.conv(x, 8, activation="relu"))
    return b.build()


def _fz_dwconv():
    b, x = _fz_image("fz_dwconv")
    b.outputs(b.dwconv(x, activation="relu6"))
    return b.build()


def _fz_fc():
    b = GraphBuilder("fz_fc", seed=5)
    x = b.input("x", (-1, 16), domain=(-3.0, 3.0))
    b.outputs(b.fc(x, 8))
    return b.build()


def _fz_avg_pool():
    b, x = _fz_image("fz_avgpool")
    b.outputs(b.avg_pool(x, 2))
    return b.build()


def _fz_max_pool():
    b, x = _fz_image("fz_maxpool")
    b.outputs(b.max_pool(x, 2))
    return b.build()


def _fz_global_pool():
    b, x = _fz_image("fz_gap")
    b.outputs(b.global_pool(x))
    return b.build()


def _fz_resize():
    b, x = _fz_image("fz_resize")
    b.outputs(b.resize(x, 16, 16))
    return b.build()


def _fz_add():
    b, x = _fz_image("fz_add")
    b.outputs(b.add(b.conv(x, 4, name="c1"), b.conv(x, 4, name="c2"),
                    activation="relu"))
    return b.build()


def _fz_concat():
    b, x = _fz_image("fz_concat")
    b.outputs(b.concat([b.conv(x, 4, name="c1"), b.conv(x, 4, name="c2")]))
    return b.build()


def _fz_activation():
    # one branch per transfer-table kind, all from the same signed input
    b = GraphBuilder("fz_act", seed=5)
    x = b.input("x", (-1, 16), domain=(-6.0, 6.0))
    kinds = ("relu", "relu6", "hard_sigmoid", "hard_swish", "sigmoid",
             "tanh", "gelu")
    b.outputs(*[b.activation(x, k, name=f"a_{k}") for k in kinds])
    return b.build()


def _fz_softmax():
    b = GraphBuilder("fz_softmax", seed=5)
    x = b.input("x", (-1, 16), domain=(-4.0, 4.0))
    b.outputs(b.softmax(x))
    return b.build()


def _fz_reshape():
    b, x = _fz_image("fz_reshape")
    b.outputs(b.reshape(x, (-1, 256)))
    return b.build()


def _fz_batch_norm():
    b, x = _fz_image("fz_bn")
    b.outputs(b.conv(x, 8, use_bn=True, activation="relu"))
    return b.build()


def _fz_layer_norm():
    b = GraphBuilder("fz_ln", seed=5)
    x = b.input("x", (-1, 4, 16), domain=(-2.0, 2.0))
    b.outputs(b.layer_norm(x))
    return b.build()


def _fz_attention():
    b = GraphBuilder("fz_attn", seed=5)
    x = b.input("x", (-1, 4, 16), domain=(-1.0, 1.0))
    b.outputs(b.attention(x, x, x, num_heads=2))
    return b.build()


def _fz_embedding():
    b = GraphBuilder("fz_embed", seed=5)
    ids = b.input("ids", (-1, 6), role="ids")
    b.outputs(b.embedding(ids, vocab=30, dim=8, max_positions=6))
    return b.build()


def _fz_split():
    b, x = _fz_image("fz_split")
    b.outputs(*b.split(x, 2))
    return b.build()


def _fz_lstm():
    b = GraphBuilder("fz_lstm", seed=5)
    x = b.input("x", (-1, 5, 8), domain=(-2.0, 2.0))
    b.outputs(b.lstm(x, 8))
    return b.build()


def _fz_depth_to_space():
    b, x = _fz_image("fz_d2s", ch=8)
    b.outputs(b.depth_to_space(x, 2))
    return b.build()


def _fz_constant():
    b, x = _fz_image("fz_constant", ch=4)
    k = b.constant(np.linspace(-1.5, 1.5, 8 * 8 * 4, dtype=np.float32).reshape(8, 8, 4))
    b.outputs(b.add(x, k))
    return b.build()


def _fz_pad():
    b, x = _fz_image("fz_pad")
    b.outputs(b.conv(b.pad(x, (1, 1), (1, 1), value=0.5), 4, k=3, padding="valid"))
    return b.build()


FUZZ_BUILDERS = {
    "conv2d": _fz_conv,
    "depthwise_conv2d": _fz_dwconv,
    "fully_connected": _fz_fc,
    "avg_pool2d": _fz_avg_pool,
    "max_pool2d": _fz_max_pool,
    "global_avg_pool": _fz_global_pool,
    "resize_bilinear": _fz_resize,
    "add": _fz_add,
    "concat": _fz_concat,
    "activation": _fz_activation,
    "softmax": _fz_softmax,
    "reshape": _fz_reshape,
    "batch_norm": _fz_batch_norm,
    "layer_norm": _fz_layer_norm,
    "attention": _fz_attention,
    "embedding": _fz_embedding,
    "split": _fz_split,
    "lstm": _fz_lstm,
    "depth_to_space": _fz_depth_to_space,
    "constant": _fz_constant,
    "pad": _fz_pad,
}


def _domain_feeds(graph, rng, batch=2):
    feeds = {}
    for spec in graph.inputs:
        shape = spec.with_batch(batch)
        if spec.role == "ids":
            feeds[spec.name] = rng.integers(0, 28, size=shape).astype(np.float32)
        elif spec.role == "mask":
            feeds[spec.name] = np.ones(shape, dtype=np.float32)
        else:
            lo, hi = spec.domain if spec.domain else (-8.0, 8.0)
            feeds[spec.name] = np.clip(
                rng.normal(0, 0.5 * max(abs(lo), abs(hi)), size=shape), lo, hi
            ).astype(np.float32)
    return feeds


def _assert_observed_within_proven(graph, analysis, feeds_seq):
    obs = observed_ranges(graph, feeds_seq)
    bad = [(n, o, analysis.intervals[n]) for n, o in obs.items()
           if n in analysis.intervals
           and not (analysis.intervals[n].lo <= o[0]
                    and o[1] <= analysis.intervals[n].hi)]
    assert bad == []


@pytest.mark.parametrize("op_type", sorted(FUZZ_BUILDERS))
def test_transfer_function_soundness_fuzz(op_type):
    """Property fuzz: for seeded random feeds inside the declared input
    domain, every concrete tensor value lies inside the proven interval."""
    g = FUZZ_BUILDERS[op_type]()
    assert any(op.op_type == op_type for op in g.ops)
    analysis = infer_graph_ranges(g)
    rng = np.random.default_rng(11)
    feeds_seq = [_domain_feeds(g, rng) for _ in range(4)]
    _assert_observed_within_proven(g, analysis, feeds_seq)


def test_fuzz_covers_every_range_transfer():
    """Every op class with its own ``infer_ranges`` has a fuzz case."""
    def subclasses(c):
        for s in c.__subclasses__():
            yield s
            yield from subclasses(s)

    overriding = {c.op_type for c in subclasses(Op)
                  if "infer_ranges" in c.__dict__}
    exercised = {op.op_type for t in FUZZ_BUILDERS for op in FUZZ_BUILDERS[t]().ops}
    assert overriding <= exercised


@pytest.mark.parametrize("model", available_models())
def test_zoo_observed_ranges_within_proven(model):
    """The soundness invariant across the deployment matrix: for every zoo
    model x {fp32, fp16, int8, uint8}, instrumented execution stays inside
    the proven intervals, and the range-aware accumulator bound never
    exceeds the format worst case."""
    modes = (Numerics.FP32, Numerics.FP16, Numerics.INT8, Numerics.UINT8)
    for numerics, graph in zoo_deployments(model, modes):
        analysis = infer_graph_ranges(graph)
        rng = np.random.default_rng(1)
        _assert_observed_within_proven(graph, analysis, [_domain_feeds(graph, rng)])
        for name, bounds in analysis.acc_bounds.items():
            assert bounds["range_aware"] <= bounds["format"], (model, numerics, name)


def test_ranges_family_is_opt_in():
    assert "ranges" not in ALL_FAMILIES
    assert "ranges" in KNOWN_FAMILIES


def test_verify_graph_with_ranges_family_reports_metrics():
    graph, _ = build_toy_graph()
    report = verify_graph(export_mobile(graph),
                          families=("dataflow", "ranges"))
    metrics = report.metrics["ranges"]
    assert metrics["tensors"] == metrics["bounded"] > 0
    assert metrics["tensors"] == len(metrics["intervals"])
    assert all(len(v) == 2 for v in metrics["intervals"].values())


# ---------------------------------------------------------------------------
# cross-validation: predictor vs the hardware simulator, every vendor profile
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exported_zoo():
    graphs = {}
    for name in available_models():
        g = create_reference_model(name, fitted=False).graph
        if not g.frozen:
            g = export_mobile(g)
        graphs[name] = g
    return graphs


def _applicable_profiles():
    for backend_name, factory in sorted(BACKEND_FACTORIES.items()):
        for _soc_name, soc in sorted(SOC_CATALOG.items()):
            config = factory(soc)
            if config.vendor is not None and config.vendor != soc.vendor:
                continue
            if config.vendor is None and soc.name != "snapdragon_888":
                continue
            yield backend_name, config, soc


def test_predictor_agrees_with_simulator(exported_zoo):
    """For every (vendor profile, SoC, model): the static predictor and the
    runtime partitioner must assign every op to the same engine, yield the
    same segment count, and the same fallback-op set."""
    compared = 0
    for backend_name, config, soc in _applicable_profiles():
        for model, g in exported_zoo.items():
            task = str(g.metadata.get("task", "unknown"))
            cfg = config.tasks.get(task)
            if cfg is None:
                continue
            fw = cfg.framework or config.framework
            primary = soc.accelerator(cfg.primary)
            fallback = soc.accelerator("cpu")
            secondary = soc.accelerator(cfg.secondary) if cfg.secondary else None

            targets = predict_op_targets(
                g, primary, fallback, cfg.numerics, secondary, fw.unsupported_ops)
            segments = partition_graph(
                g, primary, fallback, cfg.numerics, secondary, fw.unsupported_ops)
            simulated = {name: seg.accelerator.name
                         for seg in segments for name in seg.op_names}
            where = f"{backend_name}@{soc.name}/{model}"
            assert {n: a.name for n, a in targets} == simulated, where

            pred = predict_placement(
                g, backend=backend_name, task=task, numerics=cfg.numerics,
                soc=soc, primary=primary, fallback=fallback,
                secondary=secondary, framework=fw)
            assert pred.partition_count == len(segments), where
            assert set(pred.fallback_ops) == {
                n for n, acc in simulated.items() if acc != primary.name}, where
            compared += 1
    assert compared >= 20  # every vendor profile exercised


def test_enn_v07_concat_exclusion_fragments_deeplab(exported_zoo):
    """The paper's 12.7x segmentation story: the v0.7 ENN driver cannot place
    concat on the NPU, shredding DeepLab; the v1.0 driver fixes it."""
    g = exported_zoo["deeplab_v3plus"]

    def place(soc_name):
        soc = SOC_CATALOG[soc_name]
        config = BACKEND_FACTORIES["enn"](soc)
        cfg = config.tasks["semantic_segmentation"]
        fw = cfg.framework or config.framework
        return fw, predict_placement(
            g, backend="enn", task="semantic_segmentation", numerics=cfg.numerics,
            soc=soc, primary=soc.accelerator(cfg.primary),
            fallback=soc.accelerator("cpu"),
            secondary=soc.accelerator(cfg.secondary) if cfg.secondary else None,
            framework=fw)

    fw_990, old = place("exynos_990")
    fw_2100, new = place("exynos_2100")
    assert "concat" in fw_990.unsupported_ops
    assert "concat" not in fw_2100.unsupported_ops
    assert "concat" in old.fallback_op_types
    assert old.partition_count > new.partition_count
    assert old.boundary_sync_ms > new.boundary_sync_ms


# ---------------------------------------------------------------------------
# zoo sweep: the whole model zoo x all numerics must come back clean
# ---------------------------------------------------------------------------

def test_zoo_sweep_is_clean():
    reports = sweep_zoo()
    assert len(reports) == 4 * len(available_models())
    offenders = [f.render() for r in reports for f in r.findings]
    assert offenders == []
    # placement metrics exist and the predicted fragmentation stays in budget
    worst = max(p["partition_count"] for r in reports
                for p in r.metrics.get("placements", []))
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
# findings, baselines, attestation, CLI
# ---------------------------------------------------------------------------

def test_finding_rejects_unknown_rule_id():
    with pytest.raises(KeyError):
        Finding("XX999", "g", message="nope")


def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    findings = check_dataflow(_df_dangling())
    assert findings
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings, "grandfathered").save(path)
    report = Report("broken[fp32]")
    report.extend(findings)
    report.apply_baseline(Baseline.load(path))
    assert report.findings == []
    assert len(report.suppressed) == len(findings)
    # a *new* finding is not suppressed by the old baseline
    fresh = Report("other")
    fresh.extend(check_dataflow(_df_duplicate_op_name()))
    fresh.apply_baseline(Baseline.load(path))
    assert fresh.findings


def test_severity_ordering_and_report_gating():
    report = Report("x")
    report.extend(check_dataflow(_df_dangling()))  # DF001 error + DF002 warning
    assert len(report.at_least(Severity.ERROR)) < len(report.at_least(Severity.INFO))
    assert report.errors and not report.clean


def test_export_stamps_a_verified_attestation():
    graph, _ = build_toy_graph()
    g = export_mobile(graph)
    stamp = g.metadata["staticcheck"]
    assert stamp["verified"] is True
    assert stamp["ruleset"] == RULESET_VERSION
    assert stamp["checksum"] == g.checksum()
    assert attestation_problems(g) == []


def test_tampering_after_attestation_is_detected():
    graph, _ = build_toy_graph()
    g = export_mobile(graph)
    name = next(iter(g.params))
    g.params[name] = g.params[name] + 1.0
    assert any("checksum" in p for p in attestation_problems(g))


def test_failed_verification_is_recorded_in_the_stamp():
    g = _df_dangling()
    stamp = attest(g, verify_graph(g, families=("dataflow",)))
    assert stamp["verified"] is False and stamp["errors"] >= 1
    assert any("unresolved error" in p for p in attestation_problems(g))


def test_validate_package_flags_bad_attestations(tmp_path):
    root = tmp_path / "pkg"
    (root / "results" / "image_classification").mkdir(parents=True)
    (root / "system.json").write_text("{}")
    (root / "summary.json").write_text("[]")
    (root / "provenance.json").write_text(json.dumps({
        "version": "v1.0",
        "models": {"image_classification": {
            "staticcheck": {"ruleset": RULESET_VERSION, "verified": False,
                            "errors": 2, "checksum": "aaa"},
            "deployed_checksum": "bbb",
        }},
    }))
    problems = validate_package(root)
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


def test_cli_ranges_flag_appends_family(capsys):
    rc = staticcheck_main(["mobile_streaming_asr", "--numerics", "fp32",
                           "--ranges", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0  # fp32 zoo deployments carry no VR findings
    assert "ranges" in payload["families"]
    assert set(payload["families"]) == set(ALL_FAMILIES) | {"ranges"}


def test_cli_ranges_baseline_roundtrip(tmp_path, capsys):
    """The ci.sh contract: the int8 VR findings gate until baselined."""
    args = ["mobile_streaming_asr", "--numerics", "int8", "--ranges"]
    assert staticcheck_main(args) == 1  # VR002 warnings gate by default
    path = tmp_path / "vr_known.json"
    assert staticcheck_main(args + ["--write-baseline", str(path)]) == 0
    assert json.loads(path.read_text())  # non-empty suppression file
    assert staticcheck_main(args + ["--baseline", str(path)]) == 0
    capsys.readouterr()


def test_cli_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit):
        staticcheck_main(["no_such_model"])


def test_cli_write_baseline_of_clean_model_is_empty(tmp_path, capsys):
    path = tmp_path / "known.json"
    rc = staticcheck_main(["mobilenet_edgetpu", "--numerics", "fp32",
                           "--families", "dataflow",
                           "--write-baseline", str(path)])
    assert rc == 0
    assert json.loads(path.read_text()) == {}


# ---------------------------------------------------------------------------
# satellites: tightened Graph.validate and ShapeError context
# ---------------------------------------------------------------------------

class TestValidateTightening:
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
