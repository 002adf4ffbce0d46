"""Graph IR: builder, shape inference, validation, checksums, costs."""

import numpy as np
import pytest

from repro.graph import Executor, GraphBuilder, GraphValidationError
from repro.graph.graph import Graph
from repro.graph.ops import Conv2D, OpCost
from repro.graph.tensor import TensorSpec
from repro.kernels import Numerics

from conftest import build_toy_graph


class TestTensorSpec:
    def test_elements_skip_batch(self):
        spec = TensorSpec("t", (-1, 4, 4, 3))
        assert spec.elements_per_sample == 48

    def test_bytes_per_numerics(self):
        spec = TensorSpec("t", (-1, 10), Numerics.INT8)
        assert spec.bytes_per_sample() == 10

    def test_with_batch(self):
        assert TensorSpec("t", (-1, 2)).with_batch(5) == (5, 2)


class TestGraphConstruction:
    def test_duplicate_input(self):
        g = Graph("g")
        g.add_input(TensorSpec("x", (-1, 4)))
        with pytest.raises(GraphValidationError):
            g.add_input(TensorSpec("x", (-1, 4)))

    def test_unknown_input_tensor(self):
        g = Graph("g")
        g.add_input(TensorSpec("x", (-1, 2, 2, 3)))
        g.add_param("w", np.zeros((3, 3, 3, 4), dtype=np.float32))
        op = Conv2D("c", ["nope"], ["y"], weight="w", bias=None, stride=1, padding="same")
        with pytest.raises(GraphValidationError):
            g.add_op(op)

    def test_unknown_param(self):
        g = Graph("g")
        g.add_input(TensorSpec("x", (-1, 2, 2, 3)))
        op = Conv2D("c", ["x"], ["y"], weight="missing", bias=None, stride=1, padding="same")
        with pytest.raises(GraphValidationError):
            g.add_op(op)

    def test_duplicate_tensor_production(self):
        g = Graph("g")
        g.add_input(TensorSpec("x", (-1, 2, 2, 3)))
        g.add_param("w", np.zeros((1, 1, 3, 3), dtype=np.float32))
        g.add_op(Conv2D("c1", ["x"], ["y"], weight="w", bias=None, stride=1, padding="same"))
        with pytest.raises(GraphValidationError):
            g.add_op(Conv2D("c2", ["x"], ["y"], weight="w", bias=None, stride=1, padding="same"))

    def test_symbolic_param_needs_shape(self):
        g = Graph("g")
        with pytest.raises(GraphValidationError):
            g.add_param("w", None)

    def test_validate_dead_tensor(self):
        graph, out = build_toy_graph()
        # add an op whose output is never consumed
        b = GraphBuilder("g2", seed=0)
        x = b.input("x", (-1, 4, 4, 3))
        h = b.conv(x, 4)
        _dead = b.conv(h, 4)
        used = b.conv(h, 2)
        b.outputs(used)
        with pytest.raises(GraphValidationError):
            b.build()

    def test_validate_no_outputs(self):
        b = GraphBuilder("g", seed=0)
        b.input("x", (-1, 4))
        with pytest.raises(GraphValidationError):
            b.build()


class TestShapes:
    def test_shape_inference_chain(self, toy_graph):
        graph, out = toy_graph
        assert graph.spec(out).shape == (-1, 10)

    def test_conv_shape_stride(self):
        b = GraphBuilder("g", seed=0)
        x = b.input("x", (-1, 15, 15, 3))
        h = b.conv(x, 8, k=3, stride=2)
        assert b.graph.spec(h).shape == (-1, 8, 8, 8)

    def test_reshape_mismatch_raises(self):
        b = GraphBuilder("g", seed=0)
        x = b.input("x", (-1, 4, 4, 2))
        with pytest.raises(ValueError):
            b.reshape(x, (33,))


class TestChecksum:
    def test_stable_across_builds(self):
        g1, _ = build_toy_graph(seed=3)
        g2, _ = build_toy_graph(seed=3)
        assert g1.checksum() == g2.checksum()

    def test_sensitive_to_weights(self):
        g1, _ = build_toy_graph(seed=3)
        g2, _ = build_toy_graph(seed=4)
        assert g1.checksum() != g2.checksum()

    def test_sensitive_to_param_mutation(self, toy_graph):
        graph, _ = toy_graph
        before = graph.checksum()
        name = next(iter(graph.params))
        graph.params[name] = graph.params[name] + 1.0
        assert graph.checksum() != before


class TestFreezeClone:
    def test_frozen_rejects_mutation(self, toy_graph):
        graph, _ = toy_graph
        graph.freeze()
        with pytest.raises(GraphValidationError):
            graph.add_param("extra", np.zeros(3, dtype=np.float32))

    def test_clone_is_independent(self, toy_graph):
        graph, out = toy_graph
        clone = graph.clone("copy")
        clone.numerics = Numerics.FP16
        clone.tensor_specs[out].numerics = Numerics.FP16
        assert graph.numerics == Numerics.FP32
        assert graph.spec(out).numerics == Numerics.FP32

    def test_clone_unfrozen(self, toy_graph):
        graph, _ = toy_graph
        graph.freeze()
        clone = graph.clone()
        clone.metadata["x"] = 1  # metadata writes fine; structural guarded


class TestCosts:
    def test_opcost_add(self):
        c = OpCost(1, 2.0, 3.0) + OpCost(10, 20.0, 30.0)
        assert (c.macs, c.weight_bytes, c.activation_bytes) == (11, 22.0, 33.0)

    def test_conv_macs(self):
        b = GraphBuilder("g", seed=0)
        x = b.input("x", (-1, 8, 8, 3))
        h = b.conv(x, 16, k=3, stride=1)
        b.outputs(h)
        g = b.build()
        # 8*8 output positions * 3*3*3*16
        assert g.total_macs == 8 * 8 * 3 * 3 * 3 * 16

    def test_numerics_scales_bytes(self, toy_graph):
        graph, _ = toy_graph
        fp32 = graph.total_cost(Numerics.FP32)
        int8 = graph.total_cost(Numerics.INT8)
        assert fp32.activation_bytes == pytest.approx(4 * int8.activation_bytes)
        assert fp32.macs == int8.macs

    def test_symbolic_costs_match_materialized(self):
        from repro.models import create_mobilenet_edgetpu

        kwargs = dict(input_size=32, width=0.25, num_classes=10)
        sym = create_mobilenet_edgetpu(materialize=False, **kwargs)
        mat = create_mobilenet_edgetpu(materialize=True, **kwargs)
        assert sym.graph.total_macs == mat.graph.total_macs
        assert sym.graph.num_parameters == mat.graph.num_parameters

    def test_producers_consumers(self, toy_graph):
        graph, out = toy_graph
        producers = graph.producers()
        assert out in producers
        consumers = graph.consumers()
        assert "images" in consumers
