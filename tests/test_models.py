"""Model zoo: architectures, scaling profiles, head fitting, model cards."""

import numpy as np
import pytest

from repro.graph import Executor
from repro.graph.plan import ExecutionPlan
from repro.models import (
    MODEL_REGISTRY,
    available_models,
    create_full_model,
    create_reference_model,
    model_card,
    model_feeds,
    probe_token_batch,
    ssd_mobilenet_v2,
)
from repro.models.common import calibrate_batch_norms, round_channels
from repro.models.fitting import ridge_fit


class TestRegistry:
    def test_registry_complete(self):
        assert available_models() == sorted(
            ["mobilenet_edgetpu", "ssd_mobilenet_v2", "mobiledet_ssd",
             "deeplab_v3plus", "mobilebert",
             "mobile_streaming_asr", "mobile_edge_sr"]
        )

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            create_reference_model("resnet50")

    def test_versions_match_table1(self):
        assert MODEL_REGISTRY["ssd_mobilenet_v2"].benchmark_versions == ("v0.7",)
        assert MODEL_REGISTRY["mobiledet_ssd"].benchmark_versions == ("v1.0",)
        assert MODEL_REGISTRY["mobilebert"].benchmark_versions == ("v0.7", "v1.0")


class TestRoundChannels:
    def test_rounding(self):
        assert round_channels(6) == 8
        assert round_channels(1) == 4  # floor
        assert round_channels(16) == 16

    def test_minimum(self):
        assert round_channels(0.5, minimum=8) == 8


class TestFullSizeModels:
    """Symbolic paper-size graphs: parameter counts near Table 1's."""

    @pytest.mark.parametrize("name,lo,hi", [
        ("mobilenet_edgetpu", 3e6, 6e6),      # paper: 4M
        ("mobiledet_ssd", 1.5e6, 6e6),        # paper: 4M
        ("deeplab_v3plus", 1.5e6, 8e6),       # paper: 2M
        ("mobilebert", 15e6, 35e6),           # paper: 25M
    ])
    def test_param_counts(self, name, lo, hi):
        bundle = create_full_model(name)
        assert lo <= bundle.graph.num_parameters <= hi

    def test_full_models_symbolic(self):
        for name in available_models():
            assert create_full_model(name).graph.is_symbolic

    def test_input_resolutions(self):
        assert create_full_model("mobilenet_edgetpu").input_shape == (-1, 224, 224, 3)
        assert create_full_model("ssd_mobilenet_v2").input_shape == (-1, 300, 300, 3)
        assert create_full_model("mobiledet_ssd").input_shape == (-1, 320, 320, 3)
        assert create_full_model("deeplab_v3plus").input_shape == (-1, 512, 512, 3)
        assert create_full_model("mobilebert").input_shape == (-1, 384)


class TestReferenceModels:
    def test_classification_outputs(self, cls_bundle, rng):
        g = cls_bundle.graph
        n = cls_bundle.config["num_classes"]
        imgs = rng.normal(0, 0.5, (2,) + tuple(d for d in cls_bundle.input_shape if d != -1))
        out = Executor(g).run({"images": imgs.astype(np.float32)})
        probs = out[cls_bundle.output_names["probs"]]
        assert probs.shape == (2, n)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-4)

    def test_detection_outputs(self, rng):
        bundle = create_reference_model("ssd_mobilenet_v2")
        size = bundle.config["input_size"]
        imgs = rng.normal(0, 0.5, (2, size, size, 3)).astype(np.float32)
        out = Executor(bundle.graph).run({"images": imgs})
        scores = out[bundle.output_names["scores"]]
        boxes = out[bundle.output_names["boxes"]]
        n_anchors = sum(
            h * w for h, w in bundle.config["feature_shapes"]
        ) * bundle.config["anchors_per_cell"]
        assert scores.shape == (2, n_anchors, bundle.config["num_classes"])
        assert boxes.shape == (2, n_anchors, 4)
        assert scores.min() >= 0 and scores.max() <= 1  # post-sigmoid

    def test_segmentation_outputs(self, rng):
        bundle = create_reference_model("deeplab_v3plus")
        size = bundle.config["input_size"]
        imgs = rng.normal(0, 0.5, (1, size, size, 3)).astype(np.float32)
        out = Executor(bundle.graph).run({"images": imgs})
        logits = out[bundle.output_names["logits"]]
        assert logits.shape == (1, size, size, bundle.config["num_classes"])

    def test_bert_outputs(self, qa_bundle):
        cfg = qa_bundle.config
        feeds = probe_token_batch(cfg["seq_len"], cfg["vocab_size"], n=3)
        out = Executor(qa_bundle.graph).run(feeds)
        start = out[qa_bundle.output_names["start_logits"]]
        end = out[qa_bundle.output_names["end_logits"]]
        assert start.shape == end.shape == (3, cfg["seq_len"])

    def test_fitted_vs_unfitted_heads_differ(self):
        fitted = create_reference_model("mobilenet_edgetpu", fitted=True)
        raw = create_reference_model("mobilenet_edgetpu", fitted=False)
        assert not np.allclose(
            fitted.graph.params["classifier/w"], raw.graph.params["classifier/w"]
        )
        assert fitted.graph.metadata["head_fit"]["task"] == "classification"

    def test_deterministic_build(self):
        """Two default builds, both loading the stored fit. Fit determinism
        is covered by the refit oracle (tools/references.py --check fitted_models)."""
        a = create_reference_model("mobilenet_edgetpu")
        b = create_reference_model("mobilenet_edgetpu")
        assert a.graph.checksum() == b.graph.checksum()

    def test_seed_changes_weights(self):
        a = create_reference_model("mobilenet_edgetpu")
        b = create_reference_model("mobilenet_edgetpu", seed=99)
        assert a.graph.checksum() != b.graph.checksum()


class TestProbeSweep:
    """Head standardization reads its probe logits from the batch-norm sweep,
    so the sweep must be the forward pass the executor would run."""

    @pytest.mark.parametrize("name", available_models())
    def test_sweep_equals_plan_taps(self, unfitted_zoo, name):
        graph = unfitted_zoo[name][0].clone()  # the sweep replaces BN params
        feeds = model_feeds(name, graph, 2)
        swept = calibrate_batch_norms(graph, feeds)
        tapped = {}
        ExecutionPlan(graph).run(feeds, tap=tapped.__setitem__)
        assert swept.keys() == tapped.keys()
        for tensor, arr in tapped.items():
            got = swept[tensor]
            assert (got.dtype, got.shape) == (arr.dtype, arr.shape), tensor
            assert got.tobytes() == arr.tobytes(), tensor

    def test_mobiledet_build_runs_one_probe_pass(self, monkeypatch):
        """The sweep serves all eight SSD heads: no further executor run."""
        passes = []
        sweep, run = ssd_mobilenet_v2.calibrate_batch_norms, ExecutionPlan.run

        def counted_sweep(graph, feeds):
            passes.append("sweep")
            return sweep(graph, feeds)

        def counted_run(plan, *args, **kwargs):
            passes.append("run")
            return run(plan, *args, **kwargs)

        monkeypatch.setattr(ssd_mobilenet_v2, "calibrate_batch_norms", counted_sweep)
        monkeypatch.setattr(ExecutionPlan, "run", counted_run)
        create_reference_model("mobiledet_ssd", fitted=False)  # the build alone
        assert passes == ["sweep"]


class TestRidgeFit:
    def test_recovers_linear_map(self, rng):
        w_true = rng.normal(size=(8, 3))
        x = rng.normal(size=(500, 8))
        y = x @ w_true + 0.5
        w, b = ridge_fit(x, y, l2=1e-6)
        np.testing.assert_allclose(w, w_true, atol=0.05)
        np.testing.assert_allclose(b, 0.5, atol=0.05)

    def test_sample_weights_shift_solution(self, rng):
        x = rng.normal(size=(200, 4))
        y = np.where(np.arange(200)[:, None] < 100, 1.0, -1.0) * np.ones((200, 1))
        sw = np.where(np.arange(200) < 100, 10.0, 1.0)
        _, b_weighted = ridge_fit(x, y, 1e-3, sample_weight=sw)
        _, b_plain = ridge_fit(x, y, 1e-3)
        assert b_weighted[0] > b_plain[0]  # pulled toward the upweighted class


class TestModelCard:
    def test_card_contents(self):
        card = model_card("deeplab_v3plus")
        assert card["task"] == "semantic_segmentation"
        assert card["dataset"] == "ade20k"
        assert card["full"]["macs_per_sample"] > card["reference"]["macs_per_sample"]
        assert card["paper_params"] == "2M"
