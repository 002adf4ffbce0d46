"""Ecosystem-challenge behaviours (paper §2): test conditions and seed
robustness of the quality-gate mechanism."""

import pytest

from repro.core import DEFAULT_RULES, RuleViolation


class TestAmbientConditions:
    """Run rules §6.1: 20-25 degC room temperature."""

    def test_rules_reject_hot_room(self):
        with pytest.raises(RuleViolation):
            DEFAULT_RULES.validate_conditions(ambient_c=28.0)
        with pytest.raises(RuleViolation):
            DEFAULT_RULES.validate_conditions(ambient_c=15.0)

    def test_warmer_room_cannot_be_faster(self):
        """Within the allowed band, 25 degC never beats 20 degC — the reason
        the rules pin the room temperature at all."""
        from repro.core.harness import full_graph
        from repro.backends import default_backend_for
        from repro.hardware import SimulatedDevice, get_soc

        soc = get_soc("exynos_990")
        be = default_backend_for(soc)
        g = full_graph("deeplab_v3plus")
        cm = be.compile_single_stream(g, "semantic_segmentation")

        def p90_after_warmup(ambient):
            dev = SimulatedDevice(soc, ambient_c=ambient)
            lats = []
            while dev.virtual_time < 90.0:
                lats.append(dev.run_query(cm).latency_seconds)
            lats.sort()
            return lats[int(len(lats) * 0.9)]

        assert p90_after_warmup(25.0) >= p90_after_warmup(20.0)


class TestSeedRobustness:
    """The quality-gate mechanism is not tuned to one lucky seed."""

    @pytest.mark.parametrize("seed", [11, 222])
    def test_classification_gate_across_seeds(self, seed):
        import numpy as np

        from repro.datasets import create_dataset
        from repro.graph import Executor, export_mobile
        from repro.models import create_reference_model
        from repro.quantization import calibrate, quantize_graph

        bundle = create_reference_model("mobilenet_edgetpu", seed=seed)
        g = export_mobile(bundle.graph)
        ds = create_dataset("imagenet", g, bundle.config, size=256,
                            seed=seed + 1000)

        def top1(graph):
            ex = Executor(graph)
            c = 0
            for s in range(0, len(ds), 64):
                idx = np.arange(s, min(s + 64, len(ds)))
                out = ex.run(ds.input_batch(idx))
                c += (next(iter(out.values())).argmax(-1) == ds.truths[idx]).sum()
            return c / len(ds) * 100

        fp32 = top1(g)
        stats = calibrate(g, ds.calibration_batches())
        int8 = top1(quantize_graph(g, stats))
        assert fp32 > 55.0  # a real classifier at any seed
        # INT8 stays near FP32 across seeds (default-seed run retains ~101%;
        # other seeds land 94-102% — the mechanism, not a lucky constant)
        assert int8 >= 0.92 * fp32
