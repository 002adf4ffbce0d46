"""App. E experimental tasks: speech recognition and super-resolution."""

import numpy as np
import pytest

from repro.core import QUICK_RULES, BenchmarkHarness
from repro.datasets import create_dataset
from repro.graph import Executor, export_mobile
from repro.kernels import Numerics, depth_to_space, lstm_cell, lstm_sequence
from repro.metrics import edit_distance, mean_psnr, psnr, token_accuracy, word_error_rate
from repro.models import create_full_model, create_reference_model
from repro.pipelines import greedy_ctc_decode
from repro.synthdata import speech_sequence_batch, super_resolution_batch


class TestRecurrentKernels:
    def test_lstm_cell_shapes(self, rng):
        h, c = lstm_cell(
            rng.normal(size=(3, 5)).astype(np.float32),
            np.zeros((3, 7), dtype=np.float32),
            np.zeros((3, 7), dtype=np.float32),
            rng.normal(size=(5, 28)).astype(np.float32),
            rng.normal(size=(7, 28)).astype(np.float32),
            np.zeros(28, dtype=np.float32),
        )
        assert h.shape == c.shape == (3, 7)

    def test_lstm_state_bounded(self, rng):
        """tanh-gated hidden state stays in (-1, 1) no matter the input."""
        h, _ = lstm_cell(
            rng.normal(0, 100, size=(2, 4)).astype(np.float32),
            np.zeros((2, 4), dtype=np.float32),
            np.zeros((2, 4), dtype=np.float32),
            rng.normal(size=(4, 16)).astype(np.float32),
            rng.normal(size=(4, 16)).astype(np.float32),
            np.zeros(16, dtype=np.float32),
        )
        assert np.all(np.abs(h) <= 1.0)

    def test_lstm_sequence_matches_stepwise(self, rng):
        x = rng.normal(size=(2, 6, 3)).astype(np.float32)
        w_ih = rng.normal(0, 0.4, size=(3, 16)).astype(np.float32)
        w_hh = rng.normal(0, 0.4, size=(4, 16)).astype(np.float32)
        bias = np.zeros(16, dtype=np.float32)
        seq = lstm_sequence(x, w_ih, w_hh, bias)
        h = np.zeros((2, 4), dtype=np.float32)
        c = np.zeros((2, 4), dtype=np.float32)
        for t in range(6):
            h, c = lstm_cell(x[:, t], h, c, w_ih, w_hh, bias)
            np.testing.assert_allclose(seq[:, t], h, atol=1e-6)

    def test_depth_to_space_inverse_of_space_layout(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 2, 2, 4)
        out = depth_to_space(x, 2)
        assert out.shape == (1, 4, 4, 1)
        # the first LR position's 4 channels tile its 2x2 HR block
        np.testing.assert_array_equal(out[0, :2, :2, 0], [[0, 1], [2, 3]])

    def test_depth_to_space_validation(self):
        with pytest.raises(ValueError):
            depth_to_space(np.zeros((1, 2, 2, 3)), 2)


class TestSpeechMetrics:
    def test_edit_distance_known(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert edit_distance([1, 2, 3], [1, 3]) == 1  # deletion
        assert edit_distance([1, 2], [1, 2, 3]) == 1  # insertion
        assert edit_distance([1, 2, 3], [1, 9, 3]) == 1  # substitution
        assert edit_distance([], [1, 2]) == 2

    def test_wer_corpus_level(self):
        wer = word_error_rate([[1, 2], [3]], [[1, 2], [4]])
        assert wer == pytest.approx(1 / 3)

    def test_token_accuracy_clipped(self):
        # hypotheses longer than references can exceed 100% WER; clip at 0
        assert token_accuracy([[1, 2, 3, 4, 5]], [[9]]) == 0.0

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            word_error_rate([[1]], [[]])


class TestPSNR:
    def test_identical_is_infinite(self):
        x = np.full((4, 4, 3), 100.0)
        assert psnr(x, x) == float("inf")

    def test_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 255.0)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_mean_clips_infinities(self):
        x = np.zeros((2, 2))
        assert mean_psnr([x], [x]) == 100.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestCTCDecode:
    def test_collapse_and_blank(self):
        logits = np.zeros((7, 4))
        for t, cls in enumerate([1, 1, 3, 2, 2, 3, 1]):  # 3 = blank
            logits[t, cls] = 5.0
        assert greedy_ctc_decode(logits) == [1, 2, 1]

    def test_all_blank(self):
        logits = np.zeros((5, 3))
        logits[:, 2] = 5.0
        assert greedy_ctc_decode(logits) == []

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            greedy_ctc_decode(np.zeros(5))


class TestSpeechGenerator:
    def test_no_adjacent_repeats(self):
        _, transcripts, _ = speech_sequence_batch(30, 40, 8, 10, seed=5)
        for tokens in transcripts:
            assert all(a != b for a, b in zip(tokens, tokens[1:]))

    def test_frame_labels_match_transcript(self):
        _, transcripts, frames = speech_sequence_batch(10, 40, 8, 10, seed=6)
        for tokens, fl in zip(transcripts, frames):
            collapsed = [int(fl[0])]
            for v in fl[1:]:
                if int(v) != collapsed[-1]:
                    collapsed.append(int(v))
            assert collapsed == tokens


class TestSuperResGenerator:
    def test_lr_is_downsample(self):
        lr, hr = super_resolution_batch(4, 32, 2, seed=7)
        assert lr.shape == (4, 16, 16, 3) and hr.shape == (4, 32, 32, 3)
        assert lr.dtype == hr.dtype == np.uint8

    def test_bicubic_baseline_has_finite_psnr(self):
        from repro.kernels import resize_bilinear

        lr, hr = super_resolution_batch(4, 32, 2, seed=8)
        up = resize_bilinear(lr.astype(np.float32), 32, 32)
        baseline = mean_psnr(list(up), list(hr.astype(np.float32)))
        assert 5.0 < baseline < 60.0


class TestEndToEnd:
    def test_speech_quality_ladder(self):
        """FP32 decodes most tokens; INT8 collapses (recurrence!); FP16 fine."""
        from repro.quantization import calibrate, convert_fp16, quantize_graph

        bundle = create_reference_model("mobile_streaming_asr")
        g = export_mobile(bundle.graph)
        ds = create_dataset("speech", g, bundle.config, size=48)

        def acc(graph):
            ex = Executor(graph)
            preds = {}
            for s in range(0, len(ds), 16):
                idx = np.arange(s, min(s + 16, len(ds)))
                out = ex.run(ds.input_batch(idx))
                for j, i in enumerate(idx):
                    preds[int(i)] = ds.postprocess(
                        {k: v[j] for k, v in out.items()}, int(i))
            return ds.evaluate(preds)["token_accuracy"]

        fp32 = acc(g)
        assert fp32 > 50.0
        stats = calibrate(g, ds.calibration_batches())
        int8 = acc(quantize_graph(g, stats))
        fp16 = acc(convert_fp16(g))
        assert fp16 > 0.95 * fp32
        assert int8 < 0.9 * fp32  # the recurrent float island pays dearly

    def test_sr_quality_ladder(self):
        from repro.quantization import calibrate, convert_fp16, quantize_graph

        bundle = create_reference_model("mobile_edge_sr")
        g = export_mobile(bundle.graph)
        ds = create_dataset("superres", g, bundle.config, size=24)

        def acc(graph):
            ex = Executor(graph)
            preds = {}
            for s in range(0, len(ds), 8):
                idx = np.arange(s, min(s + 8, len(ds)))
                out = ex.run(ds.input_batch(idx))
                for j, i in enumerate(idx):
                    preds[int(i)] = ds.postprocess(
                        {k: v[j] for k, v in out.items()}, int(i))
            return ds.evaluate(preds)["psnr"]

        fp32 = acc(g)
        assert fp32 > 18.0  # meaningfully above garbage
        stats = calibrate(g, ds.calibration_batches())
        assert acc(quantize_graph(g, stats)) > 0.95 * fp32  # SR quantizes well
        assert acc(convert_fp16(g)) > 0.99 * fp32

    def test_sr_beats_bilinear_upsampling(self):
        """The fitted SR model must beat the trivial interpolation baseline."""
        from repro.kernels import resize_bilinear
        from repro.datasets.superres import denormalize_image

        bundle = create_reference_model("mobile_edge_sr")
        g = export_mobile(bundle.graph)
        ds = create_dataset("superres", g, bundle.config, size=24)
        ex = Executor(g)
        model_preds, bilinear_preds, targets = [], [], []
        for s in range(0, len(ds), 8):
            idx = np.arange(s, min(s + 8, len(ds)))
            feed = ds.input_batch(idx)
            out = next(iter(ex.run(feed).values()))
            hr = ds.truths[idx].astype(np.float32)
            up = resize_bilinear(denormalize_image(feed["lr_images"]),
                                 hr.shape[1], hr.shape[2])
            for j in range(len(idx)):
                model_preds.append(denormalize_image(out[j]))
                bilinear_preds.append(up[j])
                targets.append(hr[j])
        assert mean_psnr(model_preds, targets) > mean_psnr(bilinear_preds, targets)

    def test_experimental_suite_passes(self):
        harness = BenchmarkHarness(
            version="experimental", rules=QUICK_RULES,
            dataset_sizes={"speech": 48, "superres": 24},
        )
        suite = harness.run_suite("exynos_2100")
        assert {r.task for r in suite.results} == {
            "speech_recognition", "super_resolution"
        }
        assert suite.all_passed

    def test_full_profiles_symbolic_costs(self):
        asr = create_full_model("mobile_streaming_asr")
        assert asr.graph.total_macs > 1e9  # LSTM MACs are accounted
        sr = create_full_model("mobile_edge_sr")
        assert sr.graph.spec(sr.output_names["hr"]).shape == (-1, 256, 256, 3)
