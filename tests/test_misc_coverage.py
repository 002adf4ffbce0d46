"""Remaining coverage: dilated quantized conv, LSTM in quantized graphs,
experimental CLI round, offline log serialization details."""

import numpy as np
import pytest

from repro.core.app import main
from repro.graph import Executor, GraphBuilder, export_mobile
from repro.kernels import (
    Numerics,
    choose_qparams,
    dequantize,
    prepare_conv2d,
    prepare_conv2d_quantized,
    quantize,
)
from repro.quantization import calibrate, quantize_graph


class TestDilatedQuantizedConv:
    @pytest.mark.parametrize("numerics", [Numerics.INT8, Numerics.UINT8])
    def test_close_to_float(self, rng, numerics):
        x = rng.normal(0, 1, (1, 10, 10, 3)).astype(np.float32)
        w = rng.normal(0, 0.3, (3, 3, 3, 4)).astype(np.float32)
        ref = prepare_conv2d(w, None, dilation=2)(x)
        x_qp = choose_qparams(float(x.min()), float(x.max()), numerics)
        w_qp = choose_qparams(w.min(axis=(0, 1, 2)), w.max(axis=(0, 1, 2)),
                              numerics, symmetric=True, axis=3)
        out_qp = choose_qparams(float(ref.min()), float(ref.max()), numerics)
        outq = prepare_conv2d_quantized(
            quantize(w, w_qp), None, x_qp, w_qp, out_qp, dilation=2)(quantize(x, x_qp))
        assert outq.shape == ref.shape
        err = np.abs(dequantize(outq, out_qp) - ref)
        assert err.mean() < 3 * float(out_qp.scale[0])

    def test_atrous_graph_quantizes(self, rng):
        """A graph with dilated convs survives the full PTQ pipeline."""
        b = GraphBuilder("atrous", seed=3)
        x = b.input("images", (-1, 12, 12, 3))
        h = b.conv(x, 8, k=3, activation="relu", use_bn=True)
        h = b.conv(h, 8, k=3, dilation=2, activation="relu", use_bn=True)
        h = b.conv(h, 4, k=1)
        b.outputs(h)
        g = export_mobile(b.build())
        feed = {"images": rng.normal(0, 0.5, (4, 12, 12, 3)).astype(np.float32)}
        stats = calibrate(g, [feed])
        q = quantize_graph(g, stats)
        ref = Executor(g).run(feed)
        got = Executor(q).run(feed)
        k = list(ref)[0]
        assert np.abs(ref[k] - got[k]).mean() < 0.1


class TestLSTMInQuantizedGraph:
    def test_float_island_behaviour(self, rng):
        """LSTM stays a float island: quantized graphs still run it and the
        boundary (de)quantization is the only degradation."""
        b = GraphBuilder("asr", seed=4)
        x = b.input("features", (-1, 8, 6))
        h = b.lstm(x, 10)
        h = b.fc(h, 5)
        b.outputs(h)
        g = export_mobile(b.build())
        feed = {"features": rng.normal(0, 1, (3, 8, 6)).astype(np.float32)}
        stats = calibrate(g, [feed])
        q = quantize_graph(g, stats)
        ref = Executor(g).run(feed)
        got = Executor(q).run(feed)
        k = list(ref)[0]
        assert got[k].shape == ref[k].shape
        err = np.abs(ref[k] - got[k]).mean()
        assert 0 < err < 0.5  # degraded but functional

    def test_lstm_macs_positive(self):
        b = GraphBuilder("asr2", seed=5)
        x = b.input("features", (-1, 8, 6))
        h = b.lstm(x, 10)
        b.outputs(h)
        g = b.build()
        assert g.total_macs == 8 * 4 * 10 * (6 + 10)


class TestExperimentalCLI:
    def test_run_experimental_round(self, capsys):
        import json

        code = main([
            "run", "--soc", "apple_a14", "--version", "experimental",
            "--quick", "--tasks", "super_resolution", "--json", "--no-offline",
        ])
        results = json.loads(capsys.readouterr().out)
        assert results[0]["task"] == "super_resolution"
        assert results[0]["config"].startswith("INT8, Core ML")
        assert code == 0  # SR passes its gate

    def test_describe_graph_flag(self, capsys):
        assert main(["describe", "mobile_edge_sr", "--graph"]) == 0
        out = capsys.readouterr().out
        assert "depth_to_space" in out
        assert "total:" in out

    def test_list_includes_apple(self, capsys):
        main(["list", "socs"])
        assert "apple_a14" in capsys.readouterr().out


class TestOfflineLogDetails:
    def test_offline_summary_and_serialization(self):
        from repro.analysis import full_graph_cache
        from repro.backends import default_backend_for
        from repro.datasets import IndexDataset
        from repro.hardware import SimulatedDevice, get_soc
        from repro.loadgen import (
            LoadGenerator, PerformanceSUT, QuerySampleLibrary, Scenario,
            TestSettings,
        )

        soc = get_soc("exynos_2100")
        be = default_backend_for(soc)
        g = full_graph_cache("mobilenet_edgetpu")
        sut = PerformanceSUT(
            SimulatedDevice(soc),
            be.compile_single_stream(g, "image_classification"),
            be.compile_offline(g, "image_classification"),
        )
        settings = TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=4096)
        log = LoadGenerator(settings).run(sut, QuerySampleLibrary(IndexDataset()))
        s = log.summary()
        assert s["throughput_fps"] > 0
        d = log.to_dict()
        assert d["offline_samples"] == 4096
        assert "steady_clock_scale" in d["metadata"]
