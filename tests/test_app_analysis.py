"""Headless app CLI and the analysis (figure/table regeneration) layer."""

import json

import pytest

from repro.analysis import (
    measure_offline,
    measure_single_stream,
    mlperf_feature_selfcheck,
    table2_configurations,
    table3_delegate_comparison,
    table4_grid,
)
from repro.backends import default_backend_for
from repro.core import DEFAULT_RULES, BenchmarkHarness
from repro.core.app import build_parser, main
from repro.core.harness import full_graph
from repro.core.tasks import get_task
from repro.hardware import SimulatedDevice, get_soc
from repro.loadgen import Scenario


class TestCLI:
    def test_parser_rejects_unknown_soc(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--soc", "kirin"])

    def test_list_socs(self, capsys):
        assert main(["list", "socs"]) == 0
        out = capsys.readouterr().out
        assert "dimensity_1100" in out and "exynos_990" in out

    def test_list_backends(self, capsys):
        main(["list", "backends"])
        assert "snpe" in capsys.readouterr().out

    def test_list_tasks(self, capsys):
        main(["list", "tasks"])
        assert "question_answering" in capsys.readouterr().out

    def test_describe_model(self, capsys):
        assert main(["describe", "mobilenet_edgetpu"]) == 0
        card = json.loads(capsys.readouterr().out)
        assert card["task"] == "image_classification"

    def test_quick_run_single_task(self, capsys):
        code = main([
            "run", "--soc", "dimensity_1100", "--quick", "--no-offline",
            "--tasks", "question_answering", "--json",
        ])
        results = json.loads(capsys.readouterr().out)
        assert len(results) == 1
        assert results[0]["task"] == "question_answering"
        assert code in (0, 1)  # exit code reflects quality gate

    def test_ambient_out_of_rules(self):
        from repro.core import RuleViolation

        with pytest.raises(RuleViolation):
            main(["run", "--soc", "dimensity_1100", "--quick", "--ambient", "35",
                  "--tasks", "question_answering"])


def _harness_run(soc_name, scenario=Scenario.SINGLE_STREAM):
    """The app's own performance-mode run of classification on a fresh device."""
    soc = get_soc(soc_name)
    device = SimulatedDevice(soc)
    log = BenchmarkHarness(version=soc.benchmark_version).run_performance(
        "image_classification", default_backend_for(soc), device, scenario)
    return log, device


class TestAnalysis:
    def test_measure_single_stream_fields(self):
        row = measure_single_stream("dimensity_1100", "image_classification")
        assert row["latency_p90_ms"] > 0
        assert row["config"].startswith("UINT8")
        assert row["segments"] >= 1

    @pytest.mark.parametrize("soc_name", ["exynos_990", "dimensity_1100"])
    def test_measure_single_stream_is_the_harness_run(self, soc_name):
        """Figures 6-7 and Table 3 read the app's run at the default run rules."""
        log, device = _harness_run(soc_name)
        p90 = log.percentile_latency(DEFAULT_RULES.loadgen.latency_percentile)
        expected = {
            "latency_p90_ms": p90 * 1e3,
            "latency_mean_ms": float(log.latencies().mean()) * 1e3,
            "energy_per_query_mj": device.total_energy_joules / log.query_count * 1e3,
        }
        row = measure_single_stream(soc_name, "image_classification")
        assert {k: row[k].hex() for k in expected} == {k: v.hex() for k, v in expected.items()}

    def test_measure_offline(self):
        row = measure_offline("exynos_990")
        assert row["offline_fps"] > 0
        assert row["pipelines"] == 2  # NPU + CPU (Table 2 ALP)

    def test_measure_offline_is_the_harness_run(self):
        log, _ = _harness_run("exynos_990", Scenario.OFFLINE)
        assert measure_offline("exynos_990")["offline_fps"].hex() == log.throughput_fps().hex()

    @pytest.mark.parametrize("soc_name", sorted(table2_configurations()))
    def test_measure_offline_equals_direct_burst(self, soc_name):
        """Table 2's offline row through the LoadGen is the simulator's own burst."""
        soc = get_soc(soc_name)
        model = get_task("image_classification").models[soc.benchmark_version]
        pipelines = default_backend_for(soc).compile_offline(full_graph(model),
                                                            "image_classification")
        direct = SimulatedDevice(soc).run_offline(pipelines, 24576)
        row = measure_offline(soc_name)
        assert row["offline_fps"].hex() == direct.throughput_fps.hex()
        assert row["steady_clock_scale"].hex() == direct.steady_clock_scale.hex()
        assert row["pipelines"] == len(pipelines)

    def test_table2_grid_complete(self):
        grid = table2_configurations("v0.7")
        assert set(grid) == {"exynos_990", "snapdragon_865plus", "dimensity_820",
                             "core_i7_1165g7"}
        for row in grid.values():
            assert "image_classification_offline" in row

    def test_table3_improvements_positive(self):
        t3 = table3_delegate_comparison()
        for task, pct in t3["improvement_pct"].items():
            assert pct > 0, f"Neuron must beat NNAPI on {task}"

    def test_table4_only_mlperf_complete(self):
        grid = table4_grid()
        assert all(grid["MLPerf Mobile"].values())
        for name, row in grid.items():
            if name != "MLPerf Mobile":
                assert not all(row.values()), f"{name} should miss a requirement"

    def test_selfcheck_is_computed(self):
        assert set(mlperf_feature_selfcheck()) == {1, 2, 3, 4, 5}
