"""Exactness oracle for the SoC simulator's performance mode.

Replays a fixed sequence on three SoCs and compares every float the
simulator produces, bit for bit (``float.hex``), against
``tests/simulator_oracle.json``. Each sequence is: cold single-stream
queries, one batched query, an offline ALP burst, queries on the
throttled die it leaves behind, and a query after a cooldown. The
perfbench digests round to 3-6 decimals and are not in tier-1; this
oracle catches a reordered float operation in the latency, energy,
thermal or offline accounting.

Regenerate, only for a change meant to move the simulator's numbers:

    PYTHONPATH=src python tests/test_simulator_oracle.py > tests/simulator_oracle.json
"""

from __future__ import annotations

import json
import pathlib

import pytest

ORACLE = pathlib.Path(__file__).with_name("simulator_oracle.json")

# (SoC, task): NPU+GPU hops on a slow interconnect, a two-engine ALP
# burst, and a laptop with its own thermal envelope
CASES = (
    ("exynos_990", "semantic_segmentation"),
    ("snapdragon_865plus", "image_classification"),
    ("core_i7_1165g7", "image_classification"),
)


def _query_row(result) -> list[float]:
    return [result.latency_seconds, result.energy.energy_joules,
            result.energy.average_watts, result.temperature_c, result.clock_scale]


def simulator_trace(soc_name: str, task: str) -> dict[str, list[float]]:
    """Every float of one fixed performance-mode sequence on ``soc_name``."""
    from repro.analysis import full_graph_cache
    from repro.backends import default_backend_for
    from repro.core.tasks import get_task
    from repro.hardware import SimulatedDevice, get_soc
    from repro.loadgen import PerformanceSUT

    soc = get_soc(soc_name)
    backend = default_backend_for(soc)
    graph = full_graph_cache(get_task(task).models[soc.benchmark_version])
    single = backend.compile_single_stream(graph, task)
    pipelines = backend.compile_offline(graph, task)
    device = SimulatedDevice(soc)
    trace: dict[str, list[float]] = {}
    for i in range(3):
        trace[f"cold_query_{i}"] = _query_row(device.run_query(single))
    trace["batch_8_query"] = _query_row(device.run_query(single, batch=8))
    off = PerformanceSUT(device, single, pipelines).run_offline(4096)
    trace["offline"] = [off.total_seconds, off.steady_clock_scale,
                        off.energy_joules, off.throughput_fps]
    trace["after_offline"] = [device.thermal.temperature_c, device.virtual_time,
                              device.total_energy_joules]
    for i in range(2):
        trace[f"hot_query_{i}"] = _query_row(device.run_query(single))
    device.cooldown(60.0)
    trace["cooled_query"] = _query_row(device.run_query(single))
    trace["final"] = [device.thermal.temperature_c, device.virtual_time,
                      device.total_energy_joules]
    return trace


def _hex(trace: dict[str, list[float]]) -> dict[str, list[str]]:
    return {k: [float(v).hex() for v in row] for k, row in trace.items()}


@pytest.mark.parametrize("soc_name,task", CASES)
def test_simulator_matches_oracle(soc_name, task):
    expected = json.loads(ORACLE.read_text())[f"{soc_name}/{task}"]
    assert _hex(simulator_trace(soc_name, task)) == expected


def test_oracle_covers_throttling_and_the_tdp_cap():
    """The recorded sequences exercise the branches they exist to pin."""
    from repro.hardware import get_soc

    oracle = json.loads(ORACLE.read_text())
    assert set(oracle) == {f"{s}/{t}" for s, t in CASES}
    hot_clocks = [float.fromhex(row[4]) for case in oracle.values()
                  for key, row in case.items() if key.startswith("hot_query")]
    assert hot_clocks and all(c < 1.0 for c in hot_clocks)
    offline_clocks = [float.fromhex(case["offline"][1]) for case in oracle.values()]
    assert all(c < 1.0 for c in offline_clocks)
    capped = [key for case, rows in oracle.items() for key, row in rows.items()
              if "query" in key and float.fromhex(row[2])
              == get_soc(case.split("/")[0]).tdp_watts]
    assert capped


if __name__ == "__main__":
    print(json.dumps({f"{s}/{t}": _hex(simulator_trace(s, t)) for s, t in CASES},
                     indent=1))
