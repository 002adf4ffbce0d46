"""Figure 7 — v0.7 single-stream results across the three smartphone chipsets.

Regenerates both panels (throughput and latency) and asserts the paper's
"no one size fits all" rankings:
- MediaTek Dimensity 820 scores highest on object detection AND image
  segmentation throughput;
- Samsung Exynos 990 scores highest on image classification AND NLP;
- Qualcomm Snapdragon 865+ is competitive (never last on seg/NLP... it
  places second on segmentation and NLP).
"""

import pytest

from repro.analysis import figure7_single_stream
from repro.core.tasks import TASK_ORDER

from conftest import save_result

SMARTPHONES = ["exynos_990", "snapdragon_865plus", "dimensity_820"]


@pytest.mark.benchmark(group="figure7")
def test_figure7_rankings(benchmark):
    panel = benchmark.pedantic(
        figure7_single_stream, kwargs={"version": "v0.7"},
        rounds=1, iterations=1,
    )
    save_result("figure7_single_stream", panel)

    print("\nFigure 7 — v0.7 single-stream (p90 latency ms / throughput fps)")
    print(f"{'chipset':<20}" + "".join(f"{t[:13]:>20}" for t in TASK_ORDER))
    for soc in SMARTPHONES:
        cells = [
            f"{panel[soc][t]['latency_p90_ms']:7.2f}/{panel[soc][t]['throughput_fps']:7.1f}"
            for t in TASK_ORDER
        ]
        print(f"{soc:<20}" + "".join(f"{c:>20}" for c in cells))

    def winner(task):
        return min(SMARTPHONES, key=lambda s: panel[s][task]["latency_p90_ms"])

    def ranking(task):
        return sorted(SMARTPHONES, key=lambda s: panel[s][task]["latency_p90_ms"])

    # MediaTek wins detection and segmentation
    assert winner("object_detection") == "dimensity_820"
    assert winner("semantic_segmentation") == "dimensity_820"
    # Samsung wins classification and NLP
    assert winner("image_classification") == "exynos_990"
    assert winner("question_answering") == "exynos_990"
    # Qualcomm competitive on segmentation and NLP: second place
    assert ranking("semantic_segmentation")[1] == "snapdragon_865plus"
    assert ranking("question_answering")[1] == "snapdragon_865plus"

    # same general trend holds in v1.0 (paper: "similar trends"): every
    # chipset's successor improves on every task, and the spread between
    # chipsets narrows (each offers "unique differentiable value")
    panel_v10 = figure7_single_stream("v1.0")
    v10_phones = ["exynos_2100", "snapdragon_888", "dimensity_1100"]
    successor = dict(zip(SMARTPHONES, v10_phones))
    for old, new in successor.items():
        for task in TASK_ORDER:
            assert (panel_v10[new][task]["latency_p90_ms"]
                    < panel[old][task]["latency_p90_ms"]), (old, new, task)
    save_result("figure7_single_stream_v10", panel_v10)
