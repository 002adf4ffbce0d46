"""Live regeneration of the whole evaluation section as one report.

``evaluation_report()`` reruns Figures 6-7 and Tables 2-3 on the simulator
and renders them (with terminal bar charts) the way the paper's §7 presents
them — the `mlperf-mobile report` command. Useful as the one-shot "show me
everything" entry point and as the source for EXPERIMENTS.md refreshes.
"""

from __future__ import annotations

import numpy as np

from ..core.tasks import TASK_ORDER
from .charts import bar_chart, grouped_bar_chart
from .evaluation import (
    figure6_generational_speedups,
    figure7_single_stream,
    measure_offline,
    table2_configurations,
    table3_delegate_comparison,
)
from .related_work import REQUIREMENTS, table4_grid

__all__ = ["evaluation_report"]

_SHORT = {
    "image_classification": "cls",
    "object_detection": "det",
    "semantic_segmentation": "seg",
    "question_answering": "nlp",
}


def evaluation_report() -> str:
    """Render the full §7 evaluation from live simulator runs."""
    parts: list[str] = []

    # Figure 6
    speedups = figure6_generational_speedups()
    flat = [s for row in speedups.values() for s in row.values()]
    parts.append("=" * 72)
    parts.append("Figure 6 — v0.7 -> v1.0 latency speedups "
                 f"(mean {np.mean(flat):.2f}x, max {max(flat):.2f}x)")
    parts.append(grouped_bar_chart(
        {vendor: {_SHORT[t]: v for t, v in row.items()}
         for vendor, row in speedups.items()},
        unit="x",
    ))

    # Figure 7
    panel = figure7_single_stream("v0.7")
    parts.append("=" * 72)
    parts.append("Figure 7 — v0.7 single-stream throughput (fps, higher is better)")
    parts.append(grouped_bar_chart(
        {
            _SHORT[task]: {
                soc: panel[soc][task]["throughput_fps"] for soc in panel
            }
            for task in TASK_ORDER
        },
    ))

    # Table 2
    parts.append("=" * 72)
    parts.append("Table 2 — execution configurations (v0.7) + offline ALP")
    grid = table2_configurations("v0.7")
    for soc, row in grid.items():
        parts.append(f"{soc}:")
        for task in TASK_ORDER:
            parts.append(f"   {task:<26} {row[task]}")
        parts.append(f"   {'offline classification':<26} "
                     f"{row['image_classification_offline']}")
    offline = {
        soc: measure_offline(soc)["offline_fps"]
        for soc in ("exynos_990", "snapdragon_865plus")
    }
    parts.append(bar_chart(offline, unit=" fps",
                           title="offline classification throughput:"))

    # Table 3
    t3 = table3_delegate_comparison()
    parts.append("=" * 72)
    parts.append("Table 3 — Dimensity 1100: NNAPI vs Neuron delegate (p90 ms)")
    for task in ("image_classification", "object_detection", "semantic_segmentation"):
        parts.append(
            f"   {task:<26} NNAPI {t3['nnapi'][task]:6.2f}  "
            f"Neuron {t3['neuron'][task]:6.2f}  "
            f"(+{t3['improvement_pct'][task]:.2f}%)"
        )

    # Table 4
    parts.append("=" * 72)
    parts.append("Table 4 — requirements met (computed for MLPerf Mobile)")
    grid4 = table4_grid()
    header = "".join(f"  R{r}" for r in sorted(REQUIREMENTS))
    parts.append(f"   {'benchmark':<16}{header}")
    for name, row in grid4.items():
        cells = "".join("   ✓" if row[r] else "   ✗" for r in sorted(REQUIREMENTS))
        parts.append(f"   {name:<16}{cells}")

    return "\n".join(parts)
