"""Evaluation-artifact regeneration: the paper's figures and tables as code."""

from .evaluation import (
    ai_tax_breakdown,
    figure6_generational_speedups,
    figure7_single_stream,
    measure_offline,
    measure_single_stream,
    table2_configurations,
    table3_delegate_comparison,
)
from .charts import bar_chart, grouped_bar_chart
from .report import evaluation_report
from .related_work import (
    PRIOR_BENCHMARKS,
    REQUIREMENTS,
    mlperf_feature_selfcheck,
    table4_grid,
)

__all__ = [
    "ai_tax_breakdown",
    "measure_single_stream",
    "measure_offline",
    "figure6_generational_speedups",
    "figure7_single_stream",
    "table2_configurations",
    "table3_delegate_comparison",
    "REQUIREMENTS",
    "PRIOR_BENCHMARKS",
    "mlperf_feature_selfcheck",
    "table4_grid",
    "bar_chart",
    "grouped_bar_chart",
    "evaluation_report",
]
