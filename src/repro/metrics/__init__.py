"""Metrics: run records, convergence analysis, reports, ASCII plots."""

from repro.metrics.records import RoundRecord, RunResult
from repro.metrics.convergence import (
    speedup,
    time_to_accuracy,
    time_to_max_accuracy,
)
from repro.metrics.report import (
    comparison_table,
    render_table,
    results_to_csv,
)
from repro.metrics.plotting import ascii_plot, series_from_results

__all__ = [
    "RoundRecord",
    "RunResult",
    "time_to_accuracy",
    "time_to_max_accuracy",
    "speedup",
    "render_table",
    "comparison_table",
    "results_to_csv",
    "ascii_plot",
    "series_from_results",
]
