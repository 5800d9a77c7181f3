"""Tabular / file reporting of run results."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.metrics.convergence import time_to_max_accuracy
from repro.metrics.records import RunResult


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text table with column alignment (no external deps)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def comparison_table(results: Dict[str, RunResult]) -> str:
    """Table I-style summary: accuracy and time-to-max per scheme."""
    rows = []
    for name, result in results.items():
        best, t_best = time_to_max_accuracy(result)
        rows.append(
            [
                name,
                f"{best * 100:.1f}%",
                f"{t_best:.2f} s",
                f"{result.total_epochs:.1f}",
                f"{result.total_comm_bytes:,}",
            ]
        )
    return render_table(
        ["scheme", "max accuracy", "time to max acc", "epochs", "comm bytes"], rows
    )
