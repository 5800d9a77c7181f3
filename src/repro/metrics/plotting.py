"""ASCII line plots — how the CLI and the examples render Fig. 3 in a terminal."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.records import RunResult

_MARKERS = "ox+*#@%&"


def ascii_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 18,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render named (x, y) series on a shared character canvas.

    Each series gets a marker from ``oxh+*...``; the legend maps them
    back.  Good enough to eyeball the Fig. 3 curve shapes in CI logs.
    """
    if not series:
        raise ValueError("no series to plot")
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not finite.any():
        raise ValueError("series contain no finite points")
    x_min, x_max = xs_all[finite].min(), xs_all[finite].max()
    y_min, y_max = ys_all[finite].min(), ys_all[finite].max()
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in zip(xs, ys):
            if not (np.isfinite(x) and np.isfinite(y)):
                continue
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            canvas[row][col] = marker

    lines = []
    if title:
        lines.append(title.center(width + 10))
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            label = f"{y_max:9.3g} |"
        elif row_index == height - 1:
            label = f"{y_min:9.3g} |"
        else:
            label = " " * 9 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(
        " " * 10 + f"{x_min:<10.4g}" + xlabel.center(width - 20) + f"{x_max:>10.4g}"
    )
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    if ylabel:
        lines.insert(1 if title else 0, f"[y: {ylabel}]")
    return "\n".join(lines)


def series_from_results(
    results: Dict[str, RunResult],
    x_axis: str = "epoch",
    y_axis: str = "accuracy",
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Extract plot-ready series from runs.

    ``x_axis``: ``"epoch"`` or ``"time"``; ``y_axis``: ``"accuracy"``,
    ``"test_loss"`` or ``"train_loss"`` — the six combinations of Fig. 3.
    """
    series = {}
    for name, result in results.items():
        if y_axis == "accuracy":
            y = result.test_accuracies()
            x = (
                result.epochs(evaluated_only=True)
                if x_axis == "epoch"
                else result.times(evaluated_only=True)
            )
        elif y_axis == "test_loss":
            y = result.test_losses()
            # Align on rounds that recorded a *loss* — the loss and
            # accuracy series may cover different rounds.
            x = (
                result.epochs(evaluated_only=True, filter_attr="test_loss")
                if x_axis == "epoch"
                else result.times(evaluated_only=True, filter_attr="test_loss")
            )
        elif y_axis == "train_loss":
            y = result.train_losses()
            x = result.epochs() if x_axis == "epoch" else result.times()
        else:
            raise ValueError(f"unknown y_axis {y_axis!r}")
        series[name] = (x, y)
    return series
