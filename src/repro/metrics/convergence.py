"""Convergence analysis: time-to-accuracy, speedups (Table I metrics)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.metrics.records import RunResult


def time_to_accuracy(result: RunResult, target: float) -> Optional[float]:
    """First virtual time at which test accuracy reaches ``target``.

    Returns ``None`` when the run never got there.
    """
    times = result.times(evaluated_only=True)
    accs = result.test_accuracies()
    hits = np.flatnonzero(accs >= target)
    return float(times[hits[0]]) if hits.size else None


def time_to_max_accuracy(result: RunResult) -> tuple:
    """Table I's metric: (max accuracy, first time it was attained).

    The paper records "the average time required to reach the maximum
    test accuracy" — the first crossing of the run's own maximum.
    """
    times = result.times(evaluated_only=True)
    accs = result.test_accuracies()
    if accs.size == 0:
        raise ValueError("run recorded no test accuracies")
    best = accs.max()
    first = int(np.flatnonzero(accs >= best)[0])
    return float(best), float(times[first])


def speedup(
    baseline: RunResult, improved: RunResult, target: Optional[float] = None
) -> float:
    """How much faster ``improved`` reaches the comparison accuracy.

    With an explicit ``target`` both runs are measured against it;
    otherwise the target is the lower of the two runs' best accuracies
    (Table I compares each scheme at its own max, so the common
    reachable level is the honest joint target).
    """
    if target is None:
        target = min(baseline.best_accuracy(), improved.best_accuracy())
    t_base = time_to_accuracy(baseline, target)
    t_improved = time_to_accuracy(improved, target)
    if t_base is None or t_improved is None:
        raise ValueError(
            f"target accuracy {target} unreachable: baseline={t_base}, "
            f"improved={t_improved}"
        )
    if t_improved == 0:
        raise ValueError("improved run reached the target at time zero")
    return t_base / t_improved
