"""Heterogeneity-aware training strategy generation (paper Sec. III-C).

From the mutual-negotiation measurements ``T_i`` the strategy generator
derives:

* the **hyperperiod** ``HE = LCM_i(T_i / E_warm_up)`` — the least common
  multiple of per-epoch times, so that every device completes an integer
  number of epochs per hyperperiod (Fig. 1);
* the **synchronisation window** ``T_sync · HE`` (virtual seconds);
* each device's **local-step budget** ``E_k`` — how many steps fit in the
  window at the device's measured speed;
* the **expected versions** used by the selection function before any
  runtime observations exist (Eq. 6, implemented as the steps each device
  completes per window at its measured speed: that is the quantity the
  selection function compares against runtime versions);
* the **partial synchronisation topology** — a random directed ring over
  the selected devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.topology import directed_ring


def hyperperiod(
    times: Sequence[float],
    quantum: float = 1e-3,
    max_multiple: float = 16.0,
) -> float:
    """LCM of positive float durations, quantised to ``quantum``.

    Measured epoch times are floats; each is rounded to an integer number
    of quanta and the integer LCM is taken (exact for the paper's integer
    power ratios).  Real measurements are rarely exact multiples, and the
    LCM of near-coprime quantised values explodes (e.g. 0.667 s vs 2.0 s
    → a 1334 s window); whenever the LCM exceeds ``max_multiple`` times
    the largest single duration, the fallback is that largest duration —
    the smallest window in which every device completes at least one
    epoch.
    """
    if not times:
        raise ValueError("need at least one duration")
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    if max_multiple < 1:
        raise ValueError(f"max_multiple must be >= 1, got {max_multiple}")
    if any(t <= 0 for t in times):
        raise ValueError(f"durations must be positive, got {list(times)}")
    longest = max(times)
    cap = max_multiple * longest
    quantised = [max(1, round(t / quantum)) for t in times]
    lcm = 1
    for q in quantised:
        lcm = lcm * q // math.gcd(lcm, q)
        if lcm * quantum > cap:
            return longest
    # Rounding can land a hair below the longest duration; the window must
    # always fit at least one epoch of the slowest device.
    return max(lcm * quantum, longest)


@dataclass
class TrainingStrategy:
    """One round's training configuration, as dispatched to devices."""

    sync_window: float
    """Virtual seconds between partial synchronisations (T_sync · HE)."""
    hyperperiod: float
    local_steps: Dict[int, int]
    """E_k per device — the heterogeneity-aware step budgets."""
    expected_versions: Dict[int, float]
    """Expected per-window step counts (Eq. 6, corrected form)."""

    def __post_init__(self):
        if self.sync_window <= 0:
            raise ValueError(f"sync_window must be positive, got {self.sync_window}")
        if any(e < 1 for e in self.local_steps.values()):
            raise ValueError(f"local steps must be >= 1: {self.local_steps}")


class StrategyGenerator:
    """Derives and updates :class:`TrainingStrategy` objects.

    Parameters
    ----------
    tsync:
        Synchronisation period in hyperperiods.
    """

    def __init__(self, tsync: int = 1):
        if tsync < 1:
            raise ValueError(f"tsync must be >= 1, got {tsync}")
        self.tsync = tsync

    def generate(
        self,
        calc_times: Dict[int, float],
        warmup_epochs: int,
        steps_per_epoch: Dict[int, int],
    ) -> TrainingStrategy:
        """Build the initial strategy from negotiation measurements.

        Parameters
        ----------
        calc_times:
            ``T_i`` — each device's measured warm-up duration.
        warmup_epochs:
            ``E_warm_up`` — epochs covered by each measurement.
        steps_per_epoch:
            Batches per local epoch for each device (shard/batch size).
        """
        if not calc_times:
            raise ValueError("no calculation times supplied")
        if warmup_epochs < 1:
            raise ValueError(f"warmup_epochs must be >= 1, got {warmup_epochs}")
        epoch_times = {
            device: t / warmup_epochs for device, t in calc_times.items()
        }
        if any(t <= 0 for t in epoch_times.values()):
            raise ValueError(f"non-positive epoch time in {epoch_times}")
        he = hyperperiod(list(epoch_times.values()))
        window = self.tsync * he
        local_steps: Dict[int, int] = {}
        expected_versions: Dict[int, float] = {}
        for device, epoch_time in epoch_times.items():
            step_time = epoch_time / max(1, steps_per_epoch[device])
            steps = max(1, int(round(window / step_time)))
            local_steps[device] = steps
            expected_versions[device] = window / step_time
        return TrainingStrategy(
            sync_window=window,
            hyperperiod=he,
            local_steps=local_steps,
            expected_versions=expected_versions,
        )

    def update_local_steps(
        self,
        strategy: TrainingStrategy,
        predicted_increments: Dict[int, float],
    ) -> TrainingStrategy:
        """Dynamic configuration update (workflow step 7).

        The runtime supervisor's predicted per-round version increments
        replace the negotiation-time budgets, so a device whose speed
        drifted (jitter, contention) gets a realistic E_k next round.
        Increments that are degenerate (≤ 0, from a cold predictor)
        leave the previous budget untouched.
        """
        new_steps = dict(strategy.local_steps)
        new_expected = dict(strategy.expected_versions)
        for device, increment in predicted_increments.items():
            if device not in new_steps:
                continue
            if np.isfinite(increment) and increment >= 1.0:
                new_steps[device] = int(round(increment))
                new_expected[device] = float(increment)
        return TrainingStrategy(
            sync_window=strategy.sync_window,
            hyperperiod=strategy.hyperperiod,
            local_steps=new_steps,
            expected_versions=new_expected,
        )

    def make_ring(
        self, selected: Sequence[int], rng: np.random.Generator
    ) -> List[int]:
        """Random directed ring over the selected devices (Sec. III-C),
        as its traversal order."""
        return directed_ring(selected, rng)
