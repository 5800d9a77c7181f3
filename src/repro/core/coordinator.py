"""The cloud coordinator (paper Fig. 2a).

Four components, mirrored one-to-one from the paper's overall design:

* **liveness monitor** — "monitors the status of each device and adds the
  available devices to this round of training" (workflow step 1);
* **strategy generator** — training configuration: local steps, T_sync,
  partial-sync topology (step 4; :mod:`repro.core.strategy`);
* **runtime supervisor** — collects actual parameter versions each round
  and forecasts the next round's distribution (step 7;
  :mod:`repro.core.prediction`; the aggregation epochs that staleness
  counts are the trainer's, :class:`~repro.sim.rounds.Federation`);
* **model manager** — "regularly fetches the latest model and puts it in
  the database for backup" (step 9).

The coordinator is *control-plane only*: parameters flow device-to-device
(decentralised); the coordinator never relays model payloads, which is
exactly how HADFL removes the central server's communication pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import HADFLParams
from repro.core.prediction import VersionPredictor
from repro.core.selection import SelectionPolicy, make_selection_policy
from repro.core.strategy import StrategyGenerator, TrainingStrategy
from repro.sim.failures import FailureInjector


@dataclass
class ModelSnapshot:
    round_index: int
    sim_time: float
    params: np.ndarray


class ModelManager:
    """Bounded store of model backups (the coordinator's database)."""

    def __init__(self, keep_last: int = 5):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last
        self._snapshots: List[ModelSnapshot] = []

    def backup(self, round_index: int, sim_time: float, params: np.ndarray) -> None:
        self._snapshots.append(
            ModelSnapshot(round_index, sim_time, np.array(params, copy=True))
        )
        if len(self._snapshots) > self.keep_last:
            self._snapshots.pop(0)

    def latest(self) -> Optional[ModelSnapshot]:
        return self._snapshots[-1] if self._snapshots else None

    def snapshot_at_round(self, round_index: int) -> Optional[ModelSnapshot]:
        for snapshot in reversed(self._snapshots):
            if snapshot.round_index == round_index:
                return snapshot
        return None

    def __len__(self) -> int:
        return len(self._snapshots)


class Coordinator:
    """Control-plane logic shared by the HADFL trainers."""

    def __init__(
        self,
        params: HADFLParams,
        failures: Optional[FailureInjector] = None,
        selection: Optional[SelectionPolicy] = None,
        seed: int = 0,
    ):
        self.params = params
        self.failures = failures or FailureInjector()
        self.predictor = VersionPredictor(alpha=params.smoothing_alpha)
        self.strategy_generator = StrategyGenerator(tsync=params.tsync)
        self.selection = selection or make_selection_policy(
            params.selection, sigma=params.selection_sigma
        )
        self.model_manager = ModelManager()
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC00D]))
        self.strategy: Optional[TrainingStrategy] = None
        self._last_cumulative: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Liveness monitor
    # ------------------------------------------------------------------ #
    def available_devices(self, device_ids: Sequence[int], time: float) -> List[int]:
        """Workflow step 1: who participates in this round."""
        return self.failures.alive_devices(list(device_ids), time)

    # ------------------------------------------------------------------ #
    # Strategy generation (negotiation + dynamic update)
    # ------------------------------------------------------------------ #
    def negotiate(
        self,
        calc_times: Dict[int, float],
        steps_per_epoch: Dict[int, int],
    ) -> TrainingStrategy:
        """Build the initial strategy from mutual-negotiation T_i's."""
        self.strategy = self.strategy_generator.generate(
            calc_times, self.params.warmup_epochs, steps_per_epoch
        )
        return self.strategy

    def update_strategy(self) -> TrainingStrategy:
        """Workflow step 7: re-derive step budgets from version forecasts."""
        if self.strategy is None:
            raise RuntimeError("negotiate() must run before update_strategy()")
        if not self.params.adapt_local_steps:
            return self.strategy
        increments = {
            device: self.predictor.predict(device, steps_ahead=1)
            for device in self.predictor.known_devices()
        }
        self.strategy = self.strategy_generator.update_local_steps(
            self.strategy, increments
        )
        return self.strategy

    # ------------------------------------------------------------------ #
    # Runtime supervisor
    # ------------------------------------------------------------------ #
    def record_versions(self, versions: Dict[int, float]) -> None:
        """Record each device's cumulative version after a round.

        The smoother operates on per-round *increments* (steps achieved in
        the window): for a steady device the one-observation forecast is
        already exact, and drifting speed shows up in the trend term.
        Cumulative versions are kept alongside so selection can compare
        absolute parameter freshness (Eq. 8's v_{i,j}).
        """
        for device_id, version in versions.items():
            previous = self._last_cumulative.get(device_id, 0.0)
            self.predictor.observe(device_id, float(version) - previous)
            self._last_cumulative[device_id] = float(version)

    def version_estimates(self, device_ids: Sequence[int]) -> Dict[int, float]:
        """Versions the selection uses: last observed cumulative version
        plus the forecast increment; negotiation-time expectations before
        any observation exists (round 0)."""
        estimates: Dict[int, float] = {}
        known = set(self.predictor.known_devices())
        for device in device_ids:
            if device in known:
                estimates[device] = self._last_cumulative.get(
                    device, 0.0
                ) + self.predictor.predict(device, steps_ahead=1)
            elif self.strategy is not None:
                estimates[device] = self.strategy.expected_versions.get(device, 0.0)
            else:
                estimates[device] = 0.0
        return estimates

    # ------------------------------------------------------------------ #
    # Selection + topology
    # ------------------------------------------------------------------ #
    def select_devices(self, candidate_ids: Sequence[int]) -> List[int]:
        """Probability-based N_p selection among available devices."""
        if not candidate_ids:
            return []
        estimates = self.version_estimates(candidate_ids)
        return self.selection.select(
            estimates, self.params.num_selected, self.rng
        )

    def make_ring(self, selected: Sequence[int]) -> List[int]:
        return self.strategy_generator.make_ring(selected, self.rng)
