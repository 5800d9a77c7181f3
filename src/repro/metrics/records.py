"""Run records: the common result schema of all three training schemes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


@dataclass
class RoundRecord:
    """Metrics of one aggregation round (or epoch for the baselines)."""

    round_index: int
    sim_time: float
    """Virtual time at the end of the round."""
    global_epoch: float
    """Aggregate data passes at the end of the round."""
    train_loss: float
    """Mean local training loss over the round's steps."""
    test_loss: Optional[float] = None
    test_accuracy: Optional[float] = None
    selected: List[int] = field(default_factory=list)
    versions: Dict[int, int] = field(default_factory=dict)
    comm_bytes: int = 0
    bypasses: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """Full trajectory of one training run."""

    scheme: str
    config: Dict[str, Any] = field(default_factory=dict)
    rounds: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.rounds.append(record)

    # ------------------------------------------------------------------ #
    # Series accessors
    # ------------------------------------------------------------------ #
    def _series(self, attr: str, filter_attr: Optional[str] = None) -> np.ndarray:
        """Values of ``attr``, keeping only rounds where ``filter_attr``
        was recorded.  Each optional metric filters by *its own*
        attribute: a round that recorded only a test loss still appears
        in the loss series, and a round with accuracy but no loss never
        injects a NaN into it."""
        rows = self.rounds
        if filter_attr is not None:
            rows = [r for r in rows if getattr(r, filter_attr) is not None]
        return np.array([getattr(r, attr) for r in rows], dtype=float)

    def times(
        self, evaluated_only: bool = False, filter_attr: str = "test_accuracy"
    ) -> np.ndarray:
        """Round-end times; ``evaluated_only`` keeps rounds where
        ``filter_attr`` was recorded, aligning with that metric's series."""
        return self._series("sim_time", filter_attr if evaluated_only else None)

    def epochs(
        self, evaluated_only: bool = False, filter_attr: str = "test_accuracy"
    ) -> np.ndarray:
        return self._series(
            "global_epoch", filter_attr if evaluated_only else None
        )

    def train_losses(self) -> np.ndarray:
        return self._series("train_loss")

    def test_accuracies(self) -> np.ndarray:
        return self._series("test_accuracy", filter_attr="test_accuracy")

    def test_losses(self) -> np.ndarray:
        return self._series("test_loss", filter_attr="test_loss")

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_time(self) -> float:
        return self.rounds[-1].sim_time if self.rounds else 0.0

    @property
    def total_epochs(self) -> float:
        return self.rounds[-1].global_epoch if self.rounds else 0.0

    @property
    def total_comm_bytes(self) -> int:
        return sum(r.comm_bytes for r in self.rounds)

    def robustness_summary(self) -> Dict[str, Any]:
        """Run totals of the per-round robustness telemetry.

        Sums the ``detail`` counters the chaos layer records each round
        (``retries``, ``dropped_messages``, ``bypasses``, ``resyncs``,
        plus the number of failed syncs); rounds without the keys (older
        results, baseline schemes) count zero.  The event-driven modes
        add arrival/staleness telemetry: total arrivals observed,
        the buffered round count, arrivals dropped without folding, and
        the worst per-round staleness seen.
        """
        totals: Dict[str, Any] = {
            "retries": 0,
            "dropped_messages": 0,
            "bypasses": 0,
            "resyncs": 0,
            "failed_syncs": 0,
            "arrivals": 0,
            "dropped_arrivals": 0,
            "buffered_rounds": 0,
            "max_staleness": 0.0,
        }
        for record in self.rounds:
            for key in (
                "retries",
                "dropped_messages",
                "bypasses",
                "resyncs",
                "arrivals",
                "dropped_arrivals",
            ):
                totals[key] += int(record.detail.get(key, 0))
            if record.detail.get("sync_failed"):
                totals["failed_syncs"] += 1
            if record.detail.get("buffered"):
                totals["buffered_rounds"] += 1
            totals["max_staleness"] = max(
                totals["max_staleness"],
                float(record.detail.get("staleness_max", 0.0)),
            )
        return totals

    def best_accuracy(self) -> float:
        accs = self.test_accuracies()
        if accs.size == 0:
            raise ValueError("run recorded no test accuracies")
        return float(accs.max())

    def final_accuracy(self) -> float:
        accs = self.test_accuracies()
        if accs.size == 0:
            raise ValueError("run recorded no test accuracies")
        return float(accs[-1])

    def summary(self) -> str:
        lines = [
            f"scheme          : {self.scheme}",
            f"rounds          : {len(self.rounds)}",
            f"virtual time    : {self.total_time:.2f} s",
            f"global epochs   : {self.total_epochs:.2f}",
            f"comm volume     : {self.total_comm_bytes:,} bytes",
        ]
        accs = self.test_accuracies()
        if accs.size:
            lines.append(f"best accuracy   : {accs.max():.4f}")
            lines.append(f"final accuracy  : {accs[-1]:.4f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dump of the run."""
        return {
            "scheme": self.scheme,
            "config": self.config,
            "rounds": [
                {
                    "round_index": r.round_index,
                    "sim_time": r.sim_time,
                    "global_epoch": r.global_epoch,
                    "train_loss": r.train_loss,
                    "test_loss": r.test_loss,
                    "test_accuracy": r.test_accuracy,
                    "selected": list(r.selected),
                    "versions": {str(k): int(v) for k, v in r.versions.items()},
                    "comm_bytes": r.comm_bytes,
                    "bypasses": r.bypasses,
                    "detail": dict(r.detail),
                }
                for r in self.rounds
            ],
        }
