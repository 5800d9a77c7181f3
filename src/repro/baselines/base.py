"""Shared machinery for baseline trainers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm.volume import CommVolumeAccountant
from repro.metrics.records import RoundRecord, RunResult
from repro.parallel.tasks import LocalTrainTask
from repro.sim.cluster import SimulatedCluster
from repro.sim.engine import Simulator
from repro.sim.rounds import RoundEngine
from repro.sim.trace import TraceRecorder


class SchemeTrainer:
    """Base for synchronous baseline trainers on a simulated cluster.

    Subclasses implement :meth:`_run_round` (one aggregation round /
    training epoch) and share clock management, stall-on-failure
    semantics, evaluation cadence, and result assembly.  ``accounting``
    is the byte accountant's mode, as for HADFL.
    """

    scheme_name = "base"

    def __init__(
        self,
        cluster: SimulatedCluster,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        accounting: str = "exact",
    ):
        self.cluster = cluster
        self.wire = cluster.wire
        self.sim = Simulator()
        self.volume = CommVolumeAccountant(mode=accounting)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA5E]))
        # Arrival-ordered scheduling: burst completions surface as events
        # on the simulator, and the synchronous merge barrier is simply
        # "collect every arrival" — the clock lands on the slowest
        # completion, bitwise equal to the old max-elapsed arithmetic.
        self.engine = RoundEngine(self.sim, cluster.executor)
        self._global_params = np.array(cluster.initial_params, copy=True)
        # Delta-shipping reference for sparsifying wire formats: the
        # model state every device shares (initially the common initial
        # model; synchronous schemes refresh it each aggregation).
        self._wire_reference = np.array(cluster.initial_params, copy=True)

    # ------------------------------------------------------------------ #
    def wait_for_all_alive(self) -> None:
        """Synchronous schemes stall until every device is reachable.

        Neither baseline tolerates faults (the gap HADFL's Sec. III-D
        closes): a disconnected peer blocks the collective, so the clock
        advances to the end of the union of active failure windows.
        """
        while True:
            now = self.sim.now
            blocking = [
                w.up_at
                for d in self.cluster.devices
                for w in self.cluster.failures.windows_for(d.device_id)
                if w.covers(now)
            ]
            if not blocking:
                return
            resume = max(blocking)
            if not np.isfinite(resume):
                raise RuntimeError(
                    "a device disconnected permanently; synchronous training "
                    "cannot make progress"
                )
            self.trace.record(now, "stall_on_failure", resume_at=resume)
            self.sim.advance_to(resume)

    def evaluate_global(self, record: RoundRecord) -> None:
        loss, acc = self.cluster.evaluate_params(self._global_params)
        record.test_loss = loss
        record.test_accuracy = acc

    def train_all_devices(self, num_steps: int, start_time: float) -> dict:
        """Run ``num_steps`` local steps on every device via the cluster's
        executor; returns bursts keyed by device id.  Bursts are
        independent until the merge barrier, so any backend may run them
        concurrently — results are bitwise-identical to serial.  Each
        completion is scheduled as an arrival event; the synchronous
        barrier is ``self.engine.collect()`` (drain every arrival)."""
        return self.engine.launch(
            self.cluster,
            [
                LocalTrainTask(
                    device_id=device.device_id,
                    num_steps=num_steps,
                    start_time=start_time,
                )
                for device in self.cluster.devices
            ],
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        target_epochs: float,
        max_rounds: int = 100_000,
        eval_every: int = 1,
    ) -> RunResult:
        """Train until ``target_epochs`` aggregate data passes."""
        if target_epochs <= 0:
            raise ValueError(f"target_epochs must be positive, got {target_epochs}")
        result = RunResult(
            scheme=self.scheme_name,
            config={
                "power_ratio": [s.power for s in self.cluster.specs],
                "model_nbytes": self.cluster.model_nbytes,
                "wire_dtype": self.wire.name,
            },
        )
        round_index = 0
        while (
            self.cluster.global_epoch() < target_epochs and round_index < max_rounds
        ):
            self.wait_for_all_alive()
            record = self._run_round(round_index)
            if round_index % max(1, eval_every) == 0:
                self.evaluate_global(record)
            result.append(record)
            round_index += 1
        if result.rounds and result.rounds[-1].test_accuracy is None:
            self.evaluate_global(result.rounds[-1])
        # Same snapshot the HADFL trainers store (CLI --verify-accounting).
        result.config["accounting"] = self.volume.snapshot()
        return result

    def _run_round(self, round_index: int) -> RoundRecord:
        raise NotImplementedError

    @property
    def global_params(self) -> np.ndarray:
        return self._global_params
