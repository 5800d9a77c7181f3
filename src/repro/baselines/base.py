"""Shared machinery of the synchronous baselines.

:class:`~repro.sim.rounds.Federation` supplies the clock, the byte
accountant, the round record and the run loop; :class:`SchemeTrainer`
adds the lockstep round the synchronous schemes share: stall until
every device is reachable, train every device at once, merge, record.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.metrics.records import RoundRecord, RunResult
from repro.sim.cluster import SimulatedCluster
from repro.sim.device import LocalTrainTask
from repro.sim.rounds import Federation
from repro.sim.trace import TraceRecorder


class SchemeTrainer(Federation):
    """Base for synchronous baseline trainers on a simulated cluster.

    Subclasses implement :meth:`_lockstep_round` (one aggregation round /
    training epoch, after :meth:`wait_for_all_alive`).  ``seed`` is
    accepted like every trainer's, though the lockstep schemes draw no
    randomness.
    """

    scheme_name = "base"

    def __init__(
        self,
        cluster: SimulatedCluster,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        super().__init__(cluster, cluster.executor, trace)
        self.cluster = cluster
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
            self.sim.run(until=resume)

    def _train_all(self, steps: int) -> List[float]:
        """Every device runs ``steps`` local steps from now, through
        the cluster's executor; returns the steps' losses in device order.
        Bursts are independent until the merge barrier, so any backend
        may run them concurrently — bitwise-identical to serial.  The
        barrier drains every arrival event: the clock lands on the
        slowest device's completion."""
        devices = self.cluster.devices
        bursts = self.engine.launch(
            self.cluster,
            [
                LocalTrainTask(
                    device_id=device.device_id,
                    start_time=self.sim.now,
                    max_steps=steps,
                )
                for device in devices
            ],
        )
        self.engine.collect()
        return [loss for device in devices for loss in bursts[device.device_id].losses]

    def _run_round(self, round_index: int) -> RoundRecord:
        self.wait_for_all_alive()
        bytes_before = self.volume.total_bytes
        losses, wire_cast_error = self._lockstep_round()
        return self._record(
            round_index,
            bytes_before,
            losses,
            versions={d.device_id: d.version for d in self.cluster.devices},
            wire_dtype=self.wire.name,
            wire_cast_error=wire_cast_error,
        )

    def _lockstep_round(self) -> Tuple[List[float], float]:
        """Train and merge every device; returns the round's losses and
        the largest wire cast error of its transfers."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def run(
        self,
        target_epochs: float,
        max_rounds: int = 100_000,
        eval_every: int = 1,
    ) -> RunResult:
        """Train until ``target_epochs`` aggregate data passes, evaluating
        every ``eval_every`` rounds (0: the final round only)."""
        more = self._toward(target_epochs, max_rounds)
        result = RunResult(
            scheme=self.scheme_name,
            config={
                "power_ratio": [s.power for s in self.cluster.specs],
            },
        )
        return self._run_rounds(result, more, eval_every)
