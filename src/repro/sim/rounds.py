"""Arrival-ordered round scheduling on the discrete-event simulator.

Every trainer used to close its compute window with a hard
``advance_to(deadline)`` barrier: bursts ran through the executor, the
clock jumped to the deadline, and the aggregation step never saw *when*
each device actually finished.  The :class:`RoundEngine` replaces that
barrier with scheduled arrival events — one per launched burst, fired at
``start_time + burst.elapsed`` on the trainer's :class:`Simulator` — so
round loops observe completions in arrival order and can cut a round at
the K-th arrival (buffered-async) or at the classic full-window barrier
(sync).

Determinism contract
--------------------
Simulated time is deterministic, so arrival order is too.  Arrival
events are scheduled in task order, which the FIFO tie-break of the
event queue preserves for simultaneous completions; the executor
contract (all executors bitwise-identical to serial) guarantees the
burst results — and therefore the arrival times — do not depend on the
executor choice.  In sync mode the engine is pure bookkeeping:
``collect(deadline=...)`` ends with the clock *exactly* at the deadline,
bitwise identical to the old ``advance_to`` barrier.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.sim.engine import Simulator

#: Recognised values for the ``aggregation`` mode knob.
AGGREGATION_MODES = ("sync", "buffered_async")


def check_federation(
    aggregation: str, async_buffer: Optional[int], staleness_exponent: float
) -> None:
    """Reject an invalid federation mode; the one check of these knobs.

    :class:`~repro.core.config.HADFLParams` and the population trainer
    call it, and so do the experiment configs that build them.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ValueError(
            f"aggregation must be one of {'/'.join(AGGREGATION_MODES)}, "
            f"got {aggregation!r}"
        )
    if async_buffer is not None and async_buffer < 1:
        raise ValueError(f"async_buffer must be >= 1, got {async_buffer}")
    if not staleness_exponent >= 0:
        raise ValueError(
            f"staleness_exponent must be non-negative, got {staleness_exponent}"
        )


class Arrival:
    """One burst completion observed by the round engine.

    ``completed`` distinguishes a device that finished its step budget
    from one truncated early (crash, or the window deadline); buffered
    aggregation only counts completed arrivals toward its buffer.
    """

    __slots__ = ("device_id", "time", "steps", "losses", "elapsed", "completed", "meta")

    def __init__(
        self,
        device_id: int,
        time: float,
        steps: int,
        losses: Sequence[float],
        elapsed: float,
        completed: bool,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.device_id = device_id
        self.time = time
        self.steps = steps
        self.losses = losses
        self.elapsed = elapsed
        self.completed = completed
        self.meta = meta or {}

    def __repr__(self) -> str:
        flag = "done" if self.completed else "partial"
        return (
            f"Arrival(device={self.device_id}, t={self.time:.6g}, "
            f"steps={self.steps}, {flag})"
        )


class RoundEngine:
    """Drives one trainer's rounds through scheduled arrival events.

    The engine owns no policy: it launches executor bursts, schedules
    one arrival event per burst on the shared simulator, and lets the
    caller drain them with :meth:`collect`.  Arrivals that the caller
    does not drain (events beyond a cut) stay queued on the simulator
    and surface in a later round — that pending buffer is what lets
    buffered-async carry stragglers across round boundaries.
    """

    def __init__(self, sim: Simulator, executor) -> None:
        self.sim = sim
        self.executor = executor
        self._arrived: Deque[Arrival] = deque()
        self._in_flight: Set[int] = set()

    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> Set[int]:
        """Devices with a launched burst whose arrival is not collected yet."""
        return set(self._in_flight)

    def is_in_flight(self, device_id: int) -> bool:
        return device_id in self._in_flight

    # ------------------------------------------------------------------ #
    def launch(
        self,
        host: Any,
        tasks: Sequence[Any],
        meta: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Dict[int, Any]:
        """Run one executor batch and schedule an arrival per task.

        The executor contract is untouched: the whole batch still goes
        through ``executor.run_tasks`` (the only burst entry point) and
        the results are bitwise independent of the executor choice.
        Arrival events are scheduled in task order so simultaneous
        completions keep a deterministic FIFO order.  Returns the burst
        results keyed by device id, exactly like ``run_tasks``.
        """
        bursts = self.executor.run_tasks(host, tasks)
        for task in tasks:
            burst = bursts[task.device_id]
            completed = task.max_steps is None or burst.steps >= task.max_steps
            arrival = Arrival(
                device_id=task.device_id,
                time=task.start_time + burst.elapsed,
                steps=burst.steps,
                losses=burst.losses,
                elapsed=burst.elapsed,
                completed=completed,
                meta=None if meta is None else meta.get(task.device_id),
            )
            self._in_flight.add(task.device_id)
            self.sim.schedule_at(arrival.time, self._on_arrival, arrival)
        return bursts

    def _on_arrival(self, arrival: Arrival) -> None:
        self._arrived.append(arrival)

    # ------------------------------------------------------------------ #
    def collect(
        self,
        count: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[Arrival]:
        """Drain arrivals in arrival order.

        ``deadline`` (sync window): process every arrival up to the
        horizon and leave the clock *exactly* at the deadline —
        bitwise identical to the old ``advance_to`` barrier.  Arrivals
        beyond the horizon stay queued for a later collect.

        ``count`` (buffered-async): step the simulator until ``count``
        *completed* arrivals have been drained — truncated arrivals are
        returned but do not count toward the buffer — or until no events
        remain.  The clock ends at the cut arrival's completion time.

        With neither argument, drains until the event queue is empty.
        """
        taken: List[Arrival] = []
        completed = 0

        def drain() -> None:
            nonlocal completed
            while self._arrived and (count is None or completed < count):
                arrival = self._arrived.popleft()
                self._in_flight.discard(arrival.device_id)
                taken.append(arrival)
                if arrival.completed:
                    completed += 1

        if deadline is not None:
            self.sim.run(until=deadline)
            drain()
            return taken

        while True:
            drain()
            if count is not None and completed >= count:
                break
            if not self.sim.step():
                drain()
                break
        return taken

    def discard_in_flight(self, device_ids: Iterable[int]) -> None:
        """Forget launched bursts without collecting them.

        Used when a trainer tears down mid-flight (end of a run with
        stragglers still queued): their arrival events are inert
        bookkeeping and simply never get drained.
        """
        for device_id in device_ids:
            self._in_flight.discard(device_id)


def staleness_stats(values: Iterable[float]) -> Dict[str, float]:
    """Telemetry percentiles of a staleness sample (instrumentation only)."""
    values = list(values)
    if not values:
        return {"staleness_p50": 0.0, "staleness_p90": 0.0, "staleness_max": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "staleness_p50": float(np.percentile(arr, 50)),
        "staleness_p90": float(np.percentile(arr, 90)),
        "staleness_max": float(arr.max()),
    }


def staleness_weights(staleness: Sequence[float], exponent: float) -> np.ndarray:
    """FedBuff-style staleness discount, normalised to sum to one.

    ``w_i ∝ (1 + τ_i) ** (−exponent)`` where ``τ_i`` is the number of
    aggregation epochs the contribution is behind the current model.
    ``exponent = 0`` recovers the uniform mean.
    """
    tau = np.asarray(staleness, dtype=np.float64)
    if tau.size == 0:
        return tau
    if np.any(tau < 0):
        raise ValueError(f"staleness must be non-negative, got {tau}")
    raw = np.power(1.0 + tau, -float(exponent))
    return raw / raw.sum()
