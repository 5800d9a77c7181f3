"""Arrival-ordered round scheduling on the discrete-event simulator.

The :class:`RoundEngine` turns every launched burst into a scheduled
arrival event on the trainer's :class:`Simulator`, fired at
``start_time + burst.elapsed`` (a crash-truncated burst: at the crash),
so round loops observe completions in arrival order and can cut a round
at the K-th arrival (buffered-async) or at the classic full-window
barrier (sync).  Virtual time moves only by stepping events
(``Simulator.step``) or by running them up to a horizon
(``Simulator.run(until=...)``), which fires every event due on the way:
no trainer jumps the clock over a queued arrival, so the clock never
runs backwards.

Determinism contract
--------------------
Simulated time is deterministic, so arrival order is too.  Arrival
events are scheduled in task order, which the FIFO tie-break of the
event queue preserves for simultaneous completions; the executor
contract (all executors bitwise-identical to serial) guarantees the
burst results — and therefore the arrival times — do not depend on the
executor choice.  In sync mode the engine is pure bookkeeping:
``collect(deadline=...)`` fires the window's arrivals and ends with the
clock *exactly* at the deadline.

:class:`Federation` is the skeleton every trainer shares around its
engine: the clock, the byte accountant, the round record and the run
loop (Alg. 1 steps 5–9: run a round, record it, evaluate on a cadence,
evaluate the final round, snapshot the accountant), and the round
bookkeeping the HADFL trainers share — crash-bounded launches, the
fault-tolerant ring fold, the staleness ledger and idle windows.  A
trainer keeps only its cohort rule and its fold rule.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set,
)

import numpy as np

from repro.comm.ring_repair import FaultTolerantRingSync, RingSyncResult
from repro.comm.volume import CommVolumeAccountant
from repro.metrics.records import RoundRecord, RunResult
from repro.sim.device import LocalTrainTask
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:
    from repro.sim.executor import LocalExecutor

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


def check_eval_every(eval_every: int) -> None:
    """Reject a negative evaluation cadence; the one check of the knob.

    ``eval_every = n > 0`` evaluates every n-th round, ``0`` the final
    round only.  The trainers' run loop calls it, and so do the
    experiment configs that carry the knob.
    """
    if eval_every < 0:
        raise ValueError(
            f"eval_every must be >= 0 (0: final round only), got {eval_every}"
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
    does not drain — still queued on the simulator, or fired since the
    cut into the engine's arrival buffer — surface in a later round:
    that is what lets buffered-async carry stragglers across rounds.
    """

    def __init__(self, sim: Simulator, executor: LocalExecutor) -> None:
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
                # A crash-truncated burst arrives at the crash (its
                # deadline), not at the end of its last step: a device
                # that fits no step would otherwise arrive at its own
                # start, and the clock would never move.
                time=task.start_time + burst.elapsed if completed else task.deadline,
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
        horizon and leave the clock *exactly* at the deadline.  Arrivals
        beyond the horizon stay queued for a later collect.

        ``count`` (buffered-async): step the simulator until ``count``
        *completed* arrivals have been drained — truncated arrivals are
        returned but do not count toward the buffer — or until no events
        remain.  The clock ends at the cut arrival's completion time, or
        stays where it is when the arrival buffer already held the cut.

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
        stragglers still in flight): their arrivals, queued or already
        buffered, are inert bookkeeping and simply never get drained.
        """
        for device_id in device_ids:
            self._in_flight.discard(device_id)


class Federation:
    """The skeleton of every trainer: clock, accountant, record, run loop.

    A trainer federates the devices of one substrate (the dense cluster
    or a virtual population).  The base holds the substrate's wire,
    network and model size, the one byte accountant, the trace, the
    clock with its round engine, the fault-tolerant ring over the
    substrate's links, the global model and its staleness ledger; it
    launches bursts, folds rings, builds every round record and runs the
    round loop.  A subclass supplies
    ``_run_round(round_index)`` (one round, recorded through
    :meth:`_record`) and its own ``run``, which builds the
    :class:`RunResult` and hands it to :meth:`_run_rounds`.
    """

    def __init__(
        self,
        substrate: Any,
        executor: Any,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.substrate = substrate
        # The substrate cast and delivered the initial model under its
        # wire, derived the model's wire size from it and aligned the
        # network's segment granularity to it, so pricing follows the
        # payloads.
        self.wire = substrate.wire
        self.network = substrate.network
        self.model_nbytes = substrate.model_nbytes
        self.volume = CommVolumeAccountant()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.sim = Simulator()
        self.executor = executor
        # Arrival-ordered round scheduling: bursts go through the
        # executor in one batch, completions surface as events on the
        # trainer's clock, in arrival order.
        self.engine = RoundEngine(self.sim, executor)
        # The one ring every fold crosses, on the substrate's link-fault
        # model and retry policy (both ``None``: perfectly reliable).
        self.sync = FaultTolerantRingSync(
            self.network,
            wire=self.wire,
            link_faults=substrate.link_faults,
            retry_policy=substrate.retry_policy,
        )
        self._global_params = np.array(substrate.initial_params, copy=True)
        # Staleness ledger: one aggregation epoch per produced aggregate,
        # and the epoch at which each device last folded into one.
        self._aggregation_epoch = 0
        self._last_fold_epoch: Dict[int, int] = {}

    @property
    def global_params(self) -> np.ndarray:
        """The latest aggregated model."""
        return self._global_params

    def global_epoch(self) -> float:
        """Aggregate data passes so far."""
        return self.substrate.global_epoch()

    def _run_round(self, round_index: int) -> RoundRecord:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def _launch(
        self,
        device_ids: Sequence[int],
        start: float,
        horizon: float = math.inf,
        max_steps: Optional[Dict[int, int]] = None,
        payload: Optional[np.ndarray] = None,
    ) -> Dict[int, Any]:
        """Launch one burst per device from ``start`` as one executor
        batch.  A burst trains until ``horizon`` or its device's next
        crash, whichever comes first (a device that drops stops
        computing at that moment), at most ``max_steps[d]`` steps when
        given.  Each arrival's ``meta`` carries the aggregation epoch
        the burst launched at and the ``payload`` it started from.
        Returns the bursts keyed by device id."""
        failures = self.substrate.failures
        launched: Dict[str, Any] = {
            "epoch": self._aggregation_epoch,
            "payload": payload,
        }
        return self.engine.launch(
            self.substrate,
            [
                LocalTrainTask(
                    device_id=device_id,
                    deadline=min(horizon, failures.next_down_time(device_id, start)),
                    start_time=start,
                    max_steps=None if max_steps is None else max_steps[device_id],
                )
                for device_id in device_ids
            ],
            meta=dict.fromkeys(device_ids, launched),
        )

    def _staleness(
        self, device_ids: Iterable[int], since: Optional[Dict[int, int]] = None
    ) -> Dict[int, int]:
        """Aggregation epochs each device's contribution is behind the
        current model: counted from ``since[d]`` (the epoch its burst
        launched at) when given, else from the device's last fold — a
        device that never folded trains on the initial dispatch, epoch 0."""
        base = self._last_fold_epoch if since is None else since
        return {
            device_id: max(0, self._aggregation_epoch - base.get(device_id, 0))
            for device_id in device_ids
        }

    def _note_fold(self, aggregate: np.ndarray, folded: Iterable[int]) -> None:
        """Install a produced aggregate as the global model: one more
        aggregation epoch, at which the ``folded`` devices are current."""
        self._global_params = aggregate
        self._aggregation_epoch += 1
        for device_id in folded:
            self._last_fold_epoch[device_id] = self._aggregation_epoch

    def _ring_fold(
        self,
        ring: Sequence[int],
        vectors: Dict[int, np.ndarray],
        reference: np.ndarray,
    ) -> RingSyncResult:
        """Fold ``vectors`` over ``ring`` through the fault-tolerant sync
        (delta-shipped against ``reference``), charge its bytes as
        ``"partial_sync"`` and install a produced aggregate, the
        survivors folded.  Returns the sync result."""
        result = self.sync.run(
            self.sim,
            ring,
            vectors,
            self.substrate.failures.is_alive,
            self.model_nbytes,
            trace=self.trace,
            reference=reference,
        )
        self.volume.record(self.sim.now, result.bytes_sent, "partial_sync")
        if result.aggregated is not None:
            self._note_fold(result.aggregated, result.survivors)
        return result

    # ------------------------------------------------------------------ #
    def _record(
        self,
        round_index: int,
        bytes_before: int,
        losses: Sequence[float],
        *,
        selected: Iterable[int] = (),
        versions: Optional[Dict[int, int]] = None,
        **detail: Any,
    ) -> RoundRecord:
        """The round's record at the current clock.  ``comm_bytes`` is
        exactly what the accountant recorded since ``bytes_before``;
        ``detail`` is the scheme's telemetry, ``bypasses`` among it."""
        return RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=self.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            selected=list(selected),
            versions={} if versions is None else versions,
            comm_bytes=self.volume.total_bytes - bytes_before,
            bypasses=detail.get("bypasses", 0),
            detail=detail,
        )

    def _skipped(self, round_index: int, **detail: Any) -> RoundRecord:
        """A round in which nobody could train: it idled its window."""
        return self._record(
            round_index, self.volume.total_bytes, (), skipped=True, **detail
        )

    def _idle(self, round_index: int, until: float, **detail: Any) -> RoundRecord:
        """Nobody could train: idle the clock to ``until``, record the
        round skipped."""
        self.sim.run(until=until)
        return self._skipped(round_index, **detail)

    def _toward(self, target_epochs: float, max_rounds: int) -> Callable[[int], bool]:
        """Whether round ``i`` runs: at most ``max_rounds``, until
        ``target_epochs`` aggregate data passes — and at least one, even
        when warm-up already met the target (a run without rounds has
        nothing to record or evaluate)."""
        if target_epochs <= 0:
            raise ValueError(f"target_epochs must be positive, got {target_epochs}")
        return lambda i: i < max_rounds and (
            i == 0 or self.global_epoch() < target_epochs
        )

    def _run_rounds(
        self, result: RunResult, more: Callable[[int], bool], eval_every: int
    ) -> RunResult:
        """Run rounds while ``more(round_index)``, evaluating the global
        model every ``eval_every`` rounds (0: the final round only) when
        the substrate has a test set — instrumentation, costing no
        virtual time.  ``result.config`` gains the wire, the model's wire
        size and the accountant's snapshot."""
        check_eval_every(eval_every)
        evaluates = self.substrate.test_set is not None
        round_index = 0
        while more(round_index):
            record = self._run_round(round_index)
            if evaluates and eval_every and round_index % eval_every == 0:
                self._evaluate(record)
            result.append(record)
            round_index += 1
        if evaluates and result.rounds and result.rounds[-1].test_accuracy is None:
            self._evaluate(result.rounds[-1])
        result.config["model_nbytes"] = self.model_nbytes
        result.config["wire_dtype"] = self.wire.name
        # Accounting snapshot: lets the invariant
        # sum(round.comm_bytes) + initial_dispatch == total_bytes
        # be re-verified from the saved result alone (CLI
        # --verify-accounting, CI chaos smoke).
        result.config["accounting"] = self.volume.snapshot()
        return result

    def _evaluate(self, record: RoundRecord) -> None:
        record.test_loss, record.test_accuracy = self.substrate.evaluate_params(
            self.global_params
        )


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
