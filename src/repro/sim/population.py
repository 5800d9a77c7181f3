"""Virtual device populations: specs until selected, arenas from a pool.

Production cross-device federations select a few hundred participants
per round from populations of 10^5–10^6 devices.  Building a
:class:`~repro.sim.cluster.SimulatedCluster` at that scale is hopeless —
it materialises a model replica, optimizer flats and a data shard for
*every* device — so this module keeps the population **virtual**:

* :class:`PopulationSpecs` — the entire population as O(1) state: a
  power profile (cycled levels), a lazy shard descriptor
  (:class:`~repro.data.partition.ShardSpec`) and an availability model
  (:class:`~repro.sim.failures.AvailabilityModel`).  A device *is* its
  id until the round it participates.
* :class:`VirtualPopulation` — the lazy
  :class:`~repro.sim.cluster.DeviceSubstrate`: materialises a selected
  device on a recycled :class:`~repro.sim.cluster.ArenaPool` block (a
  recycled block is bitwise a fresh one — ``tests/test_population.py``)
  and round-trips persistent per-device state (version counter,
  optimizer moments, batch cursor, RNG streams) through
  ``export_train_state`` / ``import_train_state`` on release, so a
  device that participates twice continues its local trajectory exactly.
* :class:`PopulationTrainer` — HADFL-style rounds over the virtual
  population: availability mask → vectorised Eq. 8 scoring over the
  version array → Gumbel top-k participant draw → dense dispatch →
  deadline-bounded local bursts → fault-tolerant ring sync.  Resident
  arenas and the per-round transcendentals scale with *participants*
  (plus the devices that ever trained); O(population) vector state (ids,
  versions, availability draws) scales with the population, and the
  ledger with the devices that ever participated (size law in
  :class:`VirtualPopulation`).

Per-round churn, straggler tail percentiles and hotspot received-bytes
land in ``RoundRecord.detail``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.ring_repair import FaultTolerantRingSync
from repro.comm.volume import CommVolumeAccountant, check_accounting
from repro.comm.wire import WireSpec
from repro.core.selection import sample_participants
from repro.data.dataset import Dataset
from repro.data.partition import SampledShardSpec, ShardSpec
from repro.metrics.records import RoundRecord, RunResult
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.optim.lr_schedules import LRSchedule
from repro.parallel.tasks import LocalTrainTask
from repro.sim.cluster import ArenaBlock, DeviceSubstrate
from repro.sim.device import Device, DeviceSpec
from repro.sim.engine import Simulator
from repro.sim.executor import LocalExecutor, make_executor
from repro.sim.rounds import (
    RoundEngine,
    check_federation,
    staleness_stats,
    staleness_weights,
)
from repro.sim.failures import (
    AlwaysAvailable,
    AvailabilityModel,
    FailureInjector,
)
from repro.sim.network import NetworkModel


class PopulationSpecs:
    """The whole population as a handful of scalars and descriptors.

    Parameters
    ----------
    size:
        Number of virtual devices (ids ``0 .. size-1``).
    shards:
        Lazy shard descriptor; ``shards.num_devices`` must equal
        ``size``.  :class:`~repro.data.partition.SampledShardSpec` is
        the natural choice at population scale (O(1) state, per-device
        seeded draws).
    power_levels:
        Relative compute powers, dealt round-robin over device ids
        (device ``d`` has power ``power_levels[d % len(power_levels)]``)
        — the population analogue of the paper's ratio arrays.
    base_step_time:
        Virtual seconds one local step costs the *strongest* level
        (fastest-native normalisation, matching
        :func:`~repro.experiments.configs.specs_from_power_ratio`).
    availability:
        Functional availability model; defaults to
        :class:`~repro.sim.failures.AlwaysAvailable`.
    """

    def __init__(
        self,
        size: int,
        shards: ShardSpec,
        power_levels: Sequence[float] = (1.0,),
        base_step_time: float = 0.1,
        availability: Optional[AvailabilityModel] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        if shards.num_devices != size:
            raise ValueError(
                f"shard spec covers {shards.num_devices} devices for a "
                f"population of {size}"
            )
        levels = np.asarray(power_levels, dtype=float)
        if levels.size == 0 or (levels <= 0).any():
            raise ValueError("power_levels must be non-empty and positive")
        if base_step_time <= 0:
            raise ValueError(
                f"base_step_time must be positive, got {base_step_time}"
            )
        self.size = int(size)
        self.shards = shards
        self.power_levels = levels
        self.base_step_time = float(base_step_time)
        self.availability = availability or AlwaysAvailable()
        self._device_ids = np.arange(self.size, dtype=np.int64)
        # The one id array every round's availability query passes: the
        # model keeps its hashed draws (filled on the first query).
        self.availability.keep_draws_for(self._device_ids)

    @property
    def device_ids(self) -> np.ndarray:
        """All ids, ``int64`` — shared array, do not mutate."""
        return self._device_ids

    def device_spec(self, device_id: int) -> DeviceSpec:
        """The full :class:`DeviceSpec` of one device, built on demand."""
        if not 0 <= device_id < self.size:
            raise IndexError(
                f"device {device_id} out of range for population of {self.size}"
            )
        power = float(self.power_levels[device_id % self.power_levels.size])
        return DeviceSpec(
            device_id=int(device_id),
            power=power,
            base_step_time=self.base_step_time * float(self.power_levels.max()),
        )

    @classmethod
    def sampled(
        cls,
        size: int,
        num_samples: int,
        shard_size: int,
        power_levels: Sequence[float] = (1.0,),
        base_step_time: float = 0.1,
        availability: Optional[AvailabilityModel] = None,
        seed: int = 0,
    ) -> "PopulationSpecs":
        """Convenience: population over per-device sampled shards."""
        return cls(
            size,
            SampledShardSpec(num_samples, size, shard_size, seed=seed),
            power_levels=power_levels,
            base_step_time=base_step_time,
            availability=availability,
        )


class VirtualPopulation(DeviceSubstrate):
    """Materialise-on-selection substrate over a :class:`PopulationSpecs`.

    Devices are built by the dense cluster's
    :class:`~repro.sim.cluster.DeviceSubstrate`, so a materialised device
    is bitwise the cluster device with the same id.  On top: the
    population-wide version array (the Eq. 8 input) and the ledger that
    keeps a released device's training state (optimizer moments, batch
    cursor, RNG streams) for its next participation.

    Memory: the pool's blocks (bounded by concurrent participants),
    32 B per device of vector state (ids and versions here, two hashed
    availability draws in the diurnal model), and the ledger, which
    is never evicted: its bytes are *distinct past participants* × the
    optimizer's flat-state bytes per device (a full fp64 copy of every
    ``flat_state()`` vector — 137.3 KB for the benchmark MLP under
    momentum SGD) plus a small train-state dict.  One ``async_int8_pop``
    e2e pass (40 buffered-async rounds over 10^5 devices) ends with
    1 312 entries and 180.1 MB although no device returned.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_set: Dataset,
        specs: PopulationSpecs,
        batch_size: int = 32,
        optimizer_factory: Optional[Callable[[list], Optimizer]] = None,
        lr_schedule: Optional[LRSchedule] = None,
        network: Optional[NetworkModel] = None,
        failure_injector: Optional[FailureInjector] = None,
        seed: int = 0,
        wire: WireSpec = None,
        test_set: Optional[Dataset] = None,
    ) -> None:
        super().__init__(
            model_factory, train_set, test_set, batch_size, optimizer_factory,
            lr_schedule, network, failure_injector, seed, wire,
        )
        self.specs = specs
        self.availability = specs.availability
        # O(population) *vector* state — 8 bytes per device, the only
        # thing here that scales with the population.
        self.versions = np.zeros(specs.size, dtype=np.int64)
        # Persistent state of released participants, keyed by device id:
        # O(devices that ever participated), not O(population).
        self._ledger: Dict[int, dict] = {}
        self._blocks: Dict[int, ArenaBlock] = {}

    evaluate_params = DeviceSubstrate.evaluate_params

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self.specs.size

    def available_ids(self, time: float) -> np.ndarray:
        """Device ids reachable at ``time``: availability model AND
        failure-injector liveness, both vectorised."""
        ids = self.specs.device_ids
        mask = self.availability.available_mask(ids, time)
        mask &= self.failures.alive_mask(ids, time)
        # An index gather: a boolean one costs ≈ 5x as much.
        return ids.take(np.flatnonzero(mask))

    # ------------------------------------------------------------------ #
    def materialise(self, device_id: int) -> Device:
        """Bring one device to life from a pool block, over the shard its
        *id* indexes.  A returning participant also restores its persisted
        training state, so its local trajectory continues where it left
        off."""
        device_id = int(device_id)
        existing = self._active.get(device_id)
        if existing is not None:
            return existing
        block = self.pool.acquire()
        spec = self.specs.device_spec(device_id)
        device = self._build_device(spec, self.specs.shards.shard(device_id), block)
        state = self._ledger.get(device_id)
        if state is not None:
            device.import_train_state(state["train"])
            for live, saved in zip(device.optimizer.flat_state(), state["opt"]):
                live[...] = saved
        self._blocks[device_id] = block
        return device

    def release(self, device_id: int) -> None:
        """Return a participant's block to the pool, persisting its state."""
        device_id = int(device_id)
        device = self._active.pop(device_id)
        block = self._blocks.pop(device_id)
        self.versions[device_id] = device.version
        self._ledger[device_id] = {
            "train": device.export_train_state(),
            "opt": [
                np.array(vec, copy=True) for vec in device.optimizer.flat_state()
            ],
        }
        self.pool.release(block)

    def release_all(self) -> None:
        for device_id in sorted(self._active):
            self.release(device_id)


def check_population_options(
    participants: int,
    round_window: float,
    selection_sigma: float,
    executor: Union[str, LocalExecutor, None],
    executor_workers: Optional[int],
    accounting: str,
    aggregation: str,
    async_buffer: Optional[int],
    local_steps: Optional[int],
    staleness_exponent: float,
) -> LocalExecutor:
    """Reject invalid :class:`PopulationTrainer` options; return its executor.

    The one check behind the trainer and
    :class:`~repro.experiments.population.PopulationConfig`, which drops
    the executor (building one starts no worker).
    """
    if participants < 1:
        raise ValueError(f"participants must be >= 1, got {participants}")
    if not round_window > 0:
        raise ValueError(f"round_window must be positive, got {round_window}")
    if not selection_sigma > 0:
        raise ValueError(
            f"selection_sigma must be positive, got {selection_sigma}"
        )
    resolved = make_executor(executor, executor_workers)
    if resolved.name == "process":
        raise ValueError(
            "the process executor ships a full device list and is not "
            "supported for virtual populations; use serial or fleet"
        )
    check_accounting(accounting)
    check_federation(aggregation, async_buffer, staleness_exponent)
    if local_steps is not None and local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    return resolved


class PopulationTrainer:
    """HADFL-style federated rounds over a virtual population.

    Each round: availability mask → Eq. 8 scoring over the population
    version array (vectorised) → Gumbel top-k draw of ``participants``
    devices → dense model dispatch → deadline-bounded local bursts →
    fault-tolerant ring sync among the participants → release back to
    the pool.  There is no broadcast to non-participants: a virtual
    device that sat a round out receives the *current* global model
    when next selected, which is what the dispatch models.

    Parameters
    ----------
    population:
        The :class:`VirtualPopulation` under training.
    participants:
        Devices selected per round (the ``N_p`` of Eq. 8).
    round_window:
        Virtual seconds of local training per round (the sync window).
    selection_sigma:
        Kernel width of Eq. 8, in spread units.
    executor:
        ``"serial"`` or ``"fleet"`` — the process backend needs a full
        device list and is not supported for populations.
    accounting:
        Accountant mode; defaults to ``"aggregate"`` (bounded memory).
    aggregation:
        ``"sync"`` (default, the full-window barrier — bitwise identical
        to the pre-event-driven trainer) or ``"buffered_async"``
        (FedBuff: keep ``participants`` bursts in flight, fold the first
        ``async_buffer`` completions with staleness-discounted weights).
    async_buffer:
        Buffer size K of ``"buffered_async"``; default
        ``max(1, participants // 2)``.
    local_steps:
        Per-burst step budget of ``"buffered_async"``; default is the
        number of steps the *fastest* power level fits in one window.
    staleness_exponent:
        Exponent a of the buffered-async discount ``(1 + τ)^(−a)``.
    """

    def __init__(
        self,
        population: VirtualPopulation,
        participants: int = 100,
        round_window: float = 1.0,
        selection_sigma: float = 1.0,
        seed: int = 0,
        executor: Union[str, LocalExecutor] = "serial",
        executor_workers: Optional[int] = None,
        accounting: str = "aggregate",
        aggregation: str = "sync",
        async_buffer: Optional[int] = None,
        local_steps: Optional[int] = None,
        staleness_exponent: float = 0.5,
    ) -> None:
        executor = check_population_options(
            participants,
            round_window,
            selection_sigma,
            executor,
            executor_workers,
            accounting,
            aggregation,
            async_buffer,
            local_steps,
            staleness_exponent,
        )
        self.population = population
        self.participants = int(participants)
        self.round_window = float(round_window)
        self.selection_sigma = float(selection_sigma)
        self.wire = population.wire
        self.network = population.network
        self.model_nbytes = population.model_nbytes
        self.sync = FaultTolerantRingSync(self.network, wire=self.wire)
        self.volume = CommVolumeAccountant(mode=accounting)
        self.sim = Simulator()
        self.executor = executor
        self.engine = RoundEngine(self.sim, self.executor)
        self.aggregation = aggregation
        self.async_buffer = (
            int(async_buffer)
            if async_buffer is not None
            else max(1, self.participants // 2)
        )
        self.staleness_exponent = float(staleness_exponent)
        # Default buffered-async step budget: what the fastest power
        # level fits into one window.
        if local_steps is not None:
            self.local_steps = int(local_steps)
        else:
            fastest = population.specs.base_step_time
            self.local_steps = max(1, int(self.round_window / fastest))
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed, 0x909])
        )
        self._global_params = np.array(population.initial_params, copy=True)
        self._samples_consumed = 0
        self._previous_participants: Optional[set] = None
        # Buffered-async in-flight bookkeeping: the dispatch payload each
        # running burst started from (its delta/staleness reference) and
        # the aggregation epoch at dispatch time.
        self._aggregation_epoch = 0
        self._inflight_meta: Dict[int, dict] = {}
        self._last_fold_epoch: Dict[int, int] = {}

    def close(self) -> None:
        """Release executor workers (idempotent)."""
        self.executor.close()

    @property
    def global_params(self) -> np.ndarray:
        return self._global_params

    def global_epoch(self) -> float:
        """Aggregate data passes over the whole population."""
        return self._samples_consumed / self.population.total_train_samples

    # ------------------------------------------------------------------ #
    def run(
        self,
        num_rounds: int,
        eval_every: int = 0,
    ) -> RunResult:
        """Train for ``num_rounds`` rounds.

        ``eval_every > 0`` evaluates the global model on the test set
        every that many rounds (instrumentation only — needs the
        population to carry a test set).
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        population = self.population
        result = RunResult(
            scheme="population_hadfl",
            config={
                "population": population.size,
                "participants": self.participants,
                "round_window": self.round_window,
                "model_nbytes": self.model_nbytes,
                "wire_dtype": self.wire.name,
                "accounting_mode": self.volume.mode,
                "aggregation": self.aggregation,
            },
        )
        for round_index in range(num_rounds):
            evaluate = bool(
                eval_every
                and population.test_set is not None
                and round_index % eval_every == 0
            )
            result.append(self._run_round(round_index, evaluate))
        if self._inflight_meta:
            # Buffered-async teardown: stragglers still in flight release
            # back through the ledger (their arrivals become inert).
            self.engine.discard_in_flight(list(self._inflight_meta))
            self._inflight_meta.clear()
            population.release_all()
        if (
            result.rounds
            and population.test_set is not None
            and result.rounds[-1].test_accuracy is None
        ):
            loss, acc = population.evaluate_params(self._global_params)
            result.rounds[-1].test_loss = loss
            result.rounds[-1].test_accuracy = acc
        result.config["accounting"] = self.volume.snapshot()
        result.config["pool"] = self.population.pool.stats()
        return result

    # ------------------------------------------------------------------ #
    def _select(
        self, available: np.ndarray, count: Optional[int] = None
    ) -> np.ndarray:
        """Eq. 8 over the availables' versions, Gumbel top-k draw."""
        count = min(
            self.participants if count is None else count, int(available.size)
        )
        values = self.population.versions[available].astype(float)
        picked = sample_participants(
            values, count, self._rng, sigma=self.selection_sigma
        )
        return available[picked]

    def _skipped_record(self, round_index: int, available_fraction: float = 0.0) -> RoundRecord:
        return RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=self.global_epoch(),
            train_loss=float("nan"),
            detail={"skipped": True, "available_fraction": available_fraction},
        )

    def _run_round(self, round_index: int, evaluate: bool) -> RoundRecord:
        if self.aggregation == "buffered_async":
            return self._run_async_round(round_index, evaluate)
        return self._run_window_round(round_index, evaluate)

    def _dispatch(
        self, device_ids: List[int], t_start: float
    ) -> Tuple[np.ndarray, float, int, float]:
        """Dense dispatch of the current global model to ``device_ids``
        (no shared delta reference exists across rounds of a churning
        cohort, so the dispatch is priced full-width).

        Returns the payload the devices now hold, its cast error, the
        bytes each device received and the time their training starts.
        """
        payload, error = self.wire.transmit_with_error(self._global_params)
        nbytes = self.wire.dense_nbytes(int(self._global_params.size))
        for device_id in device_ids:
            self.population.materialise(device_id).set_params(payload)
            self.volume.record(t_start, nbytes, "participant_dispatch", dst=device_id)
        t_train = t_start + self.network.sequential_sends_time(
            self.model_nbytes, len(device_ids)
        )
        return payload, error, nbytes, t_train

    def _release(self, device_ids: List[int]) -> Dict[int, int]:
        """Return devices to the pool (state persists through the
        ledger); their final versions go on the round record."""
        versions: Dict[int, int] = {}
        for device_id in device_ids:
            versions[device_id] = self.population.device_by_id(device_id).version
            self.population.release(device_id)
            self._inflight_meta.pop(device_id, None)
        return versions

    def _finish_round(
        self,
        round_index: int,
        evaluate: bool,
        *,
        losses: List[float],
        elapsed: List[float],
        selected: List[int],
        versions: Dict[int, int],
        bytes_before: int,
        bypasses: int = 0,
        staleness: Iterable[float],
        sync_failed: bool,
        **detail: Any,
    ) -> RoundRecord:
        """Build the round's record (``elapsed`` feeds the straggler
        percentiles, ``detail`` the mode's telemetry) and evaluate."""
        p50, p90, p99 = (
            float(np.percentile(elapsed, q)) if elapsed else 0.0 for q in (50, 90, 99)
        )
        record = RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=self.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            selected=list(selected),
            versions=versions,
            comm_bytes=self.volume.total_bytes - bytes_before,
            bypasses=bypasses,
            detail={
                "straggler": {"p50": p50, "p90": p90, "p99": p99},
                "pool": self.population.pool.stats(),
                "bypasses": bypasses,
                "buffered": self.aggregation == "buffered_async",
                **detail,
                **staleness_stats(staleness),
                **({"sync_failed": True} if sync_failed else {}),
            },
        )
        if evaluate:
            loss, acc = self.population.evaluate_params(self._global_params)
            record.test_loss = loss
            record.test_accuracy = acc
        return record

    def _run_window_round(self, round_index: int, evaluate: bool) -> RoundRecord:
        population = self.population
        t_start = self.sim.now

        available = population.available_ids(t_start)
        available_fraction = available.size / population.size
        if available.size == 0:
            # Nobody reachable: idle through the window and try again.
            self.sim.advance_to(t_start + self.round_window)
            return self._skipped_record(round_index)

        selected = self._select(available)
        participant_list = [int(d) for d in selected]
        participant_set = set(participant_list)

        # Churn: fraction of this round's cohort that did not serve last
        # round (1.0 for the first round — everyone is new).
        if self._previous_participants is None:
            churn = 1.0
        else:
            fresh = len(participant_set - self._previous_participants)
            churn = fresh / len(participant_set)
        self._previous_participants = participant_set

        bytes_before = self.volume.total_bytes
        received_before = self.volume.bytes_received_by_device()
        payload, dispatch_error, _, t_train = self._dispatch(
            participant_list, t_start
        )

        # Deadline-bounded local bursts: each participant fits as many
        # steps as its power allows into the window, stopping early if
        # its crash schedule takes it down.
        deadline = t_train + self.round_window
        bursts = self.engine.launch(
            population,
            [
                LocalTrainTask(
                    device_id=device_id,
                    deadline=min(
                        deadline,
                        population.failures.next_down_time(device_id, t_train),
                    ),
                    start_time=t_train,
                )
                for device_id in participant_list
            ],
        )
        losses: List[float] = []
        elapsed: List[float] = []
        for device_id in participant_list:
            burst = bursts[device_id]
            losses.extend(burst.losses)
            elapsed.append(burst.elapsed)
            self._samples_consumed += burst.steps * population.batch_size

        # Ring sync among the participants at the cut — the deadline
        # (the arrival events are bookkeeping: the clock lands exactly
        # on the deadline, bitwise identical to the old barrier).  The
        # dispatched payload is the cohort's shared delta reference —
        # every participant just received it.
        arrivals = self.engine.collect(deadline=deadline)
        ring_order = list(participant_list)
        if len(ring_order) > 1:
            self._rng.shuffle(ring_order)
        vectors = {
            device_id: population.device_by_id(device_id).get_params_view()
            for device_id in participant_list
        }
        fold_staleness = {
            device_id: max(
                0,
                self._aggregation_epoch
                - self._last_fold_epoch.get(device_id, 0),
            )
            for device_id in participant_list
        }
        sync_result = self.sync.run(
            self.sim,
            ring_order,
            vectors,
            lambda d, t: population.failures.is_alive(d, t),
            self.model_nbytes,
            reference=payload,
        )
        self.volume.record(self.sim.now, sync_result.bytes_sent, "partial_sync")
        sync_failed = sync_result.aggregated is None
        if not sync_failed:
            self._global_params = sync_result.aggregated
            self._aggregation_epoch += 1
            for device_id in sync_result.survivors:
                self._last_fold_epoch[device_id] = self._aggregation_epoch

        # Hotspot: the largest received-bytes delta any participant saw
        # this round (dispatch plus any dst-tagged sync traffic).
        received_after = self.volume.bytes_received_by_device()
        hotspot_bytes = max(
            received_after.get(d, 0) - received_before.get(d, 0)
            for d in participant_list
        )
        versions = self._release(participant_list)
        return self._finish_round(
            round_index,
            evaluate,
            losses=losses,
            elapsed=elapsed,
            selected=participant_list,
            versions=versions,
            bytes_before=bytes_before,
            bypasses=len(sync_result.bypasses),
            staleness=fold_staleness.values(),
            sync_failed=sync_failed,
            churn=churn,
            hotspot_bytes=int(hotspot_bytes),
            available_fraction=float(available_fraction),
            wire_cast_error=max(dispatch_error, sync_result.max_cast_error),
            retries=sync_result.retries,
            dropped_messages=sync_result.dropped_messages,
            arrivals=len(arrivals),
        )

    # ------------------------------------------------------------------ #
    def _run_async_round(self, round_index: int, evaluate: bool) -> RoundRecord:
        """Buffered-async (FedBuff-style) round over the population.

        The trainer keeps up to ``participants`` bursts in flight: each
        round refills the fleet from the available non-flying devices
        (same Eq. 8 + Gumbel top-k draw over the version array),
        dispatches the current global model to the newcomers, and cuts
        at the first ``async_buffer`` burst *completions*.  Each folded
        contribution uploads across the wire (delta against its own
        dispatch payload — charged as ``"async_upload"``) and the
        buffer aggregates with staleness-discounted weights
        ``(1 + τ)^(−a)``, τ counted in aggregation epochs since the
        contribution's dispatch — the population-scale staleness prior
        the version array feeds through selection.  Stragglers keep
        flying across the cut; crash-truncated arrivals release their
        state to the ledger without folding.
        """
        population = self.population
        t_start = self.sim.now
        in_flight = sorted(self._inflight_meta)
        refill = self.participants - len(in_flight)

        available = population.available_ids(t_start)
        available_fraction = available.size / population.size
        if in_flight:
            # ``available`` is sorted: drop the flying ids by position.
            flying = np.asarray(in_flight, dtype=available.dtype)
            at = np.searchsorted(available, flying)
            hit = at < available.size
            hit[hit] = available[at[hit]] == flying[hit]
            available = np.delete(available, at[hit])
        new_ids: List[int] = []
        if refill > 0 and available.size:
            new_ids = [int(d) for d in self._select(available, count=refill)]
        if not new_ids and not in_flight:
            # Nobody reachable and nothing flying: idle one window.
            self.sim.advance_to(t_start + self.round_window)
            return self._skipped_record(round_index, float(available_fraction))

        bytes_before = self.volume.total_bytes
        wire_cast_error = 0.0
        dispatch_nbytes = 0
        if new_ids:
            payload, wire_cast_error, dispatch_nbytes, t_train = self._dispatch(
                new_ids, t_start
            )
            for device_id in new_ids:
                self._inflight_meta[device_id] = {
                    "payload": payload,
                    "epoch": self._aggregation_epoch,
                }
            self.engine.launch(
                population,
                [
                    LocalTrainTask(
                        device_id=device_id,
                        deadline=population.failures.next_down_time(
                            device_id, t_train
                        ),
                        start_time=t_train,
                        max_steps=self.local_steps,
                    )
                    for device_id in new_ids
                ],
            )

        arrivals = self.engine.collect(count=self.async_buffer)
        now = self.sim.now
        for arrival in arrivals:
            self._samples_consumed += arrival.steps * population.batch_size

        # The buffer: completed arrivals upload and fold.  A device that
        # crashed *after* completing still folds — its upload left at
        # completion time; crash-truncated bursts never upload.
        completed = [a for a in arrivals if a.completed]
        folded_ids: List[int] = []
        uploads: List[np.ndarray] = []
        taus: List[int] = []
        for arrival in completed:
            meta = self._inflight_meta[arrival.device_id]
            device = population.device_by_id(arrival.device_id)
            recon, err = self.wire.transmit_delta_with_error(
                device.get_params_view(), meta["payload"]
            )
            wire_cast_error = max(wire_cast_error, err)
            self.volume.record(
                now, self.model_nbytes, "async_upload", src=arrival.device_id
            )
            folded_ids.append(arrival.device_id)
            uploads.append(recon)
            taus.append(max(0, self._aggregation_epoch - meta["epoch"]))
        if folded_ids:
            # The cut's closing upload is the only transfer still on the
            # critical path — earlier uploads landed as they arrived.
            self.sim.advance_to(
                now + self.network.sequential_sends_time(self.model_nbytes, 1)
            )
            weights = staleness_weights(taus, self.staleness_exponent)
            aggregate = np.zeros_like(self._global_params)
            for weight, upload in zip(weights, uploads):
                aggregate += weight * upload
            self._global_params = aggregate
            self._aggregation_epoch += 1
            for device_id in folded_ids:
                self._last_fold_epoch[device_id] = self._aggregation_epoch

        fold_set = set(folded_ids)
        if self._previous_participants is None:
            churn = 1.0
        elif fold_set:
            churn = len(fold_set - self._previous_participants) / len(fold_set)
        else:
            churn = 0.0
        if fold_set:
            self._previous_participants = fold_set

        versions = self._release([a.device_id for a in arrivals])
        return self._finish_round(
            round_index,
            evaluate,
            losses=[loss for a in arrivals for loss in a.losses],
            elapsed=[a.elapsed for a in arrivals],
            selected=folded_ids,
            versions=versions,
            bytes_before=bytes_before,
            staleness=taus,
            sync_failed=not folded_ids,
            churn=churn,
            hotspot_bytes=int(dispatch_nbytes),
            available_fraction=float(available_fraction),
            wire_cast_error=wire_cast_error,
            retries=0,
            dropped_messages=0,
            arrivals=len(arrivals),
            dropped_arrivals=len(arrivals) - len(completed),
            in_flight=len(self._inflight_meta),
        )


__all__ = [
    "PopulationSpecs",
    "PopulationTrainer",
    "VirtualPopulation",
]
