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
  device in a recycled :class:`~repro.sim.cluster.ArenaPool` block's
  device shell (a recycled block's occupant is bitwise a fresh one —
  ``tests/test_population.py``).
  Participants are stateless across releases but for their version: a
  returning device starts from the dispatched model with fresh
  optimizer state, its batch order and RNG streams seeded by its id and
  version.
* :class:`PopulationTrainer` — HADFL-style rounds over the virtual
  population: availability mask → vectorised Eq. 8 scoring over the
  version array → Gumbel top-k participant draw → dense dispatch →
  deadline-bounded local bursts → fault-tolerant ring sync.  Resident
  arenas and the per-round transcendentals scale with *participants*
  (plus the devices that ever trained); only O(population) vector state
  (versions and one availability draw — ids stay implicit) scales with
  the population (size law in :class:`VirtualPopulation`).

Per-round churn, straggler tail percentiles and hotspot received-bytes
land in ``RoundRecord.detail``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.params import ParamArena
from repro.comm.wire import WireSpec
from repro.core.selection import sample_participants
from repro.data.dataset import Dataset
from repro.data.partition import SampledShardSpec, ShardSpec
from repro.metrics.records import RoundRecord, RunResult
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.optim.lr_schedules import LRSchedule
from repro.sim.cluster import DeviceSubstrate
from repro.sim.device import Device, DeviceSpec
from repro.sim.executor import LocalExecutor, make_executor
from repro.sim.rounds import (
    Federation,
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

    def power(self, device_id: int) -> float:
        """Device ``device_id``'s relative compute power."""
        return float(self.power_levels[device_id % self.power_levels.size])

    def device_spec(self, device_id: int) -> DeviceSpec:
        """The full :class:`DeviceSpec` of one device, built on demand."""
        if not 0 <= device_id < self.size:
            raise IndexError(
                f"device {device_id} out of range for population of {self.size}"
            )
        return DeviceSpec(
            device_id=int(device_id),
            power=self.power(device_id),
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
    is bitwise the cluster device with the same id.  A pool block keeps
    its device shell and batched modules across occupants: a
    participation costs a rebind, one row write and a release reset, not
    a device build.  On top: the population-wide version array — the
    Eq. 8 input, and all a release keeps of a device.  A returning device
    resumes its version (hence its LR-schedule position), its optimizer
    state fresh and its batch order and RNG streams seeded by its id and
    version.

    Memory: the pool's blocks (bounded by concurrent participants) and
    12 B per device of vector state — the ``int32`` versions here and the
    diurnal model's hashed fp64 level; ids are implicit (a mask's position
    is its id) — O(pool), not O(distinct participants).  A round adds
    O(available) temporaries that die before its bursts run
    (``tests/test_population.py`` gates both).
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_set: Dataset,
        specs: PopulationSpecs,
        batch_size: int = 32,
        optimizer_factory: Optional[Callable[[ParamArena], Optimizer]] = None,
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
        # O(population) *vector* state — 4 bytes per device, the only
        # per-device state that survives a release (an out-of-range
        # version raises ``OverflowError`` on assignment).
        self.versions = np.zeros(specs.size, dtype=np.int32)

    evaluate_params = DeviceSubstrate.evaluate_params

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self.specs.size

    def available_ids(self, time: float) -> np.ndarray:
        """Device ids reachable at ``time``: the availability model's
        mask with the failure injector's down devices cleared in place
        (a mask's position is its device id)."""
        mask = self.availability.population_mask(self.size, time)
        self.failures.clear_down(mask, time)
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------ #
    def materialise(
        self, device_id: int, params: Optional[np.ndarray] = None
    ) -> Device:
        """Bring one device to life in a pool block's shell, over the shard
        its *id* indexes, from ``params`` (default: the initial payload) —
        its row's one write.  A returning participant keeps only its
        version: it starts from the block's fresh optimizer state, on
        batch order and RNG streams seeded by its id and that version.
        An active device only takes ``params``, if given."""
        device_id = int(device_id)
        device = self._active.get(device_id)
        if device is None:
            device = self._build_device(
                self.specs.device_spec(device_id), self.specs.shards.shard(device_id),
                self.pool.acquire(), int(self.versions[device_id]),
            )
            if params is None:
                params = self._initial_payload
        if params is not None:
            device.set_params(params)
        return device

    def release(self, device_id: int) -> None:
        """Record a participant's version and return its block to the pool."""
        device_id = int(device_id)
        self.versions[device_id] = self._active.pop(device_id).version
        self.pool.release(self._blocks.pop(device_id))

    def release_all(self) -> None:
        for device_id in sorted(self._active):
            self.release(device_id)


#: Accepted names of the ``accounting`` knob.  Both keep the same books
#: (the accountant's per-kind byte totals).
ACCOUNTING_MODES = ("exact", "aggregate")


def check_inert_knobs(executor_workers: Optional[int], accounting: str) -> None:
    """The one check of the two knobs that change nothing.

    ``executor_workers`` is ``None`` or ``>= 1``; ``accounting`` is a name
    in :data:`ACCOUNTING_MODES`.  Both are accepted only where the frozen
    surface names them (``tests/test_frozen_surface.py``): the fields of
    the two experiment configs, the CLI's ``--workers`` / ``--accounting``
    and the :class:`PopulationTrainer` keywords.  Neither reaches the
    executor, the cluster or the byte accountant.
    """
    if executor_workers is not None and executor_workers < 1:
        raise ValueError(f"workers must be >= 1, got {executor_workers}")
    if accounting not in ACCOUNTING_MODES:
        raise ValueError(
            f"unknown accounting mode {accounting!r}; choose from {ACCOUNTING_MODES}"
        )


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
    the executor.
    """
    if participants < 1:
        raise ValueError(f"participants must be >= 1, got {participants}")
    if not round_window > 0:
        raise ValueError(f"round_window must be positive, got {round_window}")
    if not selection_sigma > 0:
        raise ValueError(
            f"selection_sigma must be positive, got {selection_sigma}"
        )
    resolved = make_executor(executor)
    check_inert_knobs(executor_workers, accounting)
    check_federation(aggregation, async_buffer, staleness_exponent)
    if local_steps is not None and local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    return resolved


class PopulationTrainer(Federation):
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
        ``"serial"`` (or its second name ``"fleet"``) or a
        :class:`~repro.sim.executor.LocalExecutor` instance: the
        in-process executor trains each burst's run of participants as
        one batched loop over their pool rows.
    executor_workers, accounting:
        Accepted because the frozen e2e harness passes them, checked by
        :func:`check_inert_knobs` and otherwise without effect:
        ``executor_workers`` is ``None`` or ``>= 1`` and is not kept;
        ``accounting`` is ``"aggregate"`` (default) or ``"exact"``, both
        keeping the accountant's per-kind totals, and the result's
        ``accounting_mode`` reports the name given.
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
        super().__init__(population, executor)
        self.population = population
        self.accounting = accounting
        self.participants = int(participants)
        # At most ``participants`` devices are materialised at once.
        population.pool.reserve(self.participants)
        self.round_window = float(round_window)
        self.selection_sigma = float(selection_sigma)
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
        self._samples_consumed = 0
        self._previous_participants: Optional[set] = None

    def global_epoch(self) -> float:
        """Aggregate data passes over the whole population."""
        return self._samples_consumed / self.population.total_train_samples

    # ------------------------------------------------------------------ #
    def run(
        self,
        num_rounds: int,
        eval_every: int = 0,
    ) -> RunResult:
        """Train for ``num_rounds`` rounds, evaluating the global model
        every ``eval_every`` rounds (0: the final round only) when the
        population carries a test set."""
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        population = self.population
        result = RunResult(
            scheme="population_hadfl",
            config={
                "population": population.size,
                "participants": self.participants,
                "round_window": self.round_window,
                "accounting_mode": self.accounting,
                "aggregation": self.aggregation,
            },
        )
        self._run_rounds(result, lambda i: i < num_rounds, eval_every)
        # Buffered-async teardown: stragglers still in flight release
        # their blocks (their arrivals become inert).
        self.engine.discard_in_flight(self.engine.in_flight)
        population.release_all()
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

    def _run_round(self, round_index: int) -> RoundRecord:
        if self.aggregation == "buffered_async":
            return self._run_async_round(round_index)
        return self._run_window_round(round_index)

    def _dispatch(
        self, device_ids: List[int], t_start: float
    ) -> Tuple[np.ndarray, float, int, float]:
        """Dense dispatch of the current global model to ``device_ids``
        (no shared delta reference exists across rounds of a churning
        cohort, so the dispatch is priced full-width).

        Devices materialise strongest first (stable): they take the
        lowest free pool rows in the descending-steps order the
        in-process executor stacks them in, so its bursts need no
        arrange step.

        Returns the payload the devices now hold, its cast error, the
        bytes each device received and the time their training starts.
        """
        payload, error = self.wire.transmit_with_error(self._global_params)
        nbytes = self.wire.dense_nbytes(int(self._global_params.size))
        specs = self.population.specs
        for device_id in sorted(device_ids, key=lambda d: -specs.power(d)):
            self.population.materialise(device_id, payload)
        for device_id in device_ids:
            self.volume.record(t_start, nbytes, "participant_dispatch", dst=device_id)
        t_train = t_start + self.network.sequential_sends_time(
            self.model_nbytes, len(device_ids)
        )
        return payload, error, nbytes, t_train

    def _release(self, device_ids: List[int]) -> Dict[int, int]:
        """Return devices to the pool (their versions persist); the
        final versions go on the round record."""
        versions: Dict[int, int] = {}
        for device_id in device_ids:
            versions[device_id] = self.population.device_by_id(device_id).version
            self.population.release(device_id)
        return versions

    def _churn(self, cohort: set) -> float:
        """Fraction of ``cohort`` that did not serve in the last non-empty
        cohort: 1.0 until one has served, 0.0 for an empty cohort."""
        previous = self._previous_participants
        if cohort:
            self._previous_participants = cohort
        if previous is None:
            return 1.0
        return len(cohort - previous) / len(cohort) if cohort else 0.0

    def _finish_round(
        self,
        round_index: int,
        bytes_before: int,
        losses: List[float],
        *,
        elapsed: List[float],
        selected: List[int],
        versions: Dict[int, int],
        bypasses: int = 0,
        staleness: Iterable[float],
        sync_failed: bool,
        **detail: Any,
    ) -> RoundRecord:
        """The round's record: ``elapsed`` feeds the straggler
        percentiles, ``detail`` carries the mode's telemetry."""
        p50, p90, p99 = (
            float(np.percentile(elapsed, q)) if elapsed else 0.0 for q in (50, 90, 99)
        )
        return self._record(
            round_index,
            bytes_before,
            losses,
            selected=selected,
            versions=versions,
            straggler={"p50": p50, "p90": p90, "p99": p99},
            pool=self.population.pool.stats(),
            bypasses=bypasses,
            buffered=self.aggregation == "buffered_async",
            **detail,
            **staleness_stats(staleness),
            **({"sync_failed": True} if sync_failed else {}),
        )

    def _run_window_round(self, round_index: int) -> RoundRecord:
        population = self.population
        t_start = self.sim.now

        available = population.available_ids(t_start)
        available_fraction = available.size / population.size
        if available.size == 0:
            # Nobody reachable: idle through the window and try again.
            return self._idle(
                round_index, t_start + self.round_window, available_fraction=0.0
            )

        selected = self._select(available)
        del available  # O(population): gone before the bursts run
        participant_list = [int(d) for d in selected]
        churn = self._churn(set(participant_list))

        bytes_before = self.volume.total_bytes
        payload, dispatch_error, dispatch_nbytes, t_train = self._dispatch(
            participant_list, t_start
        )

        # Deadline-bounded local bursts: each participant fits as many
        # steps as its power allows into the window, stopping early if
        # its crash schedule takes it down.
        deadline = t_train + self.round_window
        bursts = self._launch(participant_list, t_train, deadline)
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
        fold_staleness = self._staleness(participant_list)
        sync_result = self._ring_fold(ring_order, vectors, payload)

        versions = self._release(participant_list)
        return self._finish_round(
            round_index,
            bytes_before,
            losses,
            elapsed=elapsed,
            selected=participant_list,
            versions=versions,
            bypasses=len(sync_result.bypasses),
            staleness=fold_staleness.values(),
            sync_failed=sync_result.aggregated is None,
            churn=churn,
            # Hotspot: the most bytes any participant received this round.
            # Its dispatch is the only transfer addressed to it (the ring's
            # partial_sync names no receiver), the same for every one.
            hotspot_bytes=int(dispatch_nbytes),
            available_fraction=float(available_fraction),
            wire_cast_error=max(dispatch_error, sync_result.max_cast_error),
            retries=sync_result.retries,
            dropped_messages=sync_result.dropped_messages,
            arrivals=len(arrivals),
        )

    # ------------------------------------------------------------------ #
    def _run_async_round(self, round_index: int) -> RoundRecord:
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
        flying across the cut; crash-truncated arrivals release
        without folding.
        """
        population = self.population
        t_start = self.sim.now
        in_flight = sorted(self.engine.in_flight)
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
        del available  # O(population): gone before the bursts launch
        if not new_ids and not in_flight:
            # Nobody reachable and nothing flying: idle one window.
            return self._idle(
                round_index,
                t_start + self.round_window,
                available_fraction=float(available_fraction),
            )

        bytes_before = self.volume.total_bytes
        wire_cast_error = 0.0
        dispatch_nbytes = 0
        if new_ids:
            payload, wire_cast_error, dispatch_nbytes, t_train = self._dispatch(
                new_ids, t_start
            )
            self._launch(
                new_ids,
                t_train,
                max_steps=dict.fromkeys(new_ids, self.local_steps),
                payload=payload,
            )

        arrivals = self.engine.collect(count=self.async_buffer)
        now = self.sim.now
        for arrival in arrivals:
            self._samples_consumed += arrival.steps * population.batch_size

        # The buffer: completed arrivals upload and fold.  A device that
        # crashed *after* completing still folds — its upload left at
        # completion time; crash-truncated bursts never upload.  Each
        # reconstruction is weighted into the aggregate as it crosses
        # the wire (the weights read only launch epochs), so the round
        # holds one upload, not the buffer.  ``recon`` is never written:
        # a lossless wire returns the sender's own params view.
        completed = [a for a in arrivals if a.completed]
        folded_ids = [a.device_id for a in completed]
        taus = list(
            self._staleness(
                folded_ids, since={a.device_id: a.meta["epoch"] for a in completed}
            ).values()
        )
        weights = staleness_weights(taus, self.staleness_exponent)
        aggregate = np.zeros_like(self._global_params)
        scaled = np.empty_like(aggregate)
        for arrival, weight in zip(completed, weights):
            device = population.device_by_id(arrival.device_id)
            recon, err = self.wire.transmit_delta_with_error(
                device.get_params_view(), arrival.meta["payload"]
            )
            wire_cast_error = max(wire_cast_error, err)
            self.volume.record(
                now, self.model_nbytes, "async_upload", src=arrival.device_id
            )
            aggregate += np.multiply(weight, recon, out=scaled)
        if folded_ids:
            # The cut's closing upload is the only transfer still on the
            # critical path — earlier uploads landed as they arrived, and
            # stragglers due during it fire into the engine's buffer.
            self.sim.run(
                until=now + self.network.sequential_sends_time(self.model_nbytes, 1)
            )
            self._note_fold(aggregate, folded_ids)

        churn = self._churn(set(folded_ids))
        versions = self._release([a.device_id for a in arrivals])
        return self._finish_round(
            round_index,
            bytes_before,
            [loss for a in arrivals for loss in a.losses],
            elapsed=[a.elapsed for a in arrivals],
            selected=folded_ids,
            versions=versions,
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
            in_flight=len(self.engine.in_flight),
        )


__all__ = [
    "PopulationSpecs",
    "PopulationTrainer",
    "VirtualPopulation",
]
