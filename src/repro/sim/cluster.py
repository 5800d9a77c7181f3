"""The device substrate: devices, the evaluation replica and the initial
dispatch, built in one place (:class:`DeviceSubstrate`) from recycled
replica blocks (:class:`ArenaPool`).

:class:`SimulatedCluster` is the substrate every scheme (HADFL and both
baselines) trains on — every device acquired at construction, never
released — so comparisons are apples-to-apples: same initial model, same
shards, same network, same failure schedule; only the coordination
strategy differs, exactly as in the paper's evaluation.
:class:`~repro.sim.population.VirtualPopulation` acquires on selection.
"""

from __future__ import annotations

import heapq
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.params import ParamArena
from repro.comm.wire import WireFormat, WireSpec, get_wire_format
from repro.data.dataset import Dataset, Subset
from repro.data.loader import BatchCycler
from repro.data.partition import (
    DirichletShardSpec,
    ExplicitShardSpec,
    IIDShardSpec,
    ShardSpec,
)
from repro.nn.fleet import FleetModule
from repro.nn.losses import CrossEntropyLoss, evaluate
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.optim.lr_schedules import LRSchedule
from repro.optim.sgd import SGD
from repro.sim.device import (
    Device,
    DeviceSpec,
    LocalTrainResult,
    LocalTrainTask,
    forward_rngs,
)
from repro.sim.executor import LocalExecutor, make_executor
from repro.sim.failures import FailureInjector, SlowdownDrift
from repro.sim.linkfaults import LinkFaultModel, RetryPolicy
from repro.sim.network import NetworkModel, align_network_granularity


class ArenaBlock:
    """One recyclable participant slot: model + arena + optimizer (and
    ``device``, the shell its occupants take turns in), resident on row
    ``row`` of its :class:`ArenaPool`'s slabs.

    The optimizer is built on the arena, so the three objects travel
    together for the block's whole life — a device built on the block
    *borrows* them (:class:`~repro.sim.device.Device` takes the arena
    from the optimizer), never rebuilds them.  ``module_rngs`` are the
    per-layer generators that draw at forward time (e.g. Dropout), found
    once per block: every device the block serves shares the list.
    """

    def __init__(self, model: Module, optimizer: Optimizer, row: int) -> None:
        self.model = model
        self.arena = optimizer.arena
        self.optimizer = optimizer
        self.row = row
        self.device: Optional[Device] = None
        self.initial_scalars = dict(optimizer.scalar_state())
        self.module_rngs = forward_rngs(model)
        self.initial_module_rng_states = [
            rng.bit_generator.state for rng in self.module_rngs
        ]


class ArenaPool:
    """Pool of reset-on-release replica blocks on resident slabs.

    The pool owns two slabs — parameters ``(capacity, n)`` and gradients
    ``(capacity, p)`` — and every block's arena is bound to one row of
    them once, when the block is built.  Consecutive rows therefore
    already *are* a stacked fleet matrix (:meth:`DeviceSubstrate.stack`).
    :meth:`reserve` sizes the slabs before the first build (substrates
    know their capacity: a cluster's device count, a population's
    participants); a pool that outgrows them doubles and rebinds every
    block onto the new rows.

    ``acquire`` hands out the lowest free row (building its block on
    first use — every build uses ``model_factory(default_rng(seed))``,
    the construction the evaluation replica gets too, so all blocks are
    identical).  ``release`` resets, **bitwise**, what the next occupant
    reads before its first step: optimizer flat vectors and scalars,
    module RNG streams; its start-vector write (``materialise``) covers
    the parameters.  The gradient vector keeps the last occupant's
    values until the next occupant's first step overwrites them — on
    the batched path by that step's own gradient writes, which cover
    every element of the row; per device by its ``zero_grad`` fill —
    so from that step on it is bitwise a fresh block's.
    A population's pool holds
    O(max concurrent participants) blocks, never O(population).  Blocks
    train one after another (every backend steps one device at a time
    per process), so their optimizers share the pool's work vectors
    (:meth:`~repro.optim.base.Optimizer.share_scratch`).
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        optimizer_factory: Callable[[ParamArena], Optimizer],
        template: np.ndarray,
        seed: int = 0,
    ) -> None:
        self._model_factory = model_factory
        self._optimizer_factory = optimizer_factory
        self._template = np.array(template, copy=True)
        self._seed = int(seed)
        self._blocks: List[ArenaBlock] = []
        self._free: List[int] = []  # min-heap of free rows
        self._scratch: List[np.ndarray] = []
        self._capacity = 0
        self.params: Optional[np.ndarray] = None
        self.grads: Optional[np.ndarray] = None
        # Batched modules over runs of rows, keyed (first row, rows)
        # (:meth:`DeviceSubstrate.fleet`): views of the current slabs and
        # the rows' block models, so only a regrowth drops them.
        self.fleets: Dict[Tuple[int, int], FleetModule] = {}
        self.created = 0
        self.in_use = 0
        self.recycled = 0
        self.max_resident = 0

    def reserve(self, capacity: int) -> None:
        """Size the slabs for ``capacity`` blocks when they are next
        allocated (before the first build: exactly)."""
        self._capacity = max(self._capacity, int(capacity))

    def acquire(self) -> ArenaBlock:
        """A clean block on the lowest free row: recycled when one is
        free, freshly built otherwise."""
        if self._free:
            block = self._blocks[heapq.heappop(self._free)]
            self.recycled += 1
        else:
            block = self._build(len(self._blocks))
            self._blocks.append(block)
            self.created += 1
        self.in_use += 1
        self.max_resident = max(self.max_resident, self.created)
        return block

    def _build(self, row: int) -> ArenaBlock:
        model = self._model_factory(np.random.default_rng(self._seed))
        arena = ParamArena(model)
        rows = 0 if self.params is None else self.params.shape[0]
        if row >= rows:
            self._capacity = max(self._capacity, row + 1, 2 * rows)
            self._allocate(arena.num_scalars, arena.param_scalars)
        arena.rebind_storage(self.params[row], self.grads[row])
        arena.write(self._template)
        optimizer = self._optimizer_factory(arena)
        optimizer.share_scratch(self._scratch)
        return ArenaBlock(model, optimizer, row)

    def _allocate(self, num_scalars: int, param_scalars: int) -> None:
        """(Re)allocate both slabs at ``_capacity`` rows; built blocks
        migrate onto their rows of the new ones."""
        rows = self._capacity
        self.fleets.clear()
        self.params = np.empty(rows * num_scalars).reshape(rows, num_scalars)
        self.grads = np.zeros(rows * param_scalars).reshape(rows, param_scalars)
        for block in self._blocks:
            block.arena.rebind_storage(self.params[block.row], self.grads[block.row])

    def release(self, block: ArenaBlock) -> None:
        """Reset what ``block``'s next occupant reads, and free its row."""
        for vec in block.optimizer.flat_state():
            vec[...] = 0.0
        block.optimizer.load_scalar_state(block.initial_scalars)
        for rng, state in zip(block.module_rngs, block.initial_module_rng_states):
            rng.bit_generator.state = state
        self.in_use -= 1
        heapq.heappush(self._free, block.row)

    def stats(self) -> Dict[str, int]:
        """Pool telemetry: blocks ever built, high-water mark, reuse count."""
        return {
            "created": self.created,
            "in_use": self.in_use,
            "recycled": self.recycled,
            "max_resident": self.max_resident,
        }


class DeviceSubstrate:
    """The state every substrate shares, and where its devices are built:
    wire and aligned network, evaluation replica, initial dispatch, the
    :class:`ArenaPool`.  :meth:`_build_device` is the only place a device
    is constructed, so a population's device is bitwise the cluster's
    device with the same id (``tests/property/test_property_substrate.py``).
    Every built device sits on a pool block for its whole life;
    :meth:`stack` hands the in-process executor a run of devices on
    consecutive slab rows as one matrix, :meth:`fleet` the batched
    module over it.

    Concrete substrates bind :meth:`evaluate_params` in their own class
    body — the e2e tracer patches it per class and skips inherited
    attributes — and neither subclasses the other.
    """

    #: Per-link faults and the retry policy every fold's messages cross;
    #: ``None``: perfectly reliable links (a cluster may set both).
    link_faults: Optional[LinkFaultModel] = None
    retry_policy: Optional[RetryPolicy] = None

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_set: Dataset,
        test_set: Optional[Dataset],
        batch_size: int,
        optimizer_factory: Optional[Callable[[ParamArena], Optimizer]],
        lr_schedule: Optional[LRSchedule],
        network: Optional[NetworkModel],
        failure_injector: Optional[FailureInjector],
        seed: int,
        wire: WireSpec,
    ) -> None:
        self.train_set = train_set
        self.test_set = test_set
        # The test set is fixed for the substrate's lifetime: gather it
        # once, not through ``Subset.features`` on every evaluation.
        self._test_arrays = (
            None if test_set is None else (test_set.features, test_set.labels)
        )
        self.batch_size = int(batch_size)
        self.lr_schedule = lr_schedule
        self.seed = int(seed)
        self.failures = failure_injector or FailureInjector()
        self.wire: WireFormat = get_wire_format(wire)
        network = network or NetworkModel(
            bytes_per_scalar=self.wire.bytes_per_scalar
        )
        self.network = align_network_granularity(network, self.wire)

        # Initial model: every device starts from identical weights
        # (HADFL workflow step "synchronize the initial models").  The
        # evaluation replica only runs forward passes, in eval mode: no
        # grad storage.
        self._eval_model = model_factory(np.random.default_rng(seed)).eval()
        self._eval_arena = ParamArena(self._eval_model, bind_grads=False)
        self.initial_params = self._eval_arena.snapshot()
        # Payload-aware: the quantiser's own size law, not width × scalars.
        self.model_nbytes = self.wire.payload_nbytes(self.initial_params)
        self._loss_fn = CrossEntropyLoss()
        # The initial dispatch crosses the wire too (identity on fp64).
        # Every replica starts from the initial vector, so it doubles as
        # the delta reference: sparsifying formats deliver it exactly.
        self._initial_payload, _ = self.wire.transmit_delta_with_error(
            self.initial_params, self.initial_params
        )
        self.pool = ArenaPool(
            model_factory,
            optimizer_factory or (lambda arena: SGD(arena, lr=0.01)),
            self._initial_payload,
            seed=self.seed,
        )
        self._active: Dict[int, Device] = {}
        self._blocks: Dict[int, ArenaBlock] = {}

    # ------------------------------------------------------------------ #
    def _build_device(
        self, spec: DeviceSpec, shard: np.ndarray, block: ArenaBlock, version: int = 0
    ) -> Device:
        """Device ``spec`` at ``version`` on ``block``'s replica over
        ``shard``.  Every random draw derives from the master seed, the
        device's *id* and (past 0) its version, never from how many
        devices were built before."""
        if self.failures.has_slowdowns():
            # A straggler computes slower but stays alive and
            # synchronising; with no windows the device keeps the
            # fixed-step-time fast path.
            spec = dc_replace(
                spec,
                power_drift=SlowdownDrift(
                    self.failures, spec.device_id, spec.power_drift
                ),
            )
        # Version 0 keeps the id-only seed: a first participation is
        # bitwise the cluster device with the same id.
        key = (version,) if version else ()
        device_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, spec.device_id], spawn_key=key)
        )
        # The cycler's permutation comes off ``device_rng`` before the
        # device's own seed does.  A recycled block rebinds its shell.
        shard_set = Subset(self.train_set, shard)
        device = block.device
        if device is None:
            cycler = BatchCycler(shard_set, self.batch_size, rng=device_rng)
            device = block.device = Device(
                spec, block.model, block.optimizer, cycler, self.lr_schedule,
                seed=int(device_rng.integers(0, 2**31 - 1)),
                module_rngs=block.module_rngs,
            )
        else:
            device.cycler._bind(shard_set, self.batch_size, device_rng)
            device._bind(spec, int(device_rng.integers(0, 2**31 - 1)))
        device.version = version
        self._active[spec.device_id] = device
        self._blocks[spec.device_id] = block
        return device

    def device_by_id(self, device_id: int) -> Device:
        """A built device — for a population, only current participants
        (executors resolve tasks through this)."""
        device = self._active.get(int(device_id))
        if device is None:
            raise KeyError(f"no device with id {device_id}")
        return device

    def row_of(self, device_id: int) -> int:
        """The pool slab row device ``device_id`` trains on."""
        return self._blocks[device_id].row

    def stack(self, devices: Sequence[Device]) -> Tuple[np.ndarray, np.ndarray]:
        """``devices``' slab rows as ``(params, grads)`` matrices — views of
        the pool's slabs, no copy.  The devices must sit on consecutive
        rows, in order; anything else is a ``ValueError``."""
        rows = [self._blocks[device.device_id].row for device in devices]
        start = rows[0]
        if rows != list(range(start, start + len(rows))):
            raise ValueError(f"a fleet stack needs consecutive slab rows, got {rows}")
        window = slice(start, start + len(rows))
        return self.pool.params[window], self.pool.grads[window]

    def fleet(self, devices: Sequence[Device]) -> FleetModule:
        """The batched module over ``devices``' run of slab rows: built on
        the run's first burst and kept on the pool across releases (a
        block keeps its model and row) until a slab regrowth."""
        params, grads = self.stack(devices)
        key = (self.row_of(devices[0].device_id), len(devices))
        module = self.pool.fleets.get(key)
        if module is None:
            module = self.pool.fleets[key] = FleetModule(
                [device.model for device in devices],
                params,
                devices[0].arena.layout(),
                grad_stack=grads,
            )
        return module

    @property
    def total_train_samples(self) -> int:
        return len(self.train_set)

    def evaluate_params(
        self, flat: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """Test-set (loss, accuracy) of a flat parameter vector.

        Loads the vector with one vectorized arena write.
        """
        if self._test_arrays is None:
            raise ValueError(f"{type(self).__name__} was built without a test set")
        self._eval_arena.write(flat)
        features, labels = self._test_arrays
        return evaluate(self._eval_model, self._loss_fn, features, labels, batch_size)


class SimulatedCluster(DeviceSubstrate):
    """A heterogeneous federated testbed with a shared evaluation model.

    Parameters
    ----------
    model_factory:
        ``rng -> Module`` builder; every device (and the evaluation
        replica) gets an architecture-identical instance.
    train_set / test_set:
        Global datasets; the train set is partitioned across devices.
    specs:
        One :class:`DeviceSpec` per device (the power-ratio array).
    batch_size:
        Per-device batch size (the paper: global 256 over 4 GPUs → 64).
    partition:
        ``"iid"`` (the paper's split) or ``"dirichlet"`` for the non-IID
        extension; a precomputed list of index arrays is also accepted.
    optimizer_factory:
        ``arena -> Optimizer`` over the replica's
        :class:`~repro.comm.params.ParamArena`; defaults to plain SGD at lr 0.01 as the
        paper uses.
    lr_schedule:
        Shared learning-rate policy (e.g. warm-up then 0.01).
    failure_injector:
        Optional fault schedule consulted by trainers: crash windows and
        slowdown (straggler) windows.  When the injector carries
        slowdown windows at construction time, every device's
        ``power_drift`` is composed with them (a straggler computes
        slower but stays alive and synchronising).
    link_faults:
        Optional :class:`~repro.sim.linkfaults.LinkFaultModel` — per-link
        message drops, latency jitter and flap windows.  Trainers route
        message-level transfers through a
        :class:`~repro.sim.linkfaults.ReliableDelivery` built from this
        model; ``None`` (default) leaves transfers perfectly reliable.
    retry_policy:
        Optional :class:`~repro.sim.linkfaults.RetryPolicy` governing the
        retry/backoff envelope (defaults to
        :data:`~repro.sim.linkfaults.DEFAULT_RETRY_POLICY`).
    seed:
        Master seed; initial model, shards, device RNG streams and ring
        shuffles all derive from it deterministically.
    executor:
        Local-training executor: ``"serial"`` (default: the in-process
        executor, which batches runs of MLP devices; ``"fleet"`` names it
        too) or a ready :class:`~repro.sim.executor.LocalExecutor`
        instance.  Every executor is bitwise-identical to the per-device
        loop on fixed seeds.
    wire:
        Wire format every simulated transfer crosses — a name
        (``"fp64"``/``"fp32"``/``"fp16"`` or a registered quantiser) or a
        :class:`~repro.comm.wire.WireFormat` instance.  Governs both the
        payload cast (devices only ever receive ``wire.transmit(...)`` of
        what was sent, starting with the initial model dispatch) and all
        byte pricing (``model_nbytes``, segment granularity of the
        network model, which is aligned automatically).  The default
        lossless fp64 wire leaves trajectories bitwise identical to a
        simulator with no wire layer.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_set: Dataset,
        test_set: Dataset,
        specs: Sequence[DeviceSpec],
        batch_size: int = 64,
        partition: Union[str, Sequence[Sequence[int]]] = "iid",
        dirichlet_alpha: float = 0.5,
        optimizer_factory: Optional[Callable[[ParamArena], Optimizer]] = None,
        lr_schedule: Optional[LRSchedule] = None,
        network: Optional[NetworkModel] = None,
        failure_injector: Optional[FailureInjector] = None,
        seed: int = 0,
        executor: Union[str, LocalExecutor, None] = "serial",
        wire: WireSpec = None,
        link_faults: Optional[LinkFaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not specs:
            raise ValueError("need at least one device spec")
        ids = [s.device_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids in specs: {ids}")
        super().__init__(
            model_factory, train_set, test_set, batch_size, optimizer_factory,
            lr_schedule, network, failure_injector, seed, wire,
        )
        self.specs = list(specs)
        self.link_faults = link_faults
        self.retry_policy = retry_policy
        self.executor: LocalExecutor = make_executor(executor)
        # Shards are dealt by position in ``specs``; every device is
        # acquired from the pool here and never released.
        self.pool.reserve(len(self.specs))
        shard_spec = self._make_shard_spec(partition, dirichlet_alpha)
        self.devices: List[Device] = [
            self._build_device(spec, shard_spec.shard(index), self.pool.acquire())
            for index, spec in enumerate(self.specs)
        ]

    evaluate_params = DeviceSubstrate.evaluate_params

    # ------------------------------------------------------------------ #
    def _make_shard_spec(
        self,
        partition: Union[str, Sequence[Sequence[int]], ShardSpec],
        dirichlet_alpha: float,
    ) -> ShardSpec:
        k = len(self.specs)
        if isinstance(partition, ShardSpec):
            if partition.num_devices != k:
                raise ValueError(
                    f"{partition.num_devices} shards for {k} devices"
                )
            return partition
        if isinstance(partition, str):
            part_rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0xDA7A])
            )
            if partition == "iid":
                return IIDShardSpec(len(self.train_set), k, rng=part_rng)
            if partition == "dirichlet":
                return DirichletShardSpec(
                    self.train_set.labels, k, alpha=dirichlet_alpha, rng=part_rng
                )
            raise ValueError(f"unknown partition scheme {partition!r}")
        spec = ExplicitShardSpec(partition)
        if spec.num_devices != k:
            raise ValueError(f"{spec.num_devices} shards for {k} devices")
        return spec

    # ------------------------------------------------------------------ #
    @property
    def device_ids(self) -> List[int]:
        return [s.device_id for s in self.specs]

    # ------------------------------------------------------------------ #
    def run_local_tasks(
        self, tasks: Sequence[LocalTrainTask]
    ) -> dict[int, LocalTrainResult]:
        """Execute a batch of local-training bursts via the cluster's
        executor, leaving the devices exactly as serial execution would."""
        return self.executor.run_tasks(self, tasks)

    def global_epoch(self) -> float:
        """Aggregate data passes: total samples consumed / dataset size.

        With the paper's even 4-way split, one global epoch corresponds to
        every device finishing one pass over its shard.
        """
        consumed = sum(d.cycler.samples_consumed for d in self.devices)
        return consumed / self.total_train_samples
