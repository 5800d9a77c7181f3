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
from repro.nn.losses import CrossEntropyLoss, evaluate
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.optim.lr_schedules import LRSchedule
from repro.optim.sgd import SGD
from repro.parallel.tasks import LocalTrainTask
from repro.sim.device import Device, DeviceSpec, LocalTrainResult, forward_rngs
from repro.sim.executor import LocalExecutor, make_executor
from repro.sim.failures import FailureInjector, SlowdownDrift
from repro.sim.linkfaults import LinkFaultModel, RetryPolicy
from repro.sim.network import NetworkModel, align_network_granularity


class ArenaBlock:
    """One recyclable replica slot: model + arena + optimizer.

    The optimizer adopted the arena's flat storage at
    construction, so the three objects travel together for the block's
    whole life — a device built on the block *borrows* them (via the
    ``arena=`` hand-off in :class:`~repro.sim.device.Device`), never
    rebuilds them.  ``module_rngs`` are the per-layer generators that
    draw at forward time (e.g. Dropout), found once per block: every
    device the block serves shares the list.
    """

    def __init__(
        self, model: Module, arena: ParamArena, optimizer: Optimizer
    ) -> None:
        self.model = model
        self.arena = arena
        self.optimizer = optimizer
        self.initial_scalars = dict(optimizer.scalar_state())
        self.module_rngs = forward_rngs(model)
        self.initial_module_rng_states = [
            rng.bit_generator.state for rng in self.module_rngs
        ]


class ArenaPool:
    """Pool of scrubbed-on-release replica blocks.

    ``acquire`` hands out a free block (or builds one — every build uses
    ``model_factory(default_rng(seed))``, the construction the
    evaluation replica gets too, so all blocks are identical).
    ``release`` scrubs the block back to template state **bitwise**:
    parameters ← template, gradient vector ← 0, optimizer flat vectors
    ← 0, optimizer scalars ← construction values, module RNG streams ←
    construction states.  A population's pool holds O(max concurrent
    participants) blocks, never O(population).  Blocks train one after
    another (every backend steps one device at a time per process), so
    their optimizers share the pool's work vectors
    (:meth:`~repro.optim.base.Optimizer.share_scratch`).
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        optimizer_factory: Callable[[list], Optimizer],
        template: np.ndarray,
        seed: int = 0,
    ) -> None:
        self._model_factory = model_factory
        self._optimizer_factory = optimizer_factory
        self._template = np.array(template, copy=True)
        self._seed = int(seed)
        self._free: List[ArenaBlock] = []
        self._scratch: List[np.ndarray] = []
        self.created = 0
        self.in_use = 0
        self.recycled = 0
        self.max_resident = 0

    def acquire(self) -> ArenaBlock:
        """A clean block: recycled when one is free, freshly built otherwise."""
        if self._free:
            block = self._free.pop()
            self.recycled += 1
        else:
            model = self._model_factory(np.random.default_rng(self._seed))
            arena = ParamArena(model)
            arena.write(self._template)
            optimizer = self._optimizer_factory(model.parameters())
            optimizer.share_scratch(self._scratch)
            block = ArenaBlock(model, arena, optimizer)
            self.created += 1
        self.in_use += 1
        self.max_resident = max(self.max_resident, self.created)
        return block

    def release(self, block: ArenaBlock) -> None:
        """Scrub ``block`` back to template state and return it to the pool."""
        block.arena.write(self._template)
        block.arena.zero_grads()
        for vec in block.optimizer.flat_state():
            vec[...] = 0.0
        block.optimizer.load_scalar_state(block.initial_scalars)
        for rng, state in zip(block.module_rngs, block.initial_module_rng_states):
            rng.bit_generator.state = state
        self.in_use -= 1
        self._free.append(block)

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

    Concrete substrates bind :meth:`evaluate_params` in their own class
    body — the e2e tracer patches it per class and skips inherited
    attributes — and neither subclasses the other.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_set: Dataset,
        test_set: Optional[Dataset],
        batch_size: int,
        optimizer_factory: Optional[Callable[[list], Optimizer]],
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
        # evaluation replica only runs forward passes: no grad storage.
        self._eval_model = model_factory(np.random.default_rng(seed))
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
            optimizer_factory or (lambda params: SGD(params, lr=0.01)),
            self._initial_payload,
            seed=self.seed,
        )
        self._active: Dict[int, Device] = {}

    # ------------------------------------------------------------------ #
    def _build_device(
        self, spec: DeviceSpec, shard: np.ndarray, block: ArenaBlock
    ) -> Device:
        """Device ``spec`` on ``block``'s replica over ``shard``.  Every
        random draw derives from the master seed and the device's *id*,
        never from how many devices were built before."""
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
        device_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, spec.device_id])
        )
        # Keyword order is draw order: the cycler's permutation comes off
        # ``device_rng`` before the device's own seed does.
        device = Device(
            spec=spec,
            model=block.model,
            optimizer=block.optimizer,
            cycler=BatchCycler(
                Subset(self.train_set, shard), self.batch_size, rng=device_rng
            ),
            lr_schedule=self.lr_schedule,
            seed=int(device_rng.integers(0, 2**31 - 1)),
            arena=block.arena,
            module_rngs=block.module_rngs,
        )
        self._active[spec.device_id] = device
        return device

    def device_by_id(self, device_id: int) -> Device:
        """A built device — for a population, only current participants
        (executors resolve tasks through this)."""
        device = self._active.get(int(device_id))
        if device is None:
            raise KeyError(f"no device with id {device_id}")
        return device

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
        ``params -> Optimizer``; defaults to plain SGD at lr 0.01 as the
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
        Local-training execution backend: ``"serial"`` (default),
        ``"process"``, ``"fleet"``, or a ready
        :class:`~repro.sim.executor.LocalExecutor` instance.  Every
        backend is bitwise-identical to serial on fixed seeds.
    executor_workers:
        Worker count for the parallel backends (``None``: one per device,
        capped at the CPU count).
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
        optimizer_factory: Optional[Callable[[list], Optimizer]] = None,
        lr_schedule: Optional[LRSchedule] = None,
        network: Optional[NetworkModel] = None,
        failure_injector: Optional[FailureInjector] = None,
        seed: int = 0,
        executor: Union[str, LocalExecutor, None] = "serial",
        executor_workers: Optional[int] = None,
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
        self.executor: LocalExecutor = make_executor(executor, executor_workers)
        # Shards are dealt by position in ``specs``; every device is
        # acquired from the pool here and never released.
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

    def close(self) -> None:
        """Release executor resources (the process backend's workers).

        Safe to call repeatedly; the cluster stays usable — parallel
        backends rebuild their pools lazily on the next batch.
        """
        self.executor.close()

    def global_epoch(self) -> float:
        """Aggregate data passes: total samples consumed / dataset size.

        With the paper's even 4-way split, one global epoch corresponds to
        every device finishing one pass over its shard.
        """
        consumed = sum(d.cycler.samples_consumed for d in self.devices)
        return consumed / self.total_train_samples
