"""SimulatedCluster: devices + network + data, shared by all trainers.

Builds the testbed every scheme (HADFL and both baselines) trains on, so
comparisons are apples-to-apples: same initial model, same shards, same
network, same failure schedule — only the coordination strategy differs,
exactly as in the paper's evaluation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

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
from dataclasses import replace as dc_replace

from repro.sim.device import Device, DeviceSpec, LocalTrainResult
from repro.sim.executor import LocalExecutor, make_executor
from repro.sim.failures import FailureInjector, SlowdownDrift
from repro.sim.linkfaults import LinkFaultModel, RetryPolicy
from repro.sim.network import NetworkModel, align_network_granularity


class SimulatedCluster:
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
        if failure_injector is not None and failure_injector.has_slowdowns():
            # Compose straggler windows into each device's power drift.
            # Only done when windows exist at construction time, so the
            # default path keeps the fixed-step-time fast path (and
            # crash-only schedules stay on it too).
            specs = [
                dc_replace(
                    s,
                    power_drift=SlowdownDrift(
                        failure_injector, s.device_id, s.power_drift
                    ),
                )
                for s in specs
            ]
        self.specs = list(specs)
        self.train_set = train_set
        self.test_set = test_set
        # The test set is fixed for the cluster's lifetime: gather it
        # once, not through ``Subset.features`` on every evaluation.
        self._test_arrays = (test_set.features, test_set.labels)
        self.wire: WireFormat = get_wire_format(wire)
        network = network or NetworkModel(
            bytes_per_scalar=self.wire.bytes_per_scalar
        )
        self.network = align_network_granularity(network, self.wire)
        self.failures = failure_injector or FailureInjector()
        self.link_faults = link_faults
        self.retry_policy = retry_policy
        self.lr_schedule = lr_schedule
        self.seed = seed
        self.executor: LocalExecutor = make_executor(executor, executor_workers)
        self.rng = np.random.default_rng(seed)
        optimizer_factory = optimizer_factory or (lambda params: SGD(params, lr=0.01))

        # Initial model: every device starts from identical weights
        # (HADFL workflow step "synchronize the initial models").
        self._eval_model = model_factory(np.random.default_rng(seed))
        # Arena-backed evaluation replica: per-round evaluation loads are
        # a single vectorized write.  No grad storage: this replica only
        # ever runs forward passes.
        self._eval_arena = ParamArena(self._eval_model, bind_grads=False)
        self.initial_params = self._eval_arena.snapshot()
        # Payload-aware model wire size: width × scalars for plain
        # casts, the quantiser's own size law (chunk scales, top-k
        # survivor pairs) otherwise.
        self.model_nbytes = self.wire.payload_nbytes(self.initial_params)
        self._loss_fn = CrossEntropyLoss()

        # The initial model dispatch crosses the wire too: a device
        # starts from what survived the cast (identity on fp64).  Every
        # replica is constructed with the identical initial model, so
        # the initial vector doubles as the delta reference and
        # sparsifying formats deliver it exactly (empty delta).
        initial_payload, _ = self.wire.transmit_delta_with_error(
            self.initial_params, self.initial_params
        )

        shard_spec = self._make_shard_spec(partition, dirichlet_alpha)
        self._id_to_index = {s.device_id: i for i, s in enumerate(self.specs)}
        self.devices: List[Device] = []
        for index, spec in enumerate(self.specs):
            # Every random draw derives from the master seed and the
            # device's *id*, never from how many devices were built before.
            device_rng = np.random.default_rng(
                np.random.SeedSequence([seed, spec.device_id])
            )
            model = model_factory(np.random.default_rng(seed))
            device = Device(
                spec=spec,
                model=model,
                optimizer=optimizer_factory(model.parameters()),
                cycler=BatchCycler(
                    Subset(train_set, shard_spec.shard(index)),
                    batch_size,
                    rng=device_rng,
                ),
                lr_schedule=lr_schedule,
                seed=int(device_rng.integers(0, 2**31 - 1)),
            )
            device.set_params(initial_payload)
            self.devices.append(device)

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

    def device_by_id(self, device_id: int) -> Device:
        index = self._id_to_index.get(device_id)
        if index is None:
            raise KeyError(f"no device with id {device_id}")
        return self.devices[index]

    def alive_devices(self, time: float) -> List[Device]:
        return [
            d for d in self.devices if self.failures.is_alive(d.device_id, time)
        ]

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

    @property
    def total_train_samples(self) -> int:
        return len(self.train_set)

    def global_epoch(self) -> float:
        """Aggregate data passes: total samples consumed / dataset size.

        With the paper's even 4-way split, one global epoch corresponds to
        every device finishing one pass over its shard.
        """
        consumed = sum(d.cycler.samples_consumed for d in self.devices)
        return consumed / self.total_train_samples

    # ------------------------------------------------------------------ #
    def evaluate_params(
        self, flat: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """Test-set (loss, accuracy) of a flat parameter vector.

        Loads the vector with one vectorized arena write.
        """
        self._eval_arena.write(flat)
        features, labels = self._test_arrays
        return evaluate(self._eval_model, self._loss_fn, features, labels, batch_size)
