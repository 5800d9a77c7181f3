"""SimulatedCluster: devices + network + data, shared by all trainers.

Builds the testbed every scheme (HADFL and both baselines) trains on, so
comparisons are apples-to-apples: same initial model, same shards, same
network, same failure schedule — only the coordination strategy differs,
exactly as in the paper's evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import Tensor, fleet_softmax_cross_entropy, no_grad
from repro.comm.params import FlatParamCodec, ParamArena
from repro.comm.wire import WireFormat, WireSpec, get_wire_format
from repro.data.dataset import Dataset, Subset
from repro.data.loader import BatchCycler
from repro.data.partition import (
    DirichletShardSpec,
    ExplicitShardSpec,
    IIDShardSpec,
    ShardSpec,
)
from repro.nn.fleet import FleetModule, fleet_capable
from repro.nn.layers import Dropout
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.nn.norm import BatchNorm2d
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
    materialisation:
        ``"eager"`` (default) builds every device replica at
        construction; ``"lazy"`` defers each device until first touched
        (via ``devices[i]``, ``device_by_id`` or iteration), so setup
        cost and memory scale with the devices a run actually exercises.
        Every per-device random draw derives from ``SeedSequence([seed,
        device_id])`` — independent of construction *order* — so lazy
        trajectories are bitwise identical to eager on fixed seeds
        (pinned by ``tests/test_population.py``).
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
        materialisation: str = "eager",
    ) -> None:
        if materialisation not in ("eager", "lazy"):
            raise ValueError(
                "materialisation must be one of eager/lazy, "
                f"got {materialisation!r}"
            )
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
        # a single vectorized write instead of a per-parameter unflatten.
        # No grad storage: this replica only ever runs forward passes.
        self._eval_arena = ParamArena(self._eval_model, bind_grads=False)
        self.codec = FlatParamCodec(self._eval_model)
        self.initial_params = self.codec.flatten(self._eval_model)
        # Payload-aware model wire size: width × scalars for plain
        # casts, the quantiser's own size law (chunk scales, top-k
        # survivor pairs) otherwise.
        self.model_nbytes = self.wire.payload_nbytes(self.initial_params)
        self._loss_fn = CrossEntropyLoss()
        # Stacked-evaluation cache: member ids -> (models, stack,
        # module, mode_sensitive, (batch_size, chunk tensors)).  The
        # (D, n) buffer, its FleetModule views, and the pre-wrapped test
        # chunks are rebuilt only when the member set or its model
        # objects change; each call refreshes the stack rows with one
        # bulk copy per replica.
        self._fleet_eval_cache: Dict[
            Tuple[int, ...],
            Tuple[
                Tuple[Module, ...],
                np.ndarray,
                FleetModule,
                bool,
                Tuple[int, List[Tuple[Tensor, np.ndarray, np.ndarray]]],
            ],
        ] = {}
        # Grouping-plan cache for evaluate_devices: target ids ->
        # (models, (solo indices, grouped index lists)).
        self._eval_plan_cache: Dict[
            Tuple[int, ...],
            Tuple[Tuple[Module, ...], Tuple[List[int], List[List[int]]]],
        ] = {}

        # The initial model dispatch crosses the wire too: a device
        # starts from what survived the cast (identity on fp64).  Every
        # replica is constructed with the identical initial model, so
        # the initial vector doubles as the delta reference and
        # sparsifying formats deliver it exactly (empty delta).
        self._initial_payload, _ = self.wire.transmit_delta_with_error(
            self.initial_params, self.initial_params
        )

        self._model_factory = model_factory
        self._optimizer_factory = optimizer_factory
        self._batch_size = batch_size
        self._shard_spec = self._make_shard_spec(partition, dirichlet_alpha)
        self._id_to_index = {s.device_id: i for i, s in enumerate(self.specs)}
        self.materialisation = materialisation
        if materialisation == "eager":
            self._devices: Sequence[Device] = [
                self._build_device(i) for i in range(len(self.specs))
            ]
        else:
            self._devices = _LazyDeviceList(self)

    # ------------------------------------------------------------------ #
    def _build_device(self, index: int) -> Device:
        """Construct device ``index`` exactly as the eager loop always has.

        Every random draw derives from the master seed and the device's
        *id* (never from how many devices were built before), so a
        device materialised lazily in any order is bitwise identical to
        its eager twin.
        """
        spec = self.specs[index]
        device_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, spec.device_id])
        )
        model = self._model_factory(np.random.default_rng(self.seed))
        device = Device(
            spec=spec,
            model=model,
            optimizer=self._optimizer_factory(model.parameters()),
            cycler=BatchCycler(
                Subset(self.train_set, self._shard_spec.shard(index)),
                self._batch_size,
                rng=device_rng,
            ),
            lr_schedule=self.lr_schedule,
            seed=int(device_rng.integers(0, 2**31 - 1)),
        )
        device.set_params(self._initial_payload)
        return device

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
    def devices(self) -> Sequence[Device]:
        """Device replicas — a plain list when eager, a caching lazy
        sequence otherwise (identical devices either way)."""
        return self._devices

    def _materialised(self) -> List[Device]:
        """Already-built devices only — never triggers materialisation.

        Lazy aggregate queries run over this: an unmaterialised device
        is *by construction* still in its initial state (version 0,
        nothing consumed), so skipping it changes no aggregate.
        """
        if isinstance(self._devices, _LazyDeviceList):
            return self._devices.materialised()
        return list(self._devices)

    @property
    def materialised_count(self) -> int:
        return len(self._materialised())

    @property
    def device_ids(self) -> List[int]:
        return [s.device_id for s in self.specs]

    def device_by_id(self, device_id: int) -> Device:
        index = self._id_to_index.get(device_id)
        if index is None:
            raise KeyError(f"no device with id {device_id}")
        return self._devices[index]

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
        consumed = sum(d.cycler.samples_consumed for d in self._materialised())
        return consumed / self.total_train_samples

    def mean_local_version(self) -> float:
        # Unmaterialised devices are at version 0 by construction; the
        # zeros participate in the mean so lazy and eager agree bitwise.
        versions = [0] * len(self.specs)
        for device in self._materialised():
            versions[self._id_to_index[device.device_id]] = device.version
        return float(np.mean(versions))

    # ------------------------------------------------------------------ #
    def evaluate_params(
        self, flat: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """Test-set (loss, accuracy) of a flat parameter vector.

        Loads the vector with one vectorized arena write — no
        per-parameter codec round-trip (the values land bitwise
        identically either way; ``tests/test_fleet.py`` pins it).
        """
        self._eval_arena.write(flat)
        self._eval_model.eval()
        features, labels = self._test_arrays
        total_loss, correct, count = 0.0, 0.0, 0
        with no_grad():
            for start in range(0, len(features), batch_size):
                fb = features[start : start + batch_size]
                lb = labels[start : start + batch_size]
                logits = self._eval_model(Tensor(fb))
                total_loss += float(self._loss_fn(logits, lb).data) * len(lb)
                correct += accuracy(logits, lb) * len(lb)
                count += len(lb)
        return total_loss / count, correct / count

    def evaluate_device(
        self, device_id: int, batch_size: int = 256
    ) -> Tuple[float, float]:
        """Test-set (loss, accuracy) of a device's live replica.

        Runs the device's own model straight off its arena views — no
        parameter copy at all, unlike routing the snapshot through
        :meth:`evaluate_params`.  The metrics are bitwise identical to
        that route (same weights, same arithmetic).
        """
        device = self.device_by_id(device_id)
        return device.evaluate(*self._test_arrays, batch_size)

    def evaluate_devices(
        self,
        device_ids: Optional[Sequence[int]] = None,
        batch_size: int = 256,
    ) -> Dict[int, Tuple[float, float]]:
        """Per-device test metrics, batched across replicas when possible.

        Architecture-identical fleet-capable devices are evaluated with
        ONE stacked forward per test chunk (the shared batch broadcasts
        against every replica's parameter rows); anything else falls
        back to :meth:`evaluate_device` per device.  Results are bitwise
        identical to the per-device loop either way.
        """
        targets = (
            self.devices
            if device_ids is None
            else [self.device_by_id(i) for i in device_ids]
        )
        results: Dict[int, Tuple[float, float]] = {}
        # The grouping walks every module tree (fleet_capable) — cache
        # the plan per target set and revalidate by model identity, so
        # per-round re-evaluations skip the walk entirely.
        plan_key = tuple(d.device_id for d in targets)
        models = tuple(d.model for d in targets)
        cached_plan = self._eval_plan_cache.get(plan_key)
        if cached_plan is not None and cached_plan[0] == models:
            solo, grouped = cached_plan[1]
        else:
            groups: Dict[Tuple[Hashable, ...], List[int]] = {}
            solo = []  # type: List[int]
            for index, device in enumerate(targets):
                if fleet_capable(device.model):
                    signature = (type(device.model), device.arena.layout())
                    groups.setdefault(signature, []).append(index)
                else:
                    solo.append(index)
            grouped = list(groups.values())
            self._eval_plan_cache[plan_key] = (models, (solo, grouped))
        for index in solo:
            device = targets[index]
            results[device.device_id] = self.evaluate_device(
                device.device_id, batch_size
            )
        for indices in grouped:
            members = [targets[i] for i in indices]
            if len(members) == 1:
                device = members[0]
                results[device.device_id] = self.evaluate_device(
                    device.device_id, batch_size
                )
            else:
                results.update(self._evaluate_fleet(members, batch_size))
        return {d.device_id: results[d.device_id] for d in targets}

    def _evaluate_fleet(
        self, members: Sequence[Device], batch_size: int
    ) -> Dict[int, Tuple[float, float]]:
        """Stacked evaluation of architecture-identical replicas.

        One ``(D, n)`` parameter stack, one batched forward per test
        chunk; per-replica loss/accuracy come from the device's own loss
        on each logits slice, so the numbers match
        :meth:`~repro.sim.device.Device.evaluate` bitwise.  The stack
        buffer and its :class:`FleetModule` views are cached per member
        set, so repeated evaluations pay one row copy per replica and no
        reconstruction.  When every member uses the stock
        :class:`CrossEntropyLoss`, the per-slice metric loop collapses
        into one vectorised cross-entropy + argmax over the replica axis
        (per-slice reductions, so still bitwise identical).
        """
        models = tuple(d.model for d in members)
        key = tuple(d.device_id for d in members)
        k = len(members)
        cached = self._fleet_eval_cache.get(key)
        if cached is not None and cached[0] == models:
            _, stack, module, mode_sensitive, chunk_plan = cached
        else:
            stack = np.empty(
                (len(members), members[0].arena.num_scalars), dtype=np.float64
            )
            module = FleetModule(list(models), stack, members[0].arena.layout())
            # Only Dropout and BatchNorm2d read ``training``; a tree
            # without them evaluates identically in either mode, so the
            # per-call eval()/train() walks can be skipped.
            mode_sensitive = any(
                isinstance(sub, (Dropout, BatchNorm2d))
                for sub in models[0].modules()
            )
            chunk_plan = (-1, [])
            cached = (models, stack, module, mode_sensitive, chunk_plan)
            self._fleet_eval_cache[key] = cached
        if chunk_plan[0] != batch_size:
            # Pre-wrap each test chunk (input tensor + replica-tiled
            # labels) once per batch size instead of on every evaluation.
            features, labels = self._test_arrays
            chunks = [
                (
                    Tensor(features[start : start + batch_size]),
                    labels[start : start + batch_size],
                    np.broadcast_to(
                        labels[start : start + batch_size],
                        (k, len(labels[start : start + batch_size])),
                    ),
                )
                for start in range(0, len(features), batch_size)
            ]
            chunk_plan = (batch_size, chunks)
            self._fleet_eval_cache[key] = cached[:4] + (chunk_plan,)
        for i, device in enumerate(members):
            np.copyto(stack[i], device.get_params_view())
        total_loss = np.zeros(k)
        correct = np.zeros(k)
        count = 0
        vector_ce = all(type(d.loss_fn) is CrossEntropyLoss for d in members)
        if mode_sensitive:
            for device in members:
                device.model.eval()
        with no_grad():
            for xb, lb, tiled in chunk_plan[1]:
                logits = module.forward(xb, stacked=False)
                if vector_ce:
                    nll = fleet_softmax_cross_entropy(logits, tiled).data
                    acc = (logits.data.argmax(axis=2) == lb).mean(axis=1)
                    total_loss += nll * len(lb)
                    correct += acc * len(lb)
                else:
                    for i, device in enumerate(members):
                        sliced = Tensor(logits.data[i])
                        loss = device.loss_fn(sliced, lb)
                        total_loss[i] += float(loss.data) * len(lb)
                        correct[i] += accuracy(sliced, lb) * len(lb)
                count += len(lb)
        if mode_sensitive:
            for device in members:
                device.model.train()
        return {
            device.device_id: (
                float(total_loss[i]) / count,
                float(correct[i]) / count,
            )
            for i, device in enumerate(members)
        }

    def mean_device_params(self, device_ids: Optional[Sequence[int]] = None) -> np.ndarray:
        """Average of the (selected) devices' current parameters."""
        targets = (
            self.devices
            if device_ids is None
            else [self.device_by_id(i) for i in device_ids]
        )
        return np.mean([d.get_params_view() for d in targets], axis=0)

    def reset(self) -> None:
        """Restore every device to the initial model and zero the clocks.

        Lazy clusters reset only materialised devices — the rest never
        left their initial state (cycler and RNG positions are *not*
        reset in eager mode either, so the semantics match exactly).
        """
        for device in self._materialised():
            device.set_params(self._initial_payload)
            device.version = 0
            device.busy_until = 0.0
            if hasattr(device.optimizer, "reset_state"):
                device.optimizer.reset_state()


class _LazyDeviceList(Sequence):
    """Sequence view over a lazy cluster's devices.

    Indexing (and iteration, via the Sequence protocol) materialises the
    requested device through :meth:`SimulatedCluster._build_device` and
    caches it, so each device is built exactly once and repeated access
    is a dict hit.  Identity is stable: ``devices[i] is devices[i]``.
    """

    def __init__(self, cluster: SimulatedCluster) -> None:
        self._cluster = cluster
        self._cache: Dict[int, Device] = {}

    def __len__(self) -> int:
        return len(self._cluster.specs)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"device index {index} out of range")
        device = self._cache.get(index)
        if device is None:
            device = self._cluster._build_device(index)
            self._cache[index] = device
        return device

    def materialised(self) -> List[Device]:
        """Built devices in spec order, without building any more."""
        return [self._cache[i] for i in sorted(self._cache)]
