"""Canonical experiment configurations.

Encodes the paper's testbed (Sec. IV-A) on the simulated substrate:

* four devices with power-ratio arrays ``[3,3,1,1]`` and ``[4,2,2,1]``;
* heterogeneity normalised so the *fastest* device runs at native speed —
  the natural reading of the paper's ``sleep()`` emulation, and the
  normalisation under which distributed training is slower on
  ``[4,2,2,1]`` than ``[3,3,1,1]``, as Table I reports;
* a network model sized so a full-model transfer is non-trivial relative
  to one local step — the regime in which per-iteration all-reduce hurts
  the distributed baseline and amortised FL communication wins;
* the CIFAR-10 stand-in dataset, split IID over the devices, global batch
  spread evenly (the paper: 256 over 4 GPUs → 64 each; scaled down by
  default for the NumPy substrate).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.wire import get_wire_format
from repro.core.config import HADFLParams
from repro.data import synthetic_cifar10
from repro.data.dataset import ArrayDataset
from repro.nn.models import build_model
from repro.optim import SGD, ConstantSchedule, WarmupSchedule
from repro.sim.cluster import SimulatedCluster
from repro.sim.device import DeviceSpec
from repro.sim.failures import FailureInjector
from repro.sim.linkfaults import LinkFaultModel, RetryPolicy
from repro.sim.network import HeterogeneousNetworkModel, NetworkModel

HETEROGENEITY_3311: Tuple[int, ...] = (3, 3, 1, 1)
HETEROGENEITY_4221: Tuple[int, ...] = (4, 2, 2, 1)


def specs_from_power_ratio(
    power_ratio: Sequence[float],
    base_step_time: float = 0.1,
    jitter: float = 0.0,
    power_drift=None,
) -> List[DeviceSpec]:
    """Device specs with fastest-device-native normalisation.

    ``base_step_time`` is the per-step time of the *fastest* device; a
    device with power ``p`` takes ``base_step_time * max(ratio) / p`` per
    step.  This matches emulating heterogeneity by sleeping on identical
    GPUs: the strongest device runs unthrottled.
    """
    if not power_ratio:
        raise ValueError("power_ratio must be non-empty")
    if any(p <= 0 for p in power_ratio):
        raise ValueError(f"powers must be positive: {list(power_ratio)}")
    strongest = max(power_ratio)
    return [
        DeviceSpec(
            device_id=index,
            power=float(p),
            base_step_time=base_step_time * strongest,
            jitter=jitter,
            power_drift=power_drift,
        )
        for index, p in enumerate(power_ratio)
    ]


@dataclass
class ExperimentConfig:
    """Everything needed to build a cluster and run one scheme on it.

    The defaults are the CI-scale setting (MLP on 8 px images) used by the
    integration tests; the benchmarks override ``model``/``num_train``/
    ``target_epochs`` per experiment (README, "Benchmarks").
    """

    # Task
    model: str = "mlp"
    num_classes: int = 10
    num_train: int = 800
    num_test: int = 400
    image_size: int = 8
    noise: float = 0.8
    data_seed: int = 0

    # Cluster
    power_ratio: Tuple[float, ...] = HETEROGENEITY_3311
    batch_size: int = 16
    base_step_time: float = 0.1
    jitter: float = 0.0
    latency: float = 5e-3
    # Calibrated for the honest fp64 wire (8 B/scalar): twice the bytes of
    # the legacy 4 B/scalar pricing over twice the bandwidth, an exact
    # power-of-two rescale — per-transfer seconds (and fixed-seed
    # trajectories) are bitwise identical to the pre-wire-format testbed.
    bandwidth: float = 4e6
    device_bandwidth: Optional[dict] = None
    """Optional per-device uplink bandwidths; switches the cluster to a
    :class:`~repro.sim.network.HeterogeneousNetworkModel` (the paper's
    future-work setting)."""
    partition: str = "iid"
    dirichlet_alpha: float = 0.5

    # Optimisation
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0

    # HADFL hyper-parameters: with ``accounting``, ``sync_failure_policy``
    # and the federation mode below, every HADFLParams field (documented
    # and validated there; see hadfl_params()).
    tsync: int = 1
    num_selected: int = 2
    selection: str = "gaussian_quartile"
    selection_sigma: float = 1.0
    smoothing_alpha: float = 0.5
    warmup_epochs: int = 1
    warmup_lr: float = 5e-3
    unselected_mix_weight: float = 0.5
    adapt_local_steps: bool = True

    # Run control
    target_epochs: float = 20.0
    eval_every: int = 1
    seed: int = 0
    fedavg_local_steps: Optional[int] = None

    # Execution backend, "serial"/"process"/"fleet"
    # (bitwise-identical to serial on fixed seeds; affects wall-clock
    # only, never the trajectory)
    executor: str = "serial"
    executor_workers: Optional[int] = None

    # Wire format of every simulated transfer: payload cast + byte
    # pricing.  "fp64" (default) is a lossless passthrough; "fp32"/"fp16"
    # model the cast of a narrow wire and halve/quarter every transfer.
    wire_dtype: str = "fp64"

    # CommVolumeAccountant memory mode.
    accounting: str = "exact"

    # Chaos layer (all off by default — fault-free runs are bitwise
    # identical to a config without these knobs).  Device faults:
    # Poisson crash windows at ``failure_rate`` per device per virtual
    # second (down for an exponential ``mean_downtime``), and slowdown
    # (straggler) windows at ``slowdown_rate`` during which a device
    # computes ``slowdown_factor`` times slower but stays alive.  Link
    # faults: every message dropped with ``link_drop_prob``, transfer
    # times jittered lognormally with sigma ``link_jitter``.  Lost
    # messages are retried up to ``retry_attempts`` with the
    # :class:`~repro.sim.linkfaults.RetryPolicy` default backoff.
    failure_rate: float = 0.0
    mean_downtime: float = 5.0
    slowdown_rate: float = 0.0
    slowdown_factor: float = 4.0
    link_drop_prob: float = 0.0
    link_jitter: float = 0.0
    retry_attempts: int = 4
    sync_failure_policy: str = "continue"

    # Federation mode of the round loop.
    aggregation: str = "sync"
    async_buffer: Optional[int] = None
    staleness_exponent: float = 0.5

    chaos_seed: int = 0
    chaos_horizon: Optional[float] = None
    """Virtual-time span the random fault schedule covers; ``None``
    estimates it from the run length (worst-case device pace)."""

    def __post_init__(self):
        self.hadfl_params()  # HADFLParams validates the HADFL knobs
        if self.num_selected > len(self.power_ratio):
            raise ValueError(
                f"num_selected={self.num_selected} exceeds device count "
                f"{len(self.power_ratio)}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.failure_rate < 0 or self.slowdown_rate < 0:
            raise ValueError("failure_rate and slowdown_rate must be >= 0")
        if not 0.0 <= self.link_drop_prob < 1.0:
            raise ValueError(
                f"link_drop_prob must be in [0, 1), got {self.link_drop_prob}"
            )
        if self.link_jitter < 0:
            raise ValueError(
                f"link_jitter must be >= 0, got {self.link_jitter}"
            )

    # ------------------------------------------------------------------ #
    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with fields replaced (configs are otherwise immutable
        by convention)."""
        return replace(self, **kwargs)

    @property
    def num_devices(self) -> int:
        return len(self.power_ratio)

    def steps_per_local_epoch(self) -> int:
        shard = self.num_train // self.num_devices
        return max(1, shard // self.batch_size)

    # ------------------------------------------------------------------ #
    def make_data(self) -> Tuple[ArrayDataset, ArrayDataset]:
        return synthetic_cifar10(
            num_train=self.num_train,
            num_test=self.num_test,
            image_size=self.image_size,
            noise=self.noise,
            seed=self.data_seed,
        )

    def make_model_factory(self) -> Callable[[np.random.Generator], object]:
        name = self.model

        def factory(rng: np.random.Generator):
            kwargs = {"num_classes": self.num_classes, "rng": rng}
            if name == "mlp":
                kwargs["in_features"] = 3 * self.image_size**2
            elif name in ("vgg_mini", "vgg16", "vgg11", "simple_cnn"):
                kwargs["image_size"] = self.image_size
            return build_model(name, **kwargs)

        return factory

    def make_specs(self) -> List[DeviceSpec]:
        return specs_from_power_ratio(
            self.power_ratio,
            base_step_time=self.base_step_time,
            jitter=self.jitter,
        )

    def make_lr_schedule(self):
        warmup_steps = self.warmup_epochs * self.steps_per_local_epoch()
        return WarmupSchedule(
            ConstantSchedule(self.lr),
            warmup_steps=warmup_steps,
            warmup_lr=self.warmup_lr,
        )

    def make_network(self) -> NetworkModel:
        bytes_per_scalar = get_wire_format(self.wire_dtype).bytes_per_scalar
        if self.device_bandwidth:
            return HeterogeneousNetworkModel(
                latency=self.latency,
                bandwidth=self.bandwidth,
                bytes_per_scalar=bytes_per_scalar,
                device_bandwidth=dict(self.device_bandwidth),
            )
        return NetworkModel(
            latency=self.latency,
            bandwidth=self.bandwidth,
            bytes_per_scalar=bytes_per_scalar,
        )

    # ------------------------------------------------------------------ #
    # Chaos factories
    # ------------------------------------------------------------------ #
    def estimated_horizon(self) -> float:
        """Virtual-time span random fault schedules should cover.

        Rough upper bound on the run length: warm-up plus the target
        epochs, each priced at the *slowest* device's epoch time (the
        fastest-native normalisation makes that
        ``base_step_time · max(ratio)/min(ratio)`` per step).
        """
        if self.chaos_horizon is not None:
            return float(self.chaos_horizon)
        ratio = self.power_ratio
        worst_step = self.base_step_time * max(ratio) / min(ratio)
        epochs = self.target_epochs + self.warmup_epochs + 1
        return epochs * self.steps_per_local_epoch() * worst_step

    def make_failure_injector(self) -> Optional[FailureInjector]:
        """Random crash + slowdown schedule, or ``None`` when rates are 0."""
        if self.failure_rate == 0.0 and self.slowdown_rate == 0.0:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence([self.chaos_seed, 0xC405])
        )
        return FailureInjector.random(
            list(range(self.num_devices)),
            horizon=self.estimated_horizon(),
            failure_rate=self.failure_rate,
            mean_downtime=self.mean_downtime,
            rng=rng,
            slowdown_rate=self.slowdown_rate,
            slowdown_factor=self.slowdown_factor,
        )

    def make_link_faults(self) -> Optional[LinkFaultModel]:
        if self.link_drop_prob == 0.0 and self.link_jitter == 0.0:
            return None
        return LinkFaultModel(
            drop_prob=self.link_drop_prob,
            latency_jitter=self.link_jitter,
            seed=self.chaos_seed,
        )

    def make_retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.retry_attempts)

    def make_cluster(
        self,
        seed_offset: int = 0,
        failure_injector: Optional[FailureInjector] = None,
        link_faults: Optional[LinkFaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> SimulatedCluster:
        """Build a fresh, fully deterministic testbed for one run.

        Explicit ``failure_injector`` / ``link_faults`` / ``retry_policy``
        win over the config's random chaos schedule (tests inject
        hand-written windows and flaps this way).
        """
        train, test = self.make_data()
        if failure_injector is None:
            failure_injector = self.make_failure_injector()
        if link_faults is None:
            link_faults = self.make_link_faults()
        if retry_policy is None:
            retry_policy = self.make_retry_policy()
        return SimulatedCluster(
            model_factory=self.make_model_factory(),
            train_set=train,
            test_set=test,
            specs=self.make_specs(),
            batch_size=self.batch_size,
            partition=self.partition,
            dirichlet_alpha=self.dirichlet_alpha,
            optimizer_factory=lambda params: SGD(
                params,
                lr=self.lr,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
            ),
            lr_schedule=self.make_lr_schedule(),
            network=self.make_network(),
            failure_injector=failure_injector,
            seed=self.seed + seed_offset,
            executor=self.executor,
            executor_workers=self.executor_workers,
            wire=self.wire_dtype,
            link_faults=link_faults,
            retry_policy=retry_policy,
        )

    def hadfl_params(self) -> HADFLParams:
        """The HADFL knobs: every :class:`HADFLParams` field is a field of
        the same name here."""
        return HADFLParams(
            **{f.name: getattr(self, f.name) for f in fields(HADFLParams)}
        )

    def describe(self) -> str:
        return (
            f"{self.model} | ratio {list(self.power_ratio)} | "
            f"{self.num_train} train / {self.num_test} test @ {self.image_size}px | "
            f"batch {self.batch_size} x {self.num_devices} devices | "
            f"target {self.target_epochs} epochs"
        )
