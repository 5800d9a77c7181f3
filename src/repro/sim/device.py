"""A simulated training device: real SGD, virtual wall-clock.

Each device owns a local model replica, optimizer, and data shard.  Its
*computing power* scales the virtual time a local step costs — replacing
the paper's ``sleep()``-based throttling of real V100s ("use the sleep()
function to simulate different degrees of heterogeneity and use an array
to represent the computing power ratio", Sec. IV-A).  Gradients, losses
and accuracies are real (NumPy) numbers; only time is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.data.loader import BatchCycler
from repro.nn.fleet import fleet_capable
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.optim.lr_schedules import LRSchedule


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a device's compute behaviour.

    Parameters
    ----------
    device_id:
        Unique integer id.
    power:
        Relative computing power; a power-2 device finishes a step in half
        the virtual time of a power-1 device (the paper's ratio arrays,
        e.g. ``[3, 3, 1, 1]``).
    base_step_time:
        Virtual seconds one local step costs a power-1 device.
    jitter:
        Sigma of multiplicative lognormal noise on per-step time; models
        the runtime disturbance that motivates the version predictor
        ("the system may be disturbed during training, causing varying
        training time", Sec. III-B).
    power_drift:
        Optional ``time -> multiplier`` callable; effective power is
        ``power * power_drift(t)``.  Slowdown windows ride on it:
        ``sim/cluster.py`` composes ``failures.SlowdownDrift`` with it.
    """

    device_id: int
    power: float = 1.0
    base_step_time: float = 0.1
    jitter: float = 0.0
    power_drift: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.base_step_time <= 0:
            raise ValueError(
                f"base_step_time must be positive, got {self.base_step_time}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")


def forward_rngs(model: Module) -> List[np.random.Generator]:
    """Per-layer generators that draw at forward time (e.g. Dropout)."""
    return [
        module._rng
        for module in model.modules()
        if isinstance(getattr(module, "_rng", None), np.random.Generator)
    ]


@dataclass(frozen=True)
class LocalTrainTask:
    """One device's local-training burst: from ``start_time``, as many
    steps as fit before ``deadline``, at most ``max_steps`` (Alg. 1,
    lines 5–8).  A fixed step count ``n`` is ``max_steps=n`` with no
    deadline; a burst needs at least one of the two bounds."""

    device_id: int
    start_time: float = 0.0
    deadline: float = math.inf
    max_steps: Optional[int] = None

    def __post_init__(self) -> None:
        _check_bounds(self.start_time, self.deadline, self.max_steps)


def _check_bounds(start: float, deadline: float, max_steps: Optional[int]) -> None:
    if max_steps is None:
        if not math.isfinite(deadline):
            raise ValueError("a burst needs a finite deadline or max_steps")
    elif max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if deadline < start:
        raise ValueError(f"deadline {deadline} precedes start_time {start}")


@dataclass
class LocalTrainResult:
    """Outcome of a burst of local steps."""

    steps: int
    elapsed: float
    losses: List[float] = field(default_factory=list)


class Device:
    """A federated device: local replica + shard + virtual clock.

    The ``version`` counter is the paper's parameter version ``v_{i,j}``:
    the number of local update steps the device has applied since the
    initial model synchronisation.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        model: Module,
        optimizer: Optimizer,
        cycler: BatchCycler,
        lr_schedule: Optional[LRSchedule] = None,
        loss_fn: Optional[Module] = None,
        seed: Optional[int] = None,
        module_rngs: Optional[List[np.random.Generator]] = None,
    ) -> None:
        if model.arena is not optimizer.arena:
            raise ValueError("the optimizer must be built on the model's arena")
        self.model = model
        self.optimizer = optimizer
        self.cycler = cycler
        self.lr_schedule = lr_schedule
        self.loss_fn = loss_fn or CrossEntropyLoss()
        # The arena makes the whole replica state one contiguous vector
        # (and binds every parameter gradient into its flat grad vector);
        # all parameter traffic below goes through it, and the train loop's
        # zero_grad/step are the optimizer's one fill and one kernel call
        # on it.
        self.arena = optimizer.arena
        # The model tree is walked once per replica: pool-recycled devices
        # pass the list their block already holds.
        self._module_rngs = (
            forward_rngs(model) if module_rngs is None else module_rngs
        )
        self._bind(spec, spec.device_id * 7919 + 13 if seed is None else seed)

    def _bind(self, spec: DeviceSpec, seed: int) -> None:
        """The per-occupant half of the constructor: a pool block's shell
        rebinds to its next occupant (replica and cycler stay the
        block's; the cycler rebinds itself)."""
        self.spec = spec
        self.version = 0
        self.busy_until = 0.0
        # Hot path: with no drift and no jitter (the default), every step
        # costs exactly this constant — skip the drift call and RNG draw.
        self._fixed_step_time = (
            spec.base_step_time / spec.power
            if spec.power_drift is None and not spec.jitter
            else None
        )
        # Per-occupant caches, rebuilt on first use: the timing stream
        # (:attr:`_rng`, drawn only under drift or jitter) and the
        # burst signature, whose batch half is the occupant's shard's.
        self._seed = seed
        for cached in ("_rng", "burst_signature"):
            vars(self).pop(cached, None)

    # ------------------------------------------------------------------ #
    # Identity & timing
    # ------------------------------------------------------------------ #
    @property
    def device_id(self) -> int:
        return self.spec.device_id

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seed)

    @cached_property
    def _model_signature(self) -> Optional[Tuple[Hashable, ...]]:
        # The lockstep loop calls softmax_cross_entropy on the stacked
        # logits; exact-type check for the same reason the fleet layer
        # plan uses one.
        if (
            not fleet_capable(self.model)
            or type(self.loss_fn) is not CrossEntropyLoss
            or self.arena.grad_flat is None
        ):
            return None
        return (type(self.model), self.arena.layout())

    @cached_property
    def burst_signature(self) -> Optional[Tuple[Hashable, ...]]:
        """Grouping key for devices that can share one batched burst.

        ``None`` marks a device the batched path cannot take (uncovered
        layer, non-standard loss, or an arena without bound gradients);
        it trains per device.  Devices with equal signatures have
        identical architectures, flat layouts and batch shapes, so their
        per-step batches stack into one ndarray.  The model half is walked
        once per replica, the batch half read once per occupant (a
        population's shards may differ in size).
        """
        model = self._model_signature
        if model is None:
            return None
        cycler = self.cycler
        return model + (
            cycler.batch_size,
            cycler.base_features.shape[1:],
            cycler.base_features.dtype,
            cycler.base_labels.dtype,
        )

    def effective_power(self, at_time: float) -> float:
        power = self.spec.power
        if self.spec.power_drift is not None:
            power *= self.spec.power_drift(at_time)
        if power <= 0:
            raise ValueError(
                f"power_drift produced non-positive power at t={at_time}"
            )
        return power

    def step_time(self, at_time: float = 0.0) -> float:
        """Virtual duration of one local step (with jitter, if any)."""
        if self._fixed_step_time is not None:
            return self._fixed_step_time
        base = self.spec.base_step_time / self.effective_power(at_time)
        if self.spec.jitter:
            base *= float(self._rng.lognormal(mean=0.0, sigma=self.spec.jitter))
        return base

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def plan(
        self, start: float, deadline: float, max_steps: Optional[int]
    ) -> Tuple[int, float]:
        """A burst's virtual timeline, ``(steps, elapsed)``: steps while
        the next one ends by ``deadline``, at most ``max_steps``.

        Each step draws its duration before the deadline test, so a
        deadline burst consumes its final, overshooting draw and a cap
        draws one duration per step.  The timing stream is independent
        of the batch and dropout streams, so both training loops
        (:meth:`train_until` and the batched one in
        :mod:`repro.sim.fleet`) plan first, then train ``steps`` steps.
        """
        _check_bounds(start, deadline, max_steps)
        steps, elapsed = 0, 0.0
        while max_steps is None or steps < max_steps:
            duration = self.step_time(start + elapsed)
            if start + elapsed + duration > deadline:
                break
            elapsed += duration
            steps += 1
        return steps, elapsed

    def finish_burst(
        self, start: float, elapsed: float, losses: List[float]
    ) -> LocalTrainResult:
        """The burst's result; the device is busy until its end."""
        self.busy_until = start + elapsed
        return LocalTrainResult(steps=len(losses), elapsed=elapsed, losses=losses)

    def train_steps(self, steps: int, start_time: float = 0.0) -> LocalTrainResult:
        """Run ``steps`` real SGD steps; return losses + virtual time.

        The learning rate for each step comes from the device's schedule
        evaluated at its cumulative ``version`` (global step index), so
        warm-up behaves identically across devices.
        """
        return self.train_until(math.inf, start_time, steps)

    def train_until(
        self,
        deadline: float,
        start_time: float,
        max_steps: Optional[int] = None,
    ) -> LocalTrainResult:
        """Train until the next step would overshoot ``deadline`` (Alg. 1).

        This is the heterogeneity-aware inner loop: each device fits as
        many local steps as its computing power allows into the window
        ``[start_time, deadline]`` ("if t >= T_sync * t_syn: ek = 0 ...",
        Algorithm 1 lines 5–8).  ``max_steps`` optionally caps the count
        at the strategy generator's assigned E_k; an infinite deadline
        needs it.  The model trains in whatever mode it is in (replicas
        are built in training mode, and ``evaluate`` restores the mode
        it found).
        """
        steps, elapsed = self.plan(start_time, deadline, max_steps)
        losses: List[float] = []
        for _ in range(steps):
            if self.lr_schedule is not None:
                self.optimizer.lr = self.lr_schedule(self.version)
            features, labels = self.cycler.next_batch()
            self.optimizer.zero_grad()
            loss = self.loss_fn(self.model(Tensor(features)), labels)
            loss.backward()
            self.optimizer.step()
            losses.append(float(loss.data))
            self.version += 1
        return self.finish_burst(start_time, elapsed, losses)

    # ------------------------------------------------------------------ #
    # Train-state round-trip
    # ------------------------------------------------------------------ #
    def export_train_state(self) -> dict:
        """Everything a training burst mutates *except* the arena, its
        flat grad vector and the optimizer's flat vectors, which the
        caller copies itself.

        The ``skip_round`` rollback of
        :class:`~repro.core.trainer.HADFLTrainer` snapshots a window with
        it and restores the snapshot with :meth:`import_train_state`;
        replaying the same burst then reproduces the trajectory bitwise:
        batch order, jitter draws, dropout masks, LR schedule position
        and version counters all round-trip exactly.
        """
        return {
            "version": self.version,
            "busy_until": self.busy_until,
            "rng_state": self._rng.bit_generator.state,
            "cycler": self.cycler.get_state(),
            "optimizer": self.optimizer.scalar_state(),
            "module_rng_states": [
                rng.bit_generator.state for rng in self._module_rngs
            ],
        }

    def import_train_state(self, state: dict) -> None:
        self.version = int(state["version"])
        self.busy_until = float(state["busy_until"])
        self._rng.bit_generator.state = state["rng_state"]
        self.cycler.set_state(state["cycler"])
        self.optimizer.load_scalar_state(state["optimizer"])
        module_rngs = self._module_rngs
        saved = state["module_rng_states"]
        if len(saved) != len(module_rngs):
            raise ValueError(
                f"{len(saved)} module RNG states for {len(module_rngs)} modules"
            )
        for rng, rng_state in zip(module_rngs, saved):
            rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def get_params(self) -> np.ndarray:
        """Snapshot of the full model state (one vectorized arena copy)."""
        return self.arena.snapshot()

    def get_params_view(self) -> np.ndarray:
        """Zero-copy read of the live arena (see :meth:`ParamArena.read`).

        The sync path hands these views straight to the collectives,
        which copy on ingest; consume before the next ``set_params``.
        """
        return self.arena.read()

    def set_params(self, flat: np.ndarray) -> None:
        """Vectorized full-state write into the arena."""
        self.arena.write(flat)

    def mix_params(self, incoming: np.ndarray, own_weight: float = 0.5) -> None:
        """Blend an incoming model with the local one (fused, in place).

        Unselected devices "integrate the received model parameters with
        local parameters" after the broadcast (Sec. III-D); equal blending
        is the natural reading and ``own_weight`` exposes the knob.
        """
        if not 0.0 <= own_weight <= 1.0:
            raise ValueError(f"own_weight must be in [0, 1], got {own_weight}")
        self.arena.mix(incoming, own_weight)

    def __repr__(self) -> str:
        return (
            f"Device(id={self.device_id}, power={self.spec.power}, "
            f"version={self.version})"
        )
