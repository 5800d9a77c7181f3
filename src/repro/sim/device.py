"""A simulated training device: real SGD, virtual wall-clock.

Each device owns a local model replica, optimizer, and data shard.  Its
*computing power* scales the virtual time a local step costs — replacing
the paper's ``sleep()``-based throttling of real V100s ("use the sleep()
function to simulate different degrees of heterogeneity and use an array
to represent the computing power ratio", Sec. IV-A).  Gradients, losses
and accuracies are real (NumPy) numbers; only time is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.comm.params import ParamArena
from repro.data.loader import BatchCycler
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
        ``power * power_drift(t)``.  Used by the predictor ablation.
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


@dataclass
class LocalTrainResult:
    """Outcome of a burst of local steps."""

    steps: int
    elapsed: float
    mean_loss: float
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
        arena: Optional[ParamArena] = None,
        module_rngs: Optional[List[np.random.Generator]] = None,
    ) -> None:
        self.spec = spec
        self.model = model
        self.optimizer = optimizer
        self.cycler = cycler
        self.lr_schedule = lr_schedule
        self.loss_fn = loss_fn or CrossEntropyLoss()
        # The arena makes the whole replica state one contiguous vector
        # (and binds every parameter gradient into its flat grad vector);
        # all parameter traffic below goes through it, and the train loop's
        # zero_grad/step hit the optimizer's flat fill / one-kernel-call
        # step.  Pool-recycled devices pass the block's existing
        # arena: a fresh ParamArena over the same model would re-bind
        # parameter storage and silently break the optimizer's
        # adopted flat-vector aliasing.
        self.arena = ParamArena(model) if arena is None else arena
        # The model tree is walked once per replica: pool-recycled devices
        # pass the list their block already holds.
        self._module_rngs = (
            forward_rngs(model) if module_rngs is None else module_rngs
        )
        self.version = 0
        self.busy_until = 0.0
        # Hot path: with no drift and no jitter (the default), every step
        # costs exactly this constant — skip the drift call and RNG draw.
        self._fixed_step_time = (
            spec.base_step_time / spec.power
            if spec.power_drift is None and not spec.jitter
            else None
        )
        self._rng = np.random.default_rng(
            spec.device_id * 7919 + 13 if seed is None else seed
        )

    # ------------------------------------------------------------------ #
    # Identity & timing
    # ------------------------------------------------------------------ #
    @property
    def device_id(self) -> int:
        return self.spec.device_id

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

    def epoch_time(self, at_time: float = 0.0) -> float:
        """Expected virtual duration of one pass over the local shard."""
        return self.cycler.batches_per_epoch * (
            self.spec.base_step_time / self.effective_power(at_time)
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_steps(self, num_steps: int, start_time: float = 0.0) -> LocalTrainResult:
        """Run ``num_steps`` real SGD steps; return losses + virtual time.

        The learning rate for each step comes from the device's schedule
        evaluated at its cumulative ``version`` (global step index), so
        warm-up behaves identically across devices.
        """
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        return self._burst(float("inf"), start_time, num_steps)

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
        at the strategy generator's assigned E_k.
        """
        if deadline < start_time:
            raise ValueError(
                f"deadline {deadline} precedes start_time {start_time}"
            )
        return self._burst(deadline, start_time, max_steps)

    def _burst(
        self, deadline: float, start_time: float, max_steps: Optional[int]
    ) -> LocalTrainResult:
        """The local-step loop behind both entry points (they call it
        directly, never one through the other).  A fixed step count is
        an infinite deadline: the cap is tested before the duration is
        drawn, so ``n`` steps draw ``n`` durations either way."""
        self.model.train()
        losses: List[float] = []
        elapsed = 0.0
        while max_steps is None or len(losses) < max_steps:
            duration = self.step_time(start_time + elapsed)
            if start_time + elapsed + duration > deadline:
                break
            if self.lr_schedule is not None:
                self.optimizer.lr = self.lr_schedule(self.version)
            features, labels = self.cycler.next_batch()
            self.optimizer.zero_grad()
            loss = self.loss_fn(self.model(Tensor(features)), labels)
            loss.backward()
            self.optimizer.step()
            losses.append(float(loss.data))
            elapsed += duration
            self.version += 1
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.busy_until = start_time + elapsed
        return LocalTrainResult(
            steps=len(losses), elapsed=elapsed, mean_loss=mean_loss, losses=losses
        )

    # ------------------------------------------------------------------ #
    # Executor state round-trip
    # ------------------------------------------------------------------ #
    def export_train_state(self) -> dict:
        """Everything a training burst mutates *except* the arena, its
        flat grad vector and the optimizer's flat vectors (those are
        large and travel through shared memory — see
        :mod:`repro.parallel`).

        Restoring this snapshot on an architecture-identical replica and
        replaying the same burst reproduces the serial trajectory
        bitwise: batch order, jitter draws, dropout masks, LR schedule
        position and version counters all round-trip exactly.
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
