"""Local-training task descriptors and flat-state shipping helpers.

A :class:`LocalTrainTask` describes one device's burst for the current
round — either an exact step count (warm-up, the synchronous baselines)
or a deadline burst (HADFL's heterogeneity-aware window).  Executors run
tasks through :func:`execute_task`, which is the *only* place a backend
touches a device's training loop, so every backend shares the serial
semantics by construction.

The state helpers pack the large per-device vectors — the parameter
arena, its flat gradient vector, and the optimizer's flat state
(momentum / Adam moments) — into one contiguous fp64 slot, the unit the
process backend ships through shared memory.  Small state (RNG streams,
cycler order, version counters) travels separately via
:meth:`repro.sim.device.Device.export_train_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LocalTrainTask:
    """One device's local-training burst within a round.

    Exactly one of ``num_steps`` (run this many steps) and ``deadline``
    (train until the next step would overshoot) must be set.
    ``max_steps`` optionally caps a deadline burst at the strategy
    generator's budget.
    """

    device_id: int
    num_steps: Optional[int] = None
    deadline: Optional[float] = None
    start_time: float = 0.0
    max_steps: Optional[int] = None

    def __post_init__(self):
        if (self.num_steps is None) == (self.deadline is None):
            raise ValueError(
                "exactly one of num_steps and deadline must be set, got "
                f"num_steps={self.num_steps}, deadline={self.deadline}"
            )
        if self.num_steps is not None and self.num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {self.num_steps}")


def execute_task(device, task: LocalTrainTask):
    """Run one burst on ``device``; returns its ``LocalTrainResult``."""
    if task.num_steps is not None:
        return device.train_steps(task.num_steps, start_time=task.start_time)
    return device.train_until(
        task.deadline, start_time=task.start_time, max_steps=task.max_steps
    )


# ---------------------------------------------------------------------- #
# Flat-state shipping: [arena | grad vector | optimizer flat vectors]
# per device.
# ---------------------------------------------------------------------- #


def _state_vectors(device):
    """The dense fp64 vectors shipped alongside the arena, in slot order.

    The grad arena rides along so a replica's post-burst gradient state
    (the values the last local step accumulated) is identical whether the
    burst ran serially or on a forked worker — the bitwise-parity
    contract covers gradients too, and future wire quantisers (DGC/QSGD
    importance scoring) read them between bursts.
    """
    vectors = []
    grad_flat = device.arena.grad_flat
    if grad_flat is not None:
        vectors.append(grad_flat)
    vectors.extend(device.optimizer.flat_state())
    return vectors


def device_state_scalars(device) -> int:
    """fp64 scalars of a device's slot (arena + grads + optimizer)."""
    return device.arena.num_scalars + sum(
        int(vec.size) for vec in _state_vectors(device)
    )


def export_state_into(device, slot: np.ndarray) -> None:
    """Copy the device's arena, grad and optimizer vectors into ``slot``."""
    n = device.arena.num_scalars
    device.arena.export_into(slot[:n])
    cursor = n
    for vec in _state_vectors(device):
        size = int(vec.size)
        slot[cursor : cursor + size] = vec.reshape(-1)
        cursor += size
    if cursor != slot.size:
        raise ValueError(f"slot has {slot.size} scalars, packed {cursor}")


def import_state_from(device, slot: np.ndarray) -> None:
    """Write ``slot`` back into the device's arena/grad/optimizer vectors."""
    n = device.arena.num_scalars
    device.arena.write(slot[:n])
    cursor = n
    for vec in _state_vectors(device):
        size = int(vec.size)
        vec.reshape(-1)[:] = slot[cursor : cursor + size]
        cursor += size
    device.arena.mark_grads_written()
    if cursor != slot.size:
        raise ValueError(f"slot has {slot.size} scalars, consumed {cursor}")
