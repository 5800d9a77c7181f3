"""Batched local-training bursts: the engine behind ``executor="fleet"``.

Within a round every live device runs an independent SGD burst — D
architecture-identical replicas doing the same arithmetic on different
data.  This module runs those bursts as *one* lockstep loop of batched
forward/backward calls.  Every device's arena already lives on a row of
its substrate's :class:`~repro.sim.cluster.ArenaPool` slab, so the
burst's ``(D, n)`` parameter and gradient matrices are *views* of D
consecutive rows (:meth:`~repro.sim.cluster.DeviceSubstrate.stack`;
when the members sit elsewhere, one arrange step moves their replica
state onto such rows first — nothing is migrated back afterwards).  A
:class:`~repro.nn.fleet.FleetModule` evaluates all replicas per step,
and each device's own optimizer applies its update through the stacked
gradient rows.

The hard contract is inherited from :mod:`repro.sim.executor`: after a
fleet burst, the devices and results are **bitwise identical** to the
serial per-device loop on the same seeds.  Three properties make that
possible:

* every batched kernel computes per replica slice (see
  :mod:`repro.nn.fleet` and the rank-generic ops in
  :mod:`repro.autograd.ops`);
* the timing stream (``device._rng``) is independent of the
  batch-cycler and dropout streams, so :func:`plan_burst` can pre-draw a
  burst's whole virtual timeline without perturbing any other draw;
* per-stream draw *order* is preserved — cyclers advance in step order,
  dropout masks are drawn in replica order within a step from each
  replica's own generator.

Devices whose model, loss or arena does not support batching simply run
the serial path (:func:`~repro.parallel.tasks.execute_task`) — the
results are identical either way, only the wall-clock differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, softmax_cross_entropy
from repro.nn.fleet import FleetModule, fleet_capable
from repro.nn.losses import CrossEntropyLoss
from repro.parallel.tasks import LocalTrainTask, execute_task
from repro.sim.device import Device, LocalTrainResult

if TYPE_CHECKING:
    # Annotation-only: a runtime import would close the cluster/fleet
    # import cycle (cluster -> executor -> fleet).
    from repro.sim.cluster import DeviceSubstrate


def plan_burst(device: Device, task: LocalTrainTask) -> Tuple[int, float]:
    """Pre-draw a burst's virtual timeline; return ``(steps, elapsed)``.

    Consumes ``device._rng`` in exactly the order the serial loop would:
    ``train_steps`` draws one step duration per step, ``train_until``
    draws before each step and consumes the final overshooting draw.
    The jitter stream is independent of the batch-cycler and dropout
    streams, so drawing the whole timeline up front leaves every RNG in
    the same final state as serial execution.
    """
    elapsed = 0.0
    if task.num_steps is not None:
        if task.num_steps < 0:
            raise ValueError(
                f"num_steps must be non-negative, got {task.num_steps}"
            )
        for _ in range(task.num_steps):
            elapsed += device.step_time(task.start_time + elapsed)
        return task.num_steps, elapsed
    deadline = float(task.deadline)  # type: ignore[arg-type]
    if deadline < task.start_time:
        raise ValueError(
            f"deadline {deadline} precedes start_time {task.start_time}"
        )
    steps = 0
    while task.max_steps is None or steps < task.max_steps:
        duration = device.step_time(task.start_time + elapsed)
        if task.start_time + elapsed + duration > deadline:
            break
        elapsed += duration
        steps += 1
    return steps, elapsed


def burst_signature(device: Device) -> Optional[Tuple[Hashable, ...]]:
    """Grouping key for devices that can share one batched burst.

    ``None`` marks a device the fleet path cannot batch (uncovered
    layer, non-standard loss, or an arena without bound gradients);
    such devices fall back to the serial path.  Devices with equal
    signatures have identical architectures, flat layouts and batch
    shapes, so their per-step batches stack into one ndarray.
    """
    model = device.model
    if not fleet_capable(model):
        return None
    # The lockstep loop calls softmax_cross_entropy on the stacked logits;
    # exact-type check for the same reason the handler registry uses one.
    if type(device.loss_fn) is not CrossEntropyLoss:
        return None
    if device.arena.grad_flat is None:
        return None
    cycler = device.cycler
    return (
        type(model),
        device.arena.layout(),
        cycler.batch_size,
        cycler.base_features.shape[1:],
        cycler.base_features.dtype,
        cycler.base_labels.dtype,
    )


def _finalise(
    device: Device,
    task: LocalTrainTask,
    steps: int,
    elapsed: float,
    losses: List[float],
) -> LocalTrainResult:
    device.busy_until = task.start_time + elapsed
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return LocalTrainResult(
        steps=steps, elapsed=elapsed, mean_loss=mean_loss, losses=losses
    )


def _run_group(
    substrate: "DeviceSubstrate", items: Sequence[Tuple[Device, LocalTrainTask]]
) -> Dict[int, LocalTrainResult]:
    """Run one signature group of bursts as a lockstep batched loop."""
    planned: List[Tuple[Device, LocalTrainTask, int, float]] = []
    for device, task in items:
        steps, elapsed = plan_burst(device, task)
        device.model.train()
        planned.append((device, task, steps, elapsed))

    results: Dict[int, LocalTrainResult] = {}
    active = [entry for entry in planned if entry[2] > 0]
    for device, task, steps, elapsed in planned:
        if steps == 0:
            results[device.device_id] = _finalise(device, task, 0, elapsed, [])
    if not active:
        return results

    # Descending step counts, ties in slab-row order: at lockstep step s
    # the devices still training form the prefix of length k, so every
    # batched call is a contiguous `count=k` slice of the stacked rows.
    active.sort(key=lambda entry: (-entry[2], substrate.row_of(entry[0].device_id)))
    devices = [entry[0] for entry in active]
    stack, grad_stack = substrate.stack(devices)
    module = FleetModule(
        [d.model for d in devices],
        stack,
        devices[0].arena.layout(),
        grad_stack=grad_stack,
    )
    losses_per: List[List[float]] = [[] for _ in devices]
    k = len(devices)
    for step in range(active[0][2]):
        while active[k - 1][2] <= step:
            k -= 1
        for i in range(k):
            device = devices[i]
            if device.lr_schedule is not None:
                device.optimizer.lr = device.lr_schedule(device.version)
        batches = [devices[i].cycler.next_batch() for i in range(k)]
        features = np.stack([batch[0] for batch in batches])
        labels = np.stack([batch[1] for batch in batches])
        for i in range(k):
            devices[i].optimizer.zero_grad()
        module.sync_grad_liveness(k)
        logits = module.forward(Tensor(features), count=k)
        loss_vec = softmax_cross_entropy(logits, labels)
        # Seed every replica's loss with 1.0 — exactly the scalar
        # backward each serial burst would start from.
        loss_vec.backward(np.ones(k, dtype=np.float64))
        module.adopt_member_grads(k)
        for i in range(k):
            device = devices[i]
            device.optimizer.step()
            losses_per[i].append(float(loss_vec.data[i]))
            device.version += 1

    for i, (device, task, steps, elapsed) in enumerate(active):
        results[device.device_id] = _finalise(
            device, task, steps, elapsed, losses_per[i]
        )
    return results


def run_fleet_tasks(
    substrate: "DeviceSubstrate", tasks: Sequence[LocalTrainTask]
) -> Dict[int, LocalTrainResult]:
    """Execute a batch of bursts, batching compatible devices together.

    Devices are grouped by :func:`burst_signature`; each group trains in
    one lockstep batched loop, everything else (unknown layers, custom
    losses, singleton groups) runs serially.  Results are returned in
    task order, keyed by device id, bitwise identical to
    :class:`~repro.sim.executor.SerialExecutor` output.
    """
    serial: List[Tuple[Device, LocalTrainTask]] = []
    groups: Dict[Tuple[Hashable, ...], List[Tuple[Device, LocalTrainTask]]] = {}
    for task in tasks:
        device = substrate.device_by_id(task.device_id)
        signature = burst_signature(device)
        if signature is None:
            serial.append((device, task))
        else:
            groups.setdefault(signature, []).append((device, task))

    results: Dict[int, LocalTrainResult] = {}
    for device, task in serial:
        results[device.device_id] = execute_task(device, task)
    for items in groups.values():
        if len(items) == 1:
            # A fleet of one would only add stacking overhead; the serial
            # path is the same trajectory by contract.
            device, task = items[0]
            results[device.device_id] = execute_task(device, task)
        else:
            results.update(_run_group(substrate, items))
    return {task.device_id: results[task.device_id] for task in tasks}


__all__ = ["burst_signature", "plan_burst", "run_fleet_tasks"]
