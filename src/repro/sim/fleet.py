"""Batched local-training bursts: the engine of the in-process executor.

Within a round every live device runs an independent SGD burst — D
architecture-identical replicas doing the same arithmetic on different
data.  This module runs those bursts as lockstep loops of batched
forward/backward calls.  Every device's arena already lives on a row of
its substrate's :class:`~repro.sim.cluster.ArenaPool` slab, so a run of
devices on consecutive rows *is* a ``(D, n)`` parameter matrix and its
gradient twin (:meth:`~repro.sim.cluster.DeviceSubstrate.stack`, views,
no copy).  Devices are grouped by
:attr:`~repro.sim.device.Device.burst_signature`, whose model half is
computed once per replica.  Each signature group is planned first
(:meth:`~repro.sim.device.Device.plan`, the one timeline planner), then
batched per maximal run of consecutive rows along which planned steps
do not increase — HADFL's heterogeneity-aware step counts make a run's
active prefix shrink as its short-step devices finish.  Nothing is moved to
build a run: population bursts materialise strongest-first, so each one
already is a single run.  A :class:`~repro.nn.fleet.FleetModule`
(:meth:`~repro.sim.cluster.DeviceSubstrate.fleet`: built once per run
of rows, kept across pool releases until a slab regrowth) evaluates a
run's replicas per step on one stacked input each cycler gathers its
batch into — the whole model as one autograd node — and each device's
own optimizer applies its update through the stacked gradient rows.
There is no per-device fill: no device calls ``zero_grad`` in the
lockstep loop, because the batched backward writes every element of
the run's gradient rows without reading one
(:meth:`~repro.nn.fleet.FleetModule.adopt_member_grads`).

The hard contract is inherited from :mod:`repro.sim.executor`: after a
batched burst, the devices and results are **bitwise identical** to the
per-device loop on the same seeds.  Three properties make that
possible:

* every batched NumPy call computes per replica slice, and the
  gradient writes leave the bytes the serial ``zero_grad`` + backward
  leaves (see :mod:`repro.nn.fleet` and the rank-generic ops in
  :mod:`repro.autograd.ops`);
* the timing stream (``device._rng``) is independent of the
  batch-cycler and dropout streams, so ``Device.plan`` draws a burst's
  whole virtual timeline up front without perturbing any other draw;
* per-stream draw *order* is preserved — cyclers advance in step order,
  dropout masks are drawn in replica order within a step from each
  replica's own generator.

Devices whose model, loss or arena does not support batching, and a
group of one, train per device
(:meth:`~repro.sim.device.Device.train_until`: the same plan, then one
step at a time) — the results are identical either way, only the
wall-clock differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, softmax_cross_entropy
from repro.sim.device import Device, LocalTrainResult, LocalTrainTask

if TYPE_CHECKING:
    # Annotation-only: a runtime import would close the cluster/fleet
    # import cycle (cluster -> executor -> fleet).
    from repro.sim.cluster import DeviceSubstrate


_Planned = Tuple[Device, LocalTrainTask, int, float]


def _run_group(
    substrate: "DeviceSubstrate", items: Sequence[Tuple[Device, LocalTrainTask]]
) -> Dict[int, LocalTrainResult]:
    """Plan one signature group's bursts, then train each maximal run of
    consecutive slab rows along which planned steps do not increase."""
    results: Dict[int, LocalTrainResult] = {}
    runs: List[List[_Planned]] = []
    last_row = -2
    by_row = sorted(items, key=lambda item: substrate.row_of(item[0].device_id))
    for device, task in by_row:
        steps, elapsed = device.plan(task.start_time, task.deadline, task.max_steps)
        if steps == 0:
            results[device.device_id] = device.finish_burst(
                task.start_time, elapsed, []
            )
            continue
        row = substrate.row_of(device.device_id)
        if row == last_row + 1 and steps <= runs[-1][-1][2]:
            runs[-1].append((device, task, steps, elapsed))
        else:
            runs.append([(device, task, steps, elapsed)])
        last_row = row
    for run in runs:
        results.update(_train_run(substrate, run))
    return results


def _train_run(
    substrate: "DeviceSubstrate", run: Sequence[_Planned]
) -> Dict[int, LocalTrainResult]:
    """Train one run of planned bursts as a lockstep batched loop over its
    slab rows.  Steps do not increase along the run, so at lockstep step
    s the devices still training form a prefix of length k and every
    batched call is a contiguous ``count=k`` slice of the stacked rows.
    A run of one is a D = 1 stack on its already-drawn timeline."""
    devices = [entry[0] for entry in run]
    module = substrate.fleet(devices)
    # Every device gathers its batch straight into its row of one input.
    cycler = devices[0].cycler
    features = np.empty(
        (len(devices), cycler.batch_size) + cycler.base_features.shape[1:],
        dtype=cycler.base_features.dtype,
    )
    losses_per: List[List[float]] = [[] for _ in devices]
    k = len(devices)
    for step in range(run[0][2]):
        while run[k - 1][2] <= step:
            k -= 1
        for i in range(k):
            device = devices[i]
            if device.lr_schedule is not None:
                device.optimizer.lr = device.lr_schedule(device.version)
        labels = np.stack(
            [devices[i].cycler.next_batch(out=features[i])[1] for i in range(k)]
        )
        # No per-device zero_grad: the batched backward writes every
        # element of the k gradient rows (FleetModule.adopt_member_grads).
        logits = module.forward(Tensor(features[:k]), count=k)
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

    return {
        device.device_id: device.finish_burst(task.start_time, elapsed, losses)
        for (device, task, _, elapsed), losses in zip(run, losses_per)
    }


def run_fleet_tasks(
    substrate: "DeviceSubstrate", tasks: Sequence[LocalTrainTask]
) -> Dict[int, LocalTrainResult]:
    """Execute a batch of bursts, batching compatible devices together.

    Devices are grouped by their burst signature; each group trains as
    lockstep batched loops, one per run of its slab rows, everything else
    (unknown layers, custom losses, singleton groups) per device.
    Results are returned in task order, keyed by device id, bitwise
    identical to running every burst alone.
    """
    serial: List[Tuple[Device, LocalTrainTask]] = []
    groups: Dict[Tuple[Hashable, ...], List[Tuple[Device, LocalTrainTask]]] = {}
    for task in tasks:
        device = substrate.device_by_id(task.device_id)
        signature = device.burst_signature
        if signature is None:
            serial.append((device, task))
        else:
            groups.setdefault(signature, []).append((device, task))

    # A fleet of one would only add stacking overhead; the per-device
    # loop is the same trajectory by contract.
    serial += [items[0] for items in groups.values() if len(items) == 1]
    results: Dict[int, LocalTrainResult] = {}
    for device, task in serial:
        results[device.device_id] = device.train_until(
            task.deadline, task.start_time, task.max_steps
        )
    for items in groups.values():
        if len(items) > 1:
            results.update(_run_group(substrate, items))
    return {task.device_id: results[task.device_id] for task in tasks}


__all__ = ["run_fleet_tasks"]
