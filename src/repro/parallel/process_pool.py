"""Fork-based persistent worker pool with shared-memory state transfer.

The pool is the engine behind ``ProcessExecutor``:

* Workers are forked once per (pool, cluster) and inherit full device
  replicas — model, optimizer, shard — for free via copy-on-write, so no
  factory ever needs to be picklable.
* Per task, the parent packs the device's arena + grad vector +
  optimizer flat vectors (:func:`export_state_into`) into that device's
  slot of one shared fp64 block (``mp.RawArray``: an anonymous shared
  mapping both sides address directly, no serialisation) and pipes over
  the small state (RNG streams, cycler order, counters).
* The worker overwrites its inherited replica with the shipped state,
  runs the burst through the per-device loop (``Device.train_until``),
  writes the mutated vectors back into the same slot and pipes the small
  state home.  The parent then restores both into the
  *live* device, so after ``run()`` the cluster is in exactly the state
  serial execution would have produced — bitwise, the contract the
  parity tests in ``tests/test_executor.py`` pin.

Tasks are handed to workers dynamically (first idle worker takes the next
task), which load-balances heterogeneous bursts; results are keyed by
device id, so the assignment order cannot affect the outcome.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.device import LocalTrainResult, LocalTrainTask


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


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    return "fork" in mp.get_all_start_methods()


def _worker_loop(conn, devices: dict, shm, layout: dict) -> None:
    """Worker body: serve bursts until the parent sends ``None``."""
    buf = np.frombuffer(shm, dtype=np.float64)
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            task, small_state = message
            device = devices[task.device_id]
            offset, scalars = layout[task.device_id]
            slot = buf[offset : offset + scalars]
            import_state_from(device, slot)
            device.import_train_state(small_state)
            result = device.train_until(
                task.deadline, task.start_time, task.max_steps
            )
            export_state_into(device, slot)
            conn.send(
                (
                    task.device_id,
                    result.steps,
                    result.elapsed,
                    result.losses,
                    device.export_train_state(),
                )
            )
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class ForkedDevicePool:
    """Persistent forked workers executing device bursts concurrently.

    Parameters
    ----------
    devices:
        The live devices this pool may serve (the parent's objects; the
        workers fork replicas of exactly these).
    num_workers:
        Worker process count; capped at the device count — more workers
        than devices can never be busy simultaneously.
    """

    def __init__(self, devices: Sequence, num_workers: int):
        if not fork_available():
            raise RuntimeError(
                "ForkedDevicePool requires the fork start method; "
                "use the serial executor on this platform"
            )
        if not devices:
            raise ValueError("need at least one device")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._devices = {d.device_id: d for d in devices}
        self._layout: Dict[int, tuple] = {}
        total = 0
        for device in devices:
            scalars = device_state_scalars(device)
            self._layout[device.device_id] = (total, scalars)
            total += scalars
        self._shm = mp.RawArray(ctypes.c_double, max(1, total))
        self._buf = np.frombuffer(self._shm, dtype=np.float64)
        self.num_workers = min(num_workers, len(devices))

        context = mp.get_context("fork")
        self._workers: List[tuple] = []
        for _ in range(self.num_workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop,
                args=(child_conn, self._devices, self._shm, self._layout),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((process, parent_conn))
        self._closed = False

    # ------------------------------------------------------------------ #
    def _slot(self, device_id: int) -> np.ndarray:
        offset, scalars = self._layout[device_id]
        return self._buf[offset : offset + scalars]

    def _dispatch(self, conn, task: LocalTrainTask) -> None:
        device = self._devices[task.device_id]
        export_state_into(device, self._slot(task.device_id))
        conn.send((task, device.export_train_state()))

    def _collect(self, conn) -> tuple:
        device_id, steps, elapsed, losses, small_state = conn.recv()
        device = self._devices[device_id]
        import_state_from(device, self._slot(device_id))
        device.import_train_state(small_state)
        return device_id, LocalTrainResult(steps=steps, elapsed=elapsed, losses=losses)

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[LocalTrainTask]) -> Dict[int, LocalTrainResult]:
        """Execute all tasks; returns results keyed by device id.

        The live devices are updated in place exactly as serial execution
        would.  A batch may contain at most one task per device (two
        concurrent bursts on one replica have no serial counterpart).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        ids = [t.device_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids in task batch: {ids}")
        unknown = [i for i in ids if i not in self._devices]
        if unknown:
            raise KeyError(f"tasks reference unknown devices {unknown}")

        results: Dict[int, LocalTrainResult] = {}
        pending = list(tasks)
        idle = [conn for _, conn in self._workers]
        inflight: Dict[object, LocalTrainTask] = {}
        while pending or inflight:
            while pending and idle:
                conn = idle.pop()
                task = pending.pop(0)
                self._dispatch(conn, task)
                inflight[conn] = task
            if not inflight:
                break
            for conn in _connection_wait(list(inflight)):
                device_id, result = self._collect(conn)
                results[device_id] = result
                del inflight[conn]
                idle.append(conn)
        return results

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for process, conn in self._workers:
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for process, _ in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
