"""Pluggable local-training execution backends.

Within a round, devices train on independent replicas until the
synchronisation barrier — embarrassingly parallel work the simulator
historically ran serially in Python.  An executor receives the round's
bursts as :class:`~repro.parallel.tasks.LocalTrainTask` batches and runs
them with whatever concurrency its backend offers, under one hard
contract: **after ``run_tasks`` returns, the live devices and the
returned results are bitwise identical to serial execution** on the same
seeds — device jitter RNG, batch-cycler order, dropout streams and
optimizer state all round-trip exactly (enforced by
``tests/test_executor.py``).

Backends
--------
``serial``
    Today's behaviour: one burst after another on the calling thread.
``process``
    A :class:`~repro.parallel.process_pool.ForkedDevicePool`: persistent
    forked workers, per-device arena/optimizer state shipped through one
    shared-memory block, small state (RNG, cycler, counters) over pipes.
    Falls back to serial with a warning where fork is unavailable.
    Needs single-threaded BLAS in the workers: it warns once when none
    of ``OMP/OPENBLAS/MKL_NUM_THREADS`` is set.
``fleet``
    Replica-batched execution (:mod:`repro.sim.fleet`): compatible
    devices train as one lockstep loop of batched forward/backward
    calls over a :class:`~repro.comm.params.FleetArena` stack; devices
    the batched kernels cannot cover fall back to the serial path.

Select a backend with ``SimulatedCluster(executor="process")``,
``ExperimentConfig(executor=...)`` or
``python -m repro run --executor process``.
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.parallel.tasks import LocalTrainTask, execute_task
from repro.sim.device import LocalTrainResult

if TYPE_CHECKING:
    # Annotation-only: a runtime import would close the cluster/executor
    # import cycle.
    from repro.sim.cluster import SimulatedCluster

# repro.parallel.process_pool is imported lazily inside ProcessExecutor:
# it needs repro.sim.device, so a module-level import here would close an
# import cycle when the interpreter enters through `import repro.parallel`.

EXECUTOR_NAMES = ("serial", "process", "fleet")

# Read, never set: forked workers inherit the parent's BLAS thread pool
# size, and W workers x T BLAS threads oversubscribe the cores.
BLAS_PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class LocalExecutor:
    """Base interface: run a batch of local-training bursts.

    Parameters
    ----------
    workers:
        Backend concurrency; ``None`` picks ``min(devices, cpu_count)``.
    """

    name = "base"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    # ------------------------------------------------------------------ #
    def run_tasks(
        self, cluster: "SimulatedCluster", tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        """Execute every task; return results keyed by device id.

        Implementations must leave the cluster's devices in exactly the
        state serial execution would produce.
        """
        raise NotImplementedError

    @staticmethod
    def _check_unique(tasks: Sequence[LocalTrainTask]) -> None:
        """Reject duplicate devices in one batch — every backend alike.

        Two bursts on one replica have no serial counterpart (results
        are keyed by device id, and parallel backends would race on the
        device's state), so the contract forbids them uniformly.
        """
        ids = [t.device_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids in task batch: {ids}")

    def close(self) -> None:
        """Release backend resources (idempotent; executor stays usable —
        pools are rebuilt lazily on the next ``run_tasks``)."""

    def _effective_workers(self, num_tasks: int) -> int:
        if self.workers is not None:
            return self.workers
        return max(1, min(num_tasks, os.cpu_count() or 1))

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LocalExecutor":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(LocalExecutor):
    """Reference backend: bursts run one after another, in task order."""

    name = "serial"

    def run_tasks(
        self, cluster: "SimulatedCluster", tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        self._check_unique(tasks)
        results: Dict[int, LocalTrainResult] = {}
        for task in tasks:
            device = cluster.device_by_id(task.device_id)
            results[task.device_id] = execute_task(device, task)
        return results


class ProcessExecutor(LocalExecutor):
    """Forked-worker backend with shared-memory state transfer.

    The pool is built lazily against the first cluster it serves and
    rebuilt if a different device set shows up; ``close()`` drops it (and
    its worker processes) without retiring the executor.  Where the
    platform lacks fork, bursts silently run serially (the results are
    identical either way — that is the contract).
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        self._pool = None
        # Strong references to the devices the pool was forked for: the
        # pool is stale the moment the cluster's device objects differ.
        # Holding the references pins their identity, so the `is` checks
        # below can never be confused by interpreter id reuse.
        self._pool_devices: Optional[list] = None
        # One environment warning per executor: no fork, or (with fork)
        # unpinned BLAS — the two are never both reachable.
        self._warned = False

    def run_tasks(
        self, cluster: "SimulatedCluster", tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        from repro.parallel.process_pool import ForkedDevicePool, fork_available

        if not tasks:
            return {}
        self._check_unique(tasks)
        if not fork_available():
            if not self._warned:
                warnings.warn(
                    "fork start method unavailable; ProcessExecutor running "
                    "serially (results are identical by contract)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._warned = True
            return SerialExecutor().run_tasks(cluster, tasks)
        devices = list(cluster.devices)
        stale = (
            self._pool is None
            or self._pool_devices is None
            or len(self._pool_devices) != len(devices)
            or any(a is not b for a, b in zip(self._pool_devices, devices))
        )
        if stale:
            if self._pool is not None:
                self._pool.close()
            workers = self._effective_workers(len(devices))
            if (
                workers > 1
                and not self._warned
                and not any(os.environ.get(var) for var in BLAS_PIN_VARS)
            ):
                warnings.warn(
                    "BLAS threads unpinned: forked workers oversubscribe — "
                    "measured 0.34–0.44× serial on 2 cores; "
                    "export OPENBLAS_NUM_THREADS=1",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._warned = True
            self._pool = ForkedDevicePool(devices, workers)
            self._pool_devices = devices
        return self._pool.run(tasks)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_devices = None


class FleetExecutor(LocalExecutor):
    """Replica-batched backend: one vectorised loop instead of D loops.

    Groups architecture-identical devices and trains each group through
    batched fleet kernels (see :mod:`repro.sim.fleet`); incompatible
    devices run the ordinary serial path.  ``workers`` is accepted for
    interface uniformity but unused — the batching happens inside NumPy
    kernels, not across Python workers.
    """

    name = "fleet"

    def run_tasks(
        self, cluster: "SimulatedCluster", tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        # Lazy import: repro.sim.fleet needs repro.nn.fleet, keeping the
        # heavy batched machinery out of plain-serial start-up.
        from repro.sim.fleet import run_fleet_tasks

        if not tasks:
            return {}
        self._check_unique(tasks)
        return run_fleet_tasks(cluster, tasks)


_EXECUTORS = {
    cls.name: cls for cls in (SerialExecutor, ProcessExecutor, FleetExecutor)
}
assert tuple(_EXECUTORS) == EXECUTOR_NAMES


def make_executor(
    spec: Union[str, LocalExecutor, None], workers: Optional[int] = None
) -> LocalExecutor:
    """Resolve an executor knob: a name, an instance, or ``None`` (serial)."""
    if spec is None:
        return SerialExecutor(workers)
    if isinstance(spec, LocalExecutor):
        return spec
    try:
        factory = _EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; choose from {EXECUTOR_NAMES}"
        ) from None
    return factory(workers)
