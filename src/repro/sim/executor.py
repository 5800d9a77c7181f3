"""The local-training executor.

Within a round, devices train on independent replicas until the
synchronisation barrier.  An executor receives the round's bursts as
:class:`~repro.sim.device.LocalTrainTask` batches (a start, a deadline
and a step cap each) and runs them under one hard contract: **after
``run_tasks`` returns, the live devices and the returned results are
bitwise identical to running every burst alone, one device after
another** on the same seeds — device jitter RNG,
batch-cycler order, dropout streams and optimizer state all round-trip
exactly (enforced against the interleaved reference loop in
``tests/reference_executor.py`` by ``tests/test_executor.py``).  Bursts
are timed with the one planner,
:meth:`~repro.sim.device.Device.plan`, and trained either batched
(:mod:`repro.sim.fleet`) or per device
(:meth:`~repro.sim.device.Device.train_until`).

There is one executor, :class:`SerialExecutor`, named ``"serial"`` (the
default) and ``"fleet"``: in-process, every run of fleet-capable devices
on consecutive slab rows of the substrate's
:class:`~repro.sim.cluster.ArenaPool` trains as one lockstep loop of
batched forward/backward calls (:mod:`repro.sim.fleet`); everything else
(conv, norm or pool models, custom losses, a lone device) trains per
device.  :class:`LocalExecutor` is the interface a test substitutes
(``tests/reference_executor.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Union

from repro.sim.device import LocalTrainResult, LocalTrainTask
from repro.sim.fleet import run_fleet_tasks

if TYPE_CHECKING:
    # Annotation-only: a runtime import would close the cluster/executor
    # import cycle.
    from repro.sim.cluster import SimulatedCluster

EXECUTOR_NAMES = ("serial", "fleet")


class LocalExecutor:
    """Base interface: run a batch of local-training bursts."""

    name = "base"

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
        """Reject duplicate devices in one batch.

        Two bursts on one replica have no serial counterpart (results
        are keyed by device id), so the contract forbids them.
        """
        ids = [t.device_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids in task batch: {ids}")


class SerialExecutor(LocalExecutor):
    """The in-process backend: batched runs of fleet-capable devices, the
    rest per device, all on the calling thread (``"serial"`` and
    ``"fleet"`` both name it); the batching happens inside NumPy
    kernels."""

    name = "serial"

    def run_tasks(
        self, cluster: "SimulatedCluster", tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        self._check_unique(tasks)
        return run_fleet_tasks(cluster, tasks)


# "fleet" names the in-process executor too: it batches by default.
_EXECUTORS = {
    "serial": SerialExecutor,
    "fleet": SerialExecutor,
}
assert tuple(_EXECUTORS) == EXECUTOR_NAMES


def make_executor(spec: Union[str, LocalExecutor, None]) -> LocalExecutor:
    """Resolve an executor knob: a name, an instance, or ``None`` (the
    in-process executor)."""
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, LocalExecutor):
        return spec
    try:
        factory = _EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; choose from {EXECUTOR_NAMES}"
        ) from None
    return factory()
