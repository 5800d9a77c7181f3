"""The per-device reference loop every executor backend is held to.

``ReferenceExecutor`` runs a batch of bursts one device after another,
each through :func:`~repro.parallel.tasks.execute_task` — the device's
own training loop, with no batching and no workers.  The executor
contract (``repro.sim.executor``) is bitwise identity with exactly this
loop, so parity tests and benches build their reference run on it:
the in-process executor batches by default and cannot be its own
reference.

Pass an instance wherever an executor is accepted
(``ExperimentConfig(executor=ReferenceExecutor())``,
``SimulatedCluster(executor=...)``, ``PopulationTrainer(executor=...)``).
"""

from typing import Dict, Sequence

from repro.parallel.tasks import LocalTrainTask, execute_task
from repro.sim.device import LocalTrainResult
from repro.sim.executor import LocalExecutor


class ReferenceExecutor(LocalExecutor):
    """Bursts run one after another, in task order, each alone."""

    name = "reference"

    def run_tasks(
        self, cluster, tasks: Sequence[LocalTrainTask]
    ) -> Dict[int, LocalTrainResult]:
        self._check_unique(tasks)
        results: Dict[int, LocalTrainResult] = {}
        for task in tasks:
            device = cluster.device_by_id(task.device_id)
            results[task.device_id] = execute_task(device, task)
        return results
