"""The per-device reference loop every executor backend is held to.

``ReferenceExecutor`` runs a batch of bursts one device after another,
each through :func:`reference_burst` — the interleaved draw-and-train
loop the simulator's devices ran before the timeline got a planner of
its own: each step draws its duration, tests the deadline, then trains.
It calls neither :meth:`~repro.sim.device.Device.plan` nor
:meth:`~repro.sim.device.Device.train_until`, so it stays an
independent statement of a burst: the planner, the per-device loop and
the batched loop are all held to it.  The executor contract
(``repro.sim.executor``) is bitwise identity with exactly this loop, so
parity tests and benches build their reference run on it.

Pass an instance wherever an executor is accepted
(``ExperimentConfig(executor=ReferenceExecutor())``,
``SimulatedCluster(executor=...)``, ``PopulationTrainer(executor=...)``).
"""

from typing import Dict, List, Optional, Sequence

from repro.autograd import Tensor
from repro.sim.device import LocalTrainResult, LocalTrainTask
from repro.sim.executor import LocalExecutor


def reference_burst(
    device, deadline: float, start_time: float, max_steps: Optional[int]
) -> LocalTrainResult:
    """Train until the next step would overshoot ``deadline``, at most
    ``max_steps`` steps.  The cap is tested before the duration is
    drawn, so ``n`` capped steps draw ``n`` durations; a deadline burst
    consumes its final, overshooting draw."""
    device.model.train()
    losses: List[float] = []
    elapsed = 0.0
    while max_steps is None or len(losses) < max_steps:
        duration = device.step_time(start_time + elapsed)
        if start_time + elapsed + duration > deadline:
            break
        if device.lr_schedule is not None:
            device.optimizer.lr = device.lr_schedule(device.version)
        features, labels = device.cycler.next_batch()
        device.optimizer.zero_grad()
        loss = device.loss_fn(device.model(Tensor(features)), labels)
        loss.backward()
        device.optimizer.step()
        losses.append(float(loss.data))
        elapsed += duration
        device.version += 1
    device.busy_until = start_time + elapsed
    return LocalTrainResult(steps=len(losses), elapsed=elapsed, losses=losses)


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
            results[task.device_id] = reference_burst(
                device, task.deadline, task.start_time, task.max_steps
            )
        return results
