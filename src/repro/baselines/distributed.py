"""Synchronous data-parallel training (the PyTorch-DDP baseline).

Every iteration, all K devices take one SGD step on their shard and the
replicas are averaged with a ring all-reduce — equivalent (for plain SGD)
to gradient averaging, which is what DDP/Horovod do.  The slowest device
gates every iteration: iteration time is ``max_k(step_time_k)`` plus the
collective, the straggler effect the paper's Fig. 1 illustrates.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.base import SchemeTrainer
from repro.comm.allreduce import ring_allreduce_detailed


class DistributedTrainer(SchemeTrainer):
    """Ring-all-reduce synchronous data parallelism [12].

    A "round" in the result records is one global epoch (every device
    completing one pass over its shard), matching the per-epoch curves of
    Fig. 3.
    """

    scheme_name = "distributed"

    def _lockstep_round(self) -> Tuple[List[float], float]:
        cluster = self.cluster
        devices = cluster.devices
        iterations = max(d.cycler.batches_per_epoch for d in devices)
        allreduce_time = cluster.network.ring_time_for(
            [d.device_id for d in devices], cluster.model_nbytes
        )
        losses: List[float] = []
        wire_cast_error = 0.0
        for _ in range(iterations):
            t_iter = self.sim.now
            # The iteration barrier: the clock lands on the slowest
            # device's completion of its one step.
            losses.extend(self._train_all(1))
            vectors = [d.get_params_view() for d in devices]
            # Every device holds the previous iteration's averaged model
            # exactly — the natural delta reference for sparsifying
            # wires.
            averaged, stats = ring_allreduce_detailed(
                vectors, wire=self.wire, reference=self._wire_reference
            )
            for device in devices:
                device.set_params(averaged)
            self._global_params = averaged
            self._wire_reference = averaged
            self.volume.record(t_iter, stats.total_bytes, "ring_allreduce")
            wire_cast_error = max(wire_cast_error, stats.max_cast_error)
            self.sim.run(until=self.sim.now + allreduce_time)
        return losses, wire_cast_error
