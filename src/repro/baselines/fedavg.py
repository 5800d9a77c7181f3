"""Decentralized Federated Averaging (the gossip-FL baseline [11]).

Every device runs the *same* number of local steps E — "the local steps
of different devices are the same" (Sec. II-B) — then all devices merge
synchronously over a gossip ring.  On heterogeneous hardware the round
closes only when the slowest device finishes its E steps, so fast devices
idle: the waste HADFL's per-device step budgets eliminate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import SchemeTrainer
from repro.comm.allreduce import ring_allreduce_detailed
from repro.metrics.records import RoundRecord
from repro.sim.cluster import SimulatedCluster
from repro.sim.trace import TraceRecorder


class DecentralizedFedAvgTrainer(SchemeTrainer):
    """Gossip-synchronous FedAvg with uniform local steps.

    Parameters
    ----------
    local_steps:
        E — steps every device runs between aggregations.  Defaults to
        one local epoch (the devices' batches-per-epoch), the standard
        FedAvg setting.
    """

    scheme_name = "decentralized_fedavg"

    def __init__(
        self,
        cluster: SimulatedCluster,
        local_steps: Optional[int] = None,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        accounting: str = "exact",
    ):
        super().__init__(cluster, seed=seed, trace=trace, accounting=accounting)
        if local_steps is not None and local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        self.local_steps = local_steps or max(
            d.cycler.batches_per_epoch for d in cluster.devices
        )

    def _run_round(self, round_index: int) -> RoundRecord:
        cluster = self.cluster
        devices = cluster.devices
        t_start = self.sim.now

        # Local phase: E steps each, in parallel; the barrier closes when
        # the slowest device finishes — i.e. when the last arrival event
        # has fired.
        bursts = self.train_all_devices(self.local_steps, t_start)
        losses = []
        for device in devices:
            losses.extend(bursts[device.device_id].losses)
        self.engine.collect()
        barrier = self.sim.now

        # Synchronous gossip merge over all K devices (ring schedule);
        # arena views — the ring copies into its node buffers on ingest,
        # and every exchanged segment crosses the wire format.
        vectors = [d.get_params_view() for d in devices]
        averaged, stats = ring_allreduce_detailed(
            vectors, wire=self.wire, reference=self._wire_reference
        )
        for device in devices:
            device.set_params(averaged)
        self._global_params = averaged
        self._wire_reference = averaged
        gossip_time = cluster.network.ring_time_for(
            [d.device_id for d in devices], cluster.model_nbytes
        )
        self.volume.record(barrier, stats.total_bytes, "gossip_sync")
        self.sim.advance_to(barrier + gossip_time)

        return RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=cluster.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            versions={d.device_id: d.version for d in devices},
            comm_bytes=stats.total_bytes,
            detail={
                "wire_dtype": self.wire.name,
                "wire_cast_error": stats.max_cast_error,
            },
        )
