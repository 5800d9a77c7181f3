"""Hierarchical multi-group HADFL (paper Fig. 2a, Sec. III-C).

With many devices, "the devices can be divided into multiple groups ...
The inter-group synchronization period can be an integer multiple of the
intra-group synchronization period.  They are performed separately during
the training process.  The strategy of inter-group synchronization is
similar to that of intra-group synchronization."

Each group runs its own coordinator (predictor + strategy + selection)
and fault-tolerant ring sync; every ``inter_group_period`` rounds the
group aggregates are merged over a directed ring of group representatives
and pushed back into the groups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.gossip import gossip_ring_exchange
from repro.comm.ring_repair import FaultTolerantRingSync
from repro.comm.volume import CommVolumeAccountant
from repro.core.config import HADFLParams
from repro.core.coordinator import Coordinator
from repro.metrics.records import RoundRecord, RunResult
from repro.parallel.tasks import LocalTrainTask
from repro.sim.cluster import SimulatedCluster
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class GroupedHADFLTrainer:
    """HADFL with device groups and periodic inter-group merging.

    Parameters
    ----------
    cluster:
        The full device population.
    groups:
        Either an integer number of equal groups (devices dealt
        round-robin in id order) or an explicit list of device-id lists.
    inter_group_period:
        Merge group aggregates every this many intra-group rounds.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        params: Optional[HADFLParams] = None,
        groups=2,
        inter_group_period: int = 2,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        self.cluster = cluster
        self.params = params or HADFLParams()
        if inter_group_period < 1:
            raise ValueError(
                f"inter_group_period must be >= 1, got {inter_group_period}"
            )
        self.inter_group_period = inter_group_period
        self.groups = self._resolve_groups(groups)
        if any(len(g) < 1 for g in self.groups):
            raise ValueError("every group needs at least one device")
        self.coordinators = [
            Coordinator(
                self.params,
                failures=cluster.failures,
                seed=seed + 101 * index,
            )
            for index in range(len(self.groups))
        ]
        # Wire, network, executor and link model are the cluster's, as in
        # HADFLTrainer.
        self.wire = cluster.wire
        self.model_nbytes = cluster.model_nbytes
        self.network = cluster.network
        self.sync = FaultTolerantRingSync(
            self.network,
            wire=self.wire,
            link_faults=cluster.link_faults,
            retry_policy=cluster.retry_policy,
        )
        self.sim = Simulator()
        self.volume = CommVolumeAccountant(mode=self.params.accounting)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6060]))
        self._group_params: List[np.ndarray] = [
            np.array(cluster.initial_params, copy=True) for _ in self.groups
        ]
        # Delta-shipping references for sparsifying wire formats: the
        # last aggregate each group's devices saw, plus the last
        # inter-group merge every group shares.  As in HADFLTrainer,
        # receivers are modelled as caching the received reconstruction
        # in a dedicated buffer before mixing; devices dead at delivery
        # keep a stale reference (re-sync on revival not modelled).
        self._group_reference: List[np.ndarray] = [
            np.array(cluster.initial_params, copy=True) for _ in self.groups
        ]
        self._inter_reference = np.array(cluster.initial_params, copy=True)

    # ------------------------------------------------------------------ #
    def _resolve_groups(self, groups) -> List[List[int]]:
        ids = sorted(self.cluster.device_ids)
        if isinstance(groups, int):
            if groups < 1:
                raise ValueError(f"need at least one group, got {groups}")
            if groups > len(ids):
                raise ValueError(
                    f"{groups} groups for only {len(ids)} devices"
                )
            return [ids[i::groups] for i in range(groups)]
        resolved = [list(map(int, group)) for group in groups]
        flat = [d for group in resolved for d in group]
        if sorted(flat) != ids:
            raise ValueError(
                "explicit groups must partition the cluster's device ids; "
                f"got {resolved} over {ids}"
            )
        return resolved

    # ------------------------------------------------------------------ #
    def run(
        self,
        target_epochs: float,
        max_rounds: int = 100_000,
        eval_every: int = 1,
    ) -> RunResult:
        if target_epochs <= 0:
            raise ValueError(f"target_epochs must be positive, got {target_epochs}")
        cluster = self.cluster
        result = RunResult(
            scheme="hadfl_grouped",
            config={
                "groups": [list(g) for g in self.groups],
                "inter_group_period": self.inter_group_period,
                "tsync": self.params.tsync,
                "num_selected": self.params.num_selected,
                "model_nbytes": self.model_nbytes,
                "wire_dtype": self.wire.name,
            },
        )

        # Mutual negotiation, per group: every device warms up at once
        # and the phase ends when the slowest finishes.
        start = self.sim.now
        warmup = max(1, self.params.warmup_epochs)
        steps_per_epoch = {
            d.device_id: d.cycler.batches_per_epoch for d in cluster.devices
        }
        bursts = cluster.executor.run_tasks(
            cluster,
            [
                LocalTrainTask(device_id=d, num_steps=warmup * steps, start_time=start)
                for d, steps in steps_per_epoch.items()
            ],
        )
        for group, coordinator in zip(self.groups, self.coordinators):
            coordinator.negotiate(
                {d: bursts[d].elapsed for d in group},
                {d: steps_per_epoch[d] for d in group},
            )
        self.sim.advance_to(start + max(b.elapsed for b in bursts.values()))

        round_index = 0
        while cluster.global_epoch() < target_epochs and round_index < max_rounds:
            record = self._run_round(round_index, eval_every)
            result.append(record)
            for coordinator in self.coordinators:
                coordinator.update_strategy()
            round_index += 1

        if result.rounds and result.rounds[-1].test_accuracy is None:
            loss, acc = cluster.evaluate_params(self.global_params)
            result.rounds[-1].test_loss = loss
            result.rounds[-1].test_accuracy = acc
        # Accounting snapshot, as in HADFLTrainer (no initial dispatch is
        # modelled here, so the rounds alone sum to the total).
        result.config["accounting"] = self.volume.snapshot()
        return result

    # ------------------------------------------------------------------ #
    def _run_round(self, round_index: int, eval_every: int) -> RoundRecord:
        cluster = self.cluster
        t_start = self.sim.now
        losses: List[float] = []
        selected_all: List[int] = []
        bypasses = 0
        retries = 0
        dropped_messages = 0
        bytes_before = self.volume.total_bytes
        wire_cast_error = 0.0
        completions = [t_start]

        for index, (group, coordinator) in enumerate(
            zip(self.groups, self.coordinators)
        ):
            strategy = coordinator.strategy
            deadline = t_start + strategy.sync_window
            available = coordinator.available_devices(group, t_start)
            if not available:
                completions.append(deadline)
                continue
            selected = coordinator.select_devices(available)
            ring = coordinator.make_ring(selected)

            bursts = cluster.executor.run_tasks(
                cluster,
                [
                    LocalTrainTask(
                        device_id=device_id, deadline=deadline, start_time=t_start
                    )
                    for device_id in available
                ],
            )
            for device_id in available:
                losses.extend(bursts[device_id].losses)

            group_sim = Simulator(start_time=deadline)
            vectors = {
                d: cluster.device_by_id(d).get_params() for d in selected
            }
            sync_result = self.sync.run(
                group_sim,
                ring,
                vectors,
                lambda d, t: cluster.failures.is_alive(d, t),
                self.model_nbytes,
                trace=self.trace,
                reference=self._group_reference[index],
            )
            completions.append(sync_result.completion_time)
            bypasses += len(sync_result.bypasses)
            retries += sync_result.retries
            dropped_messages += sync_result.dropped_messages
            self.volume.record(
                sync_result.completion_time, sync_result.bytes_sent, "partial_sync"
            )
            wire_cast_error = max(wire_cast_error, sync_result.max_cast_error)

            if sync_result.aggregated is not None:
                self._group_params[index] = sync_result.aggregated
                for device_id in sync_result.survivors:
                    cluster.device_by_id(device_id).set_params(
                        sync_result.aggregated
                    )
                broadcast_payload, _ = self.wire.transmit_delta_with_error(
                    sync_result.aggregated, self._group_reference[index]
                )
                self._group_reference[index] = broadcast_payload
                for device_id in available:
                    if device_id in selected:
                        continue
                    cluster.device_by_id(device_id).mix_params(
                        broadcast_payload,
                        own_weight=self.params.unselected_mix_weight,
                    )
                    self.volume.record(
                        sync_result.completion_time,
                        self.model_nbytes,
                        "broadcast",
                        dst=device_id,
                    )

            coordinator.record_versions(
                {d: cluster.device_by_id(d).version for d in available}
            )
            selected_all.extend(selected)

        self.sim.advance_to(max(completions))

        # Inter-group synchronisation at the coarser period (Fig. 2b).
        if (round_index + 1) % self.inter_group_period == 0 and len(self.groups) > 1:
            merged, stats = gossip_ring_exchange(
                self._group_params,
                wire=self.wire,
                reference=self._inter_reference,
            )
            inter_time = self.network.gossip_ring_time(
                self.model_nbytes, len(self.groups)
            )
            self.sim.advance_to(self.sim.now + inter_time)
            wire_cast_error = max(wire_cast_error, stats.max_cast_error)
            self.volume.record(self.sim.now, stats.total_bytes, "inter_group_sync")
            merged_payload, _ = self.wire.transmit_delta_with_error(
                merged, self._inter_reference
            )
            self._inter_reference = merged_payload
            for index in range(len(self.groups)):
                self._group_reference[index] = merged_payload
            for index, group in enumerate(self.groups):
                self._group_params[index] = np.array(merged, copy=True)
                for device_id in group:
                    if cluster.failures.is_alive(device_id, self.sim.now):
                        cluster.device_by_id(device_id).mix_params(
                            merged_payload,
                            own_weight=self.params.unselected_mix_weight,
                        )

        record = RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=cluster.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            selected=sorted(selected_all),
            versions={d.device_id: d.version for d in cluster.devices},
            comm_bytes=self.volume.total_bytes - bytes_before,
            bypasses=bypasses,
            detail={
                "wire_dtype": self.wire.name,
                "wire_cast_error": wire_cast_error,
                "retries": retries,
                "dropped_messages": dropped_messages,
            },
        )
        if round_index % max(1, eval_every) == 0:
            loss, acc = cluster.evaluate_params(self.global_params)
            record.test_loss = loss
            record.test_accuracy = acc
        return record

    # ------------------------------------------------------------------ #
    @property
    def global_params(self) -> np.ndarray:
        """Mean of the group aggregates (exact right after an inter sync)."""
        return np.mean(self._group_params, axis=0)
