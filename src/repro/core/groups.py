"""Hierarchical multi-group HADFL (paper Fig. 2a, Sec. III-C).

With many devices, "the devices can be divided into multiple groups ...
The inter-group synchronization period can be an integer multiple of the
intra-group synchronization period.  They are performed separately during
the training process.  The strategy of inter-group synchronization is
similar to that of intra-group synchronization."

Each group *is* HADFL: a :class:`~repro.core.trainer.HADFLTrainer`
scoped to the group's device ids, with its own coordinator, clock, delta
reference and reference epochs, so a group's round is HADFL's window
round with its fault semantics — bursts stop when a device crashes, the
ring repairs around dead members, the broadcast checks liveness and
crosses the cluster's link model, revived devices are re-synced densely
and a failed sync degrades by ``sync_failure_policy``.  This module adds
only what is grouped: resolving the groups, aligning their clocks (groups
run concurrently, so every phase starts at the slowest group's clock),
merging the group aggregates over a directed ring every
``inter_group_period`` rounds, and the combined round record.  All groups
charge one byte accountant.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.comm.gossip import gossip_ring_exchange
from repro.core.config import HADFLParams
from repro.core.trainer import HADFLTrainer
from repro.metrics.records import RoundRecord, RunResult
from repro.sim.cluster import SimulatedCluster
from repro.sim.rounds import Federation
from repro.sim.trace import TraceRecorder

#: Round counters summed over the groups into the combined record.
_SUMMED = ("retries", "dropped_messages", "bypasses", "resyncs", "arrivals")


class GroupedHADFLTrainer(Federation):
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
        self.params = params or HADFLParams()
        if self.params.aggregation != "sync":
            raise ValueError(
                "grouped HADFL runs window rounds only, got "
                f"aggregation={self.params.aggregation!r}"
            )
        if inter_group_period < 1:
            raise ValueError(
                f"inter_group_period must be >= 1, got {inter_group_period}"
            )
        # The inter-group ring crosses the cluster's wire and network;
        # ``sim`` is the clock every group is aligned to.
        super().__init__(cluster, cluster.executor, trace)
        self.cluster = cluster
        self.inter_group_period = inter_group_period
        self.groups = self._resolve_groups(groups)
        if any(len(g) < 1 for g in self.groups):
            raise ValueError("every group needs at least one device")
        self.members = [
            HADFLTrainer(cluster, self.params, seed=seed + 101 * i, trace=self.trace)
            for i in range(len(self.groups))
        ]
        for member, group in zip(self.members, self.groups):
            member.device_ids = list(group)
            member.volume = self.volume
        # The inter-group ring's delta reference: the last merge every
        # group's representative holds (initially the dispatched model).
        self._inter_reference = np.array(cluster.initial_params, copy=True)

    # ------------------------------------------------------------------ #
    def _resolve_groups(self, groups) -> List[List[int]]:
        ids = sorted(self.cluster.device_ids)
        if isinstance(groups, int):
            if groups < 1:
                raise ValueError(f"need at least one group, got {groups}")
            if groups > len(ids):
                raise ValueError(f"{groups} groups for only {len(ids)} devices")
            return [ids[i::groups] for i in range(groups)]
        resolved = [list(map(int, group)) for group in groups]
        flat = [d for group in resolved for d in group]
        if sorted(flat) != ids:
            raise ValueError(
                "explicit groups must partition the cluster's device ids; "
                f"got {resolved} over {ids}"
            )
        return resolved

    def _align_clocks(self, time: Optional[float] = None) -> float:
        """Advance every group and ``sim`` to ``time`` (default: the
        slowest clock)."""
        clocks = [self.sim] + [member.sim for member in self.members]
        if time is None:
            time = max(clock.now for clock in clocks)
        for clock in clocks:
            clock.run(until=time)
        return time

    # ------------------------------------------------------------------ #
    def run(
        self,
        target_epochs: float,
        max_rounds: int = 100_000,
        eval_every: int = 1,
    ) -> RunResult:
        more = self._toward(target_epochs, max_rounds)
        result = RunResult(
            scheme="hadfl_grouped",
            config={
                "groups": [list(g) for g in self.groups],
                "inter_group_period": self.inter_group_period,
                "tsync": self.params.tsync,
                "num_selected": self.params.num_selected,
            },
        )

        # Mutual negotiation, per group; every device warms up at once.
        for member in self.members:
            member._negotiate()
        self._align_clocks()
        # No initial dispatch is modelled here: the rounds alone sum to
        # the accountant's total.
        return self._run_rounds(result, more, eval_every)

    # ------------------------------------------------------------------ #
    def _run_round(self, round_index: int) -> RoundRecord:
        bytes_before = self.volume.total_bytes
        losses: List[float] = []
        member_rounds: List[RoundRecord] = []
        for member in self.members:
            window = member._window(member.coordinator.strategy)
            if window is not None:  # None: the whole group was down
                losses.extend(window["losses"])
                member_rounds.append(member._finish_round(round_index, **window))
        now = self._align_clocks()
        cast_errors = [0.0] + [r.detail["wire_cast_error"] for r in member_rounds]
        detail = {k: sum(r.detail[k] for r in member_rounds) for k in _SUMMED}
        if any(r.detail.get("sync_failed") for r in member_rounds):
            detail["sync_failed"] = True

        # Inter-group synchronisation at the coarser period (Fig. 2b).
        if (round_index + 1) % self.inter_group_period == 0 and len(self.groups) > 1:
            merged, stats = gossip_ring_exchange(
                [member.global_params for member in self.members],
                wire=self.wire,
                reference=self._inter_reference,
            )
            cast_errors.append(stats.max_cast_error)
            now = self._align_clocks(
                now + self.network.gossip_ring_time(self.model_nbytes, len(self.groups))
            )
            self.volume.record(now, stats.total_bytes, "inter_group_sync")
            payload, _ = self.wire.transmit_delta_with_error(
                merged, self._inter_reference
            )
            self._inter_reference = payload
            detail["resyncs"] += sum(
                member.adopt_merge(merged, payload, now) for member in self.members
            )

        return self._record(
            round_index,
            bytes_before,
            losses,
            selected=sorted(d for r in member_rounds for d in r.selected),
            versions={d.device_id: d.version for d in self.cluster.devices},
            wire_dtype=self.wire.name,
            wire_cast_error=max(cast_errors),
            **detail,
        )

    # ------------------------------------------------------------------ #
    @property
    def global_params(self) -> np.ndarray:
        """Mean of the group aggregates (exact right after an inter sync)."""
        return np.mean([member.global_params for member in self.members], axis=0)
