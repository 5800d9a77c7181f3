"""HADFLTrainer: Algorithm 1 on the simulated heterogeneous cluster.

One ``run()`` executes the paper's full workflow (Sec. III-A):

1.  liveness check → available devices;
2.  initial model dispatch (every device starts from identical weights);
3.  mutual negotiation — devices train ``E_warm_up`` epochs at a small
    learning rate and report their calculation times ``T_i``;
4.  strategy generation — hyperperiod, per-device local steps ``E_k``,
    synchronisation window, probability-based selection;
5.  heterogeneity-aware asynchronous local training until the window
    closes (each device fits as many steps as its speed allows);
6.  partial model synchronisation over a random directed ring with the
    fault-tolerant bypass protocol, then a non-blocking broadcast of the
    aggregate to the unselected devices, which *integrate* it with their
    local parameters;
7.  dynamic configuration update from the version predictor;
8.  repeat until the target number of global epochs;
9.  periodic model backup through the model manager.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.comm.ring_repair import FaultTolerantRingSync
from repro.comm.volume import CommVolumeAccountant
from repro.core.config import HADFLParams
from repro.core.coordinator import Coordinator
from repro.core.selection import SelectionPolicy
from repro.core.strategy import TrainingStrategy
from repro.metrics.records import RoundRecord, RunResult
from repro.parallel.tasks import LocalTrainTask
from repro.sim.cluster import SimulatedCluster
from repro.sim.engine import Simulator
from repro.sim.linkfaults import ReliableDelivery
from repro.sim.rounds import RoundEngine, staleness_stats, staleness_weights
from repro.sim.trace import TraceRecorder

#: Live-lock guard of the ``"skip_round"`` degradation policy
#: (:meth:`HADFLTrainer._degrade`): after this many *consecutive*
#: rolled-back rounds the policy keeps local progress (``"continue"``
#: semantics) until a sync succeeds again — otherwise a permanently
#: failing sync would freeze the epoch counter and the run could never
#: reach its target.
MAX_ROUND_ROLLBACKS = 8


class HADFLTrainer:
    """Heterogeneity-aware decentralized federated training.

    Parameters
    ----------
    cluster:
        The simulated testbed (devices, shards, network, failures).
    params:
        HADFL hyper-parameters; defaults follow the paper.
    selection:
        Optional policy override (the worst-case study injects
        :class:`~repro.core.selection.ForcedWorstSelection` here).
    seed:
        Seed for selection and topology randomness.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        params: Optional[HADFLParams] = None,
        selection: Optional[SelectionPolicy] = None,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        self.cluster = cluster
        self.params = params or HADFLParams()
        # The devices this trainer negotiates with and runs rounds over:
        # the whole cluster, or one group of it under
        # :class:`~repro.core.groups.GroupedHADFLTrainer`.
        self.device_ids = list(cluster.device_ids)
        self.coordinator = Coordinator(
            self.params,
            failures=cluster.failures,
            selection=selection,
            seed=seed,
        )
        # Wire format, network and executor are the cluster's: it cast
        # and delivered the initial model under this wire, derived the
        # model's wire size from it and aligned the time model's segment
        # granularity to it, so pricing follows the payloads.
        self.wire = cluster.wire
        self.model_nbytes = cluster.model_nbytes
        self.network = cluster.network
        # Lossy-link model and retry policy come from the cluster (both
        # None by default — perfectly reliable links, zero overhead).
        link_faults = getattr(cluster, "link_faults", None)
        retry_policy = getattr(cluster, "retry_policy", None)
        self.sync = FaultTolerantRingSync(
            self.network,
            wire=self.wire,
            link_faults=link_faults,
            retry_policy=retry_policy,
        )
        # Envelope for the trainer's own point-to-point transfers (the
        # aggregate broadcast); inert without a fault model.
        self.delivery = ReliableDelivery(self.network, link_faults, retry_policy)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.volume = CommVolumeAccountant(mode=self.params.accounting)
        self.sim = Simulator()
        self.executor = cluster.executor
        # Arrival-ordered round scheduling: bursts still go through the
        # executor in one batch, but completions surface as events on the
        # shared simulator, in arrival order.
        self.engine = RoundEngine(self.sim, self.executor)
        self._global_params = np.array(cluster.initial_params, copy=True)
        # The delta-shipping reference for sparsifying wire formats: the
        # last aggregate every device saw (initially the shared initial
        # model).  Devices are modelled as caching it in a dedicated
        # buffer: survivors hold the exact ring aggregate and can
        # reproduce the deterministic broadcast encoding; unselected
        # receivers store the received reconstruction *before* mixing
        # it into their parameters (one model-sized buffer, no extra
        # communication).  A device dead at broadcast time keeps a
        # *stale* reference: on revival it requests a dense (full-width)
        # re-sync of the current reference before re-entering any
        # delta-shipped exchange — tracked per device via reference
        # epochs and charged as ``"resync"`` traffic.
        self._wire_reference = np.array(cluster.initial_params, copy=True)
        # Reference epochs: ``_ref_epoch[d] == _current_ref_epoch`` iff
        # device d holds the current delta reference.  Everyone starts
        # from the dispatched initial model (epoch 0).
        self._current_ref_epoch = 0
        self._ref_epoch: Dict[int, int] = {d: 0 for d in cluster.device_ids}
        # Live-lock guard state for the skip_round degradation policy.
        self._consecutive_rollbacks = 0

    # ------------------------------------------------------------------ #
    def _negotiate(self) -> TrainingStrategy:
        """Workflow steps 3–4: warm-up training, T_i measurement and
        strategy generation.

        Devices run in parallel; the phase ends when the slowest finishes
        (a synchronisation barrier before the first strategy is built).
        """
        cluster = self.cluster
        start = self.sim.now
        warmup = max(1, self.params.warmup_epochs)
        steps_per_epoch = {
            d: cluster.device_by_id(d).cycler.batches_per_epoch
            for d in self.device_ids
        }
        alive = self.coordinator.available_devices(self.device_ids, start)
        if not alive:
            raise RuntimeError("no devices alive at negotiation time")
        bursts = self.executor.run_tasks(
            cluster,
            [
                LocalTrainTask(
                    device_id=d,
                    num_steps=warmup * steps_per_epoch[d],
                    start_time=start,
                )
                for d in alive
            ],
        )
        calc_times: Dict[int, float] = {}
        for d in alive:
            t_i = bursts[d].elapsed
            calc_times[d] = t_i
            self.trace.record(start + t_i, "negotiation_done", d, T_i=t_i)
        self.sim.advance_to(start + max(calc_times.values()))
        strategy = self.coordinator.negotiate(calc_times, steps_per_epoch)
        self.trace.record(
            self.sim.now,
            "strategy_generated",
            hyperperiod=strategy.hyperperiod,
            local_steps=dict(strategy.local_steps),
        )
        return strategy

    # ------------------------------------------------------------------ #
    def run(
        self,
        target_epochs: float,
        max_rounds: int = 100_000,
        eval_every: int = 1,
    ) -> RunResult:
        """Train until ``target_epochs`` aggregate data passes.

        ``eval_every`` controls how often (in rounds) the aggregated model
        is evaluated on the test set — evaluation is instrumentation and
        costs no virtual time.
        """
        if target_epochs <= 0:
            raise ValueError(f"target_epochs must be positive, got {target_epochs}")
        params = self.params
        cluster = self.cluster
        result = RunResult(
            scheme="hadfl",
            config={
                "tsync": params.tsync,
                "num_selected": params.num_selected,
                "selection": params.selection,
                "warmup_epochs": params.warmup_epochs,
                "power_ratio": [s.power for s in cluster.specs],
                "model_nbytes": self.model_nbytes,
                "wire_dtype": self.wire.name,
            },
        )

        # Initial model dispatch (step 2): coordinator → K devices, priced
        # as sequential full-model sends.  The cluster already delivered
        # the cast initial model under its wire, so devices start from
        # what the wire lets through.  Every replica was constructed with
        # the identical initial model, so it doubles as the delta
        # reference (sparsifying formats ship an empty delta — exact
        # delivery).
        dispatch = self.network.sequential_sends_time(
            self.model_nbytes, len(cluster.devices)
        )
        self.volume.record(
            self.sim.now,
            self.model_nbytes * len(cluster.devices),
            "initial_dispatch",
        )
        self.sim.advance_to(self.sim.now + dispatch)

        # Mutual negotiation (step 3) and strategy generation (step 4).
        strategy = self._negotiate()

        # At least one round, even when the warm-up already met the target:
        # a run without rounds has nothing to record or evaluate.
        round_index = 0
        while round_index < max_rounds and (
            round_index == 0 or cluster.global_epoch() < target_epochs
        ):
            record = self._run_round(round_index, strategy, eval_every)
            result.append(record)
            strategy = self.coordinator.update_strategy()
            round_index += 1

        if result.rounds and result.rounds[-1].test_accuracy is None:
            # Always evaluate the final model so best/final accuracy exist.
            loss, acc = cluster.evaluate_params(self._global_params)
            result.rounds[-1].test_loss = loss
            result.rounds[-1].test_accuracy = acc
        # Accounting snapshot: lets the invariant
        # sum(round.comm_bytes) + initial_dispatch == total_bytes
        # be re-verified from the saved result alone (CLI
        # --verify-accounting, CI chaos smoke).
        result.config["accounting"] = self.volume.snapshot()
        return result

    # ------------------------------------------------------------------ #
    def _needs_resync(self, device_id: int) -> bool:
        """Whether a device's delta reference is stale.

        Only meaningful for sparsifying (``prefer_delta``) wires — plain
        casts decode without a shared reference, so a missed broadcast
        costs nothing to recover from.
        """
        return (
            self.wire.prefer_delta
            and self._ref_epoch[device_id] != self._current_ref_epoch
        )

    def _resync_reference(self, device_id: int, src: Optional[int] = None) -> None:
        """Revival re-sync: ship the current reference dense (full-width).

        A revived device's cached reference predates the last aggregate,
        so a delta against it is undecodable; before the device re-enters
        any delta-shipped exchange the coordinator (or a surviving peer,
        ``src``) re-sends the reference uncompressed.  Non-blocking like
        the broadcast — charged in bytes, not on the critical path.
        """
        nbytes = self.wire.dense_nbytes(int(self._wire_reference.size))
        self.volume.record(self.sim.now, nbytes, "resync", src=src, dst=device_id)
        self._ref_epoch[device_id] = self._current_ref_epoch

    # ------------------------------------------------------------------ #
    def _skipped_record(self, round_index: int) -> RoundRecord:
        """Everyone was down: the round idled through its window."""
        return RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=self.cluster.global_epoch(),
            train_loss=float("nan"),
            detail={
                "skipped": True,
                "retries": 0,
                "dropped_messages": 0,
                "bypasses": 0,
                "resyncs": 0,
            },
        )

    def _apply_aggregate(self, sync_result, receivers, counters) -> None:
        """Install a produced aggregate: survivors adopt it, ``receivers``
        get the non-blocking broadcast and integrate it, reference epochs
        roll forward.  ``receivers`` must already exclude the fold set
        (liveness is checked per delivery).  The broadcast's transfer
        counters are added to the round's ``counters``."""
        params = self.params
        cluster = self.cluster
        self._consecutive_rollbacks = 0
        self._global_params = sync_result.aggregated
        next_ref_epoch = self._current_ref_epoch + 1
        for device_id in sync_result.survivors:
            cluster.device_by_id(device_id).set_params(sync_result.aggregated)
            self._ref_epoch[device_id] = next_ref_epoch
        # Non-blocking broadcast to the receivers (they integrate the
        # aggregate with local parameters; the round's critical path is
        # not extended).  The aggregate crosses the wire once per
        # receiver; the cast payload is computed once.  Each delivery
        # goes through the retry/backoff envelope: a receiver whose link
        # gives up entirely keeps its stale reference and is re-synced
        # on a later round.
        broadcaster = (
            sync_result.survivors[0] if sync_result.survivors else None
        )
        broadcast_payload = None
        for receiver in receivers:
            if not cluster.failures.is_alive(receiver, self.sim.now):
                continue
            # Revival re-sync, receiver side: a delta-shipped
            # broadcast is undecodable against a stale reference, so
            # the dense re-send happens before the mix.
            if self._needs_resync(receiver):
                self._resync_reference(receiver, src=broadcaster)
                counters["resyncs"] += 1
            outcome = self.delivery.send(
                broadcaster, receiver, self.model_nbytes, self.sim.now
            )
            counters["retries"] += outcome.retries
            counters["dropped_messages"] += outcome.drops
            self.volume.record(
                self.sim.now,
                outcome.bytes_sent,
                "broadcast",
                src=broadcaster,
                dst=receiver,
            )
            if not outcome.delivered:
                continue  # lost: no mix, reference goes stale below
            if broadcast_payload is None:
                broadcast_payload, err = self.wire.transmit_delta_with_error(
                    sync_result.aggregated, self._wire_reference
                )
                counters["wire_cast_error"] = max(counters["wire_cast_error"], err)
            cluster.device_by_id(receiver).mix_params(
                broadcast_payload,
                own_weight=params.unselected_mix_weight,
            )
            self._ref_epoch[receiver] = next_ref_epoch
        # The round's shared reference for the next delta-shipped
        # sync: the broadcast reconstruction when one was delivered
        # (what receivers decoded — survivors can reproduce it from the
        # exact aggregate), else the aggregate itself.  Everyone not
        # marked with the new epoch above is now stale and will be
        # densely re-synced before its next delta exchange.
        self._wire_reference = (
            broadcast_payload
            if broadcast_payload is not None
            else sync_result.aggregated
        )
        self._current_ref_epoch = next_ref_epoch
        self.coordinator.note_aggregation(sync_result.survivors)

    def adopt_merge(self, merged: np.ndarray, payload: np.ndarray, time: float) -> int:
        """Install an inter-group merge: ``merged`` becomes the aggregate,
        ``payload`` (what crossed the wire) the delta reference of a new
        reference epoch, and every device alive at ``time`` integrates
        ``payload`` like a broadcast — after a dense re-sync if it missed
        an earlier one, as in :meth:`_apply_aggregate`.  Devices down at
        ``time`` go stale and are re-synced when they revive.  Returns
        the number of re-syncs."""
        resyncs = 0
        next_ref_epoch = self._current_ref_epoch + 1
        for device_id in self.device_ids:
            if not self.cluster.failures.is_alive(device_id, time):
                continue
            if self._needs_resync(device_id):
                self._resync_reference(device_id)
                resyncs += 1
            self.cluster.device_by_id(device_id).mix_params(
                payload, own_weight=self.params.unselected_mix_weight
            )
            self._ref_epoch[device_id] = next_ref_epoch
        self._global_params = np.array(merged, copy=True)
        self._wire_reference = payload
        self._current_ref_epoch = next_ref_epoch
        return resyncs

    def _fold(self, fold_ids, vectors, receivers):
        """Fold ``vectors`` (keyed by ``fold_ids``) over the repaired ring
        and install the aggregate, broadcasting it to ``receivers``.

        Returns the round's transfer counters and whether the fold
        failed to produce an aggregate (an empty fold set counts).
        """
        cluster = self.cluster
        counters = {
            "wire_cast_error": 0.0,
            "retries": 0,
            "dropped_messages": 0,
            "bypasses": 0,
            "resyncs": 0,
        }
        if not fold_ids:
            return counters, True
        # Revival re-sync, sender side: a folding device whose delta
        # reference is stale (it was dead for a broadcast) gets a dense
        # re-send of the current reference before the delta-shipped ring
        # starts — without it the gossip segments are undecodable.
        for device_id in fold_ids:
            if self._needs_resync(device_id) and cluster.failures.is_alive(
                device_id, self.sim.now
            ):
                self._resync_reference(device_id)
                counters["resyncs"] += 1
        sync_result = self.sync.run(
            self.sim,
            self.coordinator.make_ring(fold_ids),
            vectors,
            lambda d, t: cluster.failures.is_alive(d, t),
            self.model_nbytes,
            trace=self.trace,
            reference=self._wire_reference,
        )
        self.volume.record(
            self.sim.now, sync_result.bytes_sent, "partial_sync"
        )
        counters["wire_cast_error"] = sync_result.max_cast_error
        counters["retries"] = sync_result.retries
        counters["dropped_messages"] = sync_result.dropped_messages
        counters["bypasses"] = len(sync_result.bypasses)
        if sync_result.aggregated is None:
            return counters, True
        self._apply_aggregate(sync_result, receivers, counters)
        return counters, False

    def _degrade(self, available, window_snapshot) -> None:
        """Graceful degradation: the round's sync produced no aggregate
        (every selected device died or became unreachable mid-protocol)."""
        params = self.params
        cluster = self.cluster
        policy = params.sync_failure_policy
        if policy == "skip_round" and window_snapshot is not None:
            if self._consecutive_rollbacks >= MAX_ROUND_ROLLBACKS:
                # Live-lock guard: a sync that fails round after round
                # would freeze the epoch counter forever.  Keep the
                # local progress (continue semantics) until a sync
                # succeeds again.
                self.trace.record(self.sim.now, "rollback_limit_reached")
            else:
                # Roll the window back: devices return to their
                # round-start state, as if the failed round never ran.
                for device_id, snap in window_snapshot.items():
                    device = cluster.device_by_id(device_id)
                    device.set_params(snap["params"])
                    device.import_train_state(snap["train_state"])
                    for live, saved in zip(
                        device.optimizer.flat_state(), snap["opt_vectors"]
                    ):
                        live[...] = saved
                self._consecutive_rollbacks += 1
                self.trace.record(self.sim.now, "round_rolled_back")
        elif policy == "fallback_dense":
            # Re-dispatch the last known-good model dense (full-width)
            # to every alive available device: costly in bytes, but the
            # fleet re-converges immediately.
            dense_nbytes = self.wire.dense_nbytes(int(self._wire_reference.size))
            for device_id in available:
                if not cluster.failures.is_alive(device_id, self.sim.now):
                    continue
                cluster.device_by_id(device_id).set_params(self._wire_reference)
                self._ref_epoch[device_id] = self._current_ref_epoch
                self.volume.record(
                    self.sim.now, dense_nbytes, "fallback_dense", dst=device_id
                )
            self.trace.record(self.sim.now, "fallback_dense_dispatch")
        # "continue" (default): devices keep their local parameters and
        # training proceeds.

    def _finish_round(
        self,
        round_index: int,
        eval_every: Optional[int],
        *,
        observed,
        losses,
        selected,
        bytes_before: int,
        counters,
        sync_failed: bool,
        arrivals,
        staleness,
        **extra,
    ) -> RoundRecord:
        """Close a round: supervisor bookkeeping, backup, record, eval.

        ``observed`` are the devices whose versions this round saw,
        ``counters``/``sync_failed`` are what :meth:`_fold` returned and
        ``extra`` carries mode-specific telemetry into the detail.
        ``eval_every=None`` leaves evaluation to the caller.
        """
        cluster = self.cluster
        # Step 7: runtime supervisor records the actual versions.
        versions = {
            device_id: cluster.device_by_id(device_id).version
            for device_id in observed
        }
        self.coordinator.record_versions(versions)

        # Step 9: periodic model backup.
        self.coordinator.model_manager.backup(
            round_index, self.sim.now, self._global_params
        )

        record = RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=cluster.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            selected=list(selected),
            versions=versions,
            # Exactly the bytes the accountant recorded this round (sync
            # plus the broadcasts that actually happened) — charging the
            # nominal broadcast when no aggregate was produced, or for
            # receivers dead at delivery time, would drift the record
            # away from the accountant.
            comm_bytes=self.volume.total_bytes - bytes_before,
            bypasses=counters["bypasses"],
            # Quantisation telemetry: the largest absolute error any
            # payload suffered crossing the wire this round (0.0 on the
            # lossless default) — plus the round's robustness counters
            # (all zero on a fault-free run).
            detail={
                "wire_dtype": self.wire.name,
                **counters,
                "arrivals": len(arrivals),
                "buffered": self.params.aggregation == "buffered_async",
                **extra,
                **staleness_stats(staleness),
                **({"sync_failed": True} if sync_failed else {}),
            },
        )
        if eval_every is not None and round_index % max(1, eval_every) == 0:
            loss, acc = cluster.evaluate_params(self._global_params)
            record.test_loss = loss
            record.test_accuracy = acc
        return record

    def _run_round(
        self, round_index: int, strategy, eval_every: int
    ) -> RoundRecord:
        if self.params.aggregation == "buffered_async":
            return self._run_async_round(round_index, strategy, eval_every)
        window = self._window(strategy)
        if window is None:
            return self._skipped_record(round_index)
        return self._finish_round(round_index, eval_every, **window)

    def _window(self, strategy) -> Optional[Dict[str, Any]]:
        """The paper's round — the classic full-window barrier — up to its
        record: train until the deadline, fold the selected devices,
        degrade on a failed sync.  Returns :meth:`_finish_round`'s
        keyword arguments, or ``None`` when the whole window idled.
        """
        cluster = self.cluster
        t_start = self.sim.now
        deadline = t_start + strategy.sync_window

        # Step 1: liveness monitor decides this round's participants.
        available = self.coordinator.available_devices(self.device_ids, t_start)
        if not available:
            # Everyone is down: idle through the window and try again.
            self.sim.advance_to(deadline)
            return None

        # Selection happens *before* versions for this round are known —
        # the coordinator works from forecasts (or, in round 0, from the
        # negotiation-time expected versions).
        selected = self.coordinator.select_devices(available)

        # Under the skip-round degradation policy the window must be
        # reversible: snapshot everything a burst mutates (parameters,
        # optimizer vectors + scalars, RNG streams, batch cursor,
        # version counter) so a failed sync can roll the round back.
        window_snapshot = None
        if self.params.sync_failure_policy == "skip_round":
            window_snapshot = {}
            for device_id in available:
                device = cluster.device_by_id(device_id)
                window_snapshot[device_id] = {
                    "params": device.get_params(),
                    "train_state": device.export_train_state(),
                    "opt_vectors": [
                        np.array(v, copy=True)
                        for v in device.optimizer.flat_state()
                    ],
                }

        # Step 5: heterogeneity-aware asynchronous local training.  The
        # window deadline is the binding constraint (Alg. 1 line 6); the
        # strategy's E_k budgets are the coordinator's *expectations*
        # and feed the selection estimates, they do not clamp the
        # devices — clamping to a forecast would let prediction error
        # throttle real compute capacity.  Bursts are independent until
        # the fold, so the executor may run them concurrently;
        # completions surface as arrival events.
        bursts = self.engine.launch(
            cluster,
            [
                # A device that disconnects mid-window stops computing at
                # the moment it drops; the ring repair handles it at sync
                # time.
                LocalTrainTask(
                    device_id=device_id,
                    deadline=min(
                        deadline,
                        cluster.failures.next_down_time(device_id, t_start),
                    ),
                    start_time=t_start,
                )
                for device_id in available
            ],
        )
        losses = []
        bytes_before = self.volume.total_bytes
        for device_id in available:
            burst = bursts[device_id]
            if burst.steps:
                losses.extend(burst.losses)
            self.trace.record(
                cluster.device_by_id(device_id).busy_until,
                "local_training_done",
                device_id,
                steps=burst.steps,
            )

        # Step 6: fault-tolerant partial synchronisation at the cut —
        # the window deadline (arrival events are pure bookkeeping: the
        # clock lands exactly on the deadline, bitwise identical to the
        # old barrier).
        arrivals = self.engine.collect(deadline=deadline)
        fold_staleness = self.coordinator.staleness(selected)
        counters, sync_failed = self._fold(
            selected,
            {
                device_id: cluster.device_by_id(device_id).get_params_view()
                for device_id in selected
            },
            [d for d in available if d not in selected],
        )
        if sync_failed and selected:
            self._degrade(available, window_snapshot)
        return dict(
            observed=available,
            losses=losses,
            selected=selected,
            bytes_before=bytes_before,
            counters=counters,
            sync_failed=sync_failed,
            arrivals=arrivals,
            staleness=fold_staleness.values(),
        )

    # ------------------------------------------------------------------ #
    def _run_async_round(
        self, round_index: int, strategy, eval_every: int
    ) -> RoundRecord:
        """Buffered-async (FedBuff-style) round.

        Every idle available device is launched on its strategy step
        budget E_k; the round cuts at the K-th burst *completion*
        (K = ``async_buffer``, default ``num_selected``) and folds those
        K contributions through the fault-tolerant ring with
        staleness-discounted weights ``(1 + τ)^(−a)`` (τ = aggregation
        epochs since the contribution's burst was dispatched).
        Stragglers keep computing across the cut — their arrivals stay
        queued on the simulator and fold into a later round's buffer.
        Probability-based selection governs the window mode; here the
        arrival order plus the staleness discount replace it.
        """
        params = self.params
        cluster = self.cluster
        t_start = self.sim.now
        buffer_k = params.async_buffer or params.num_selected

        available = self.coordinator.available_devices(self.device_ids, t_start)
        idle = [d for d in available if not self.engine.is_in_flight(d)]
        if not idle and not self.engine.in_flight:
            # Everyone is down with nothing in flight: idle one window.
            self.sim.advance_to(t_start + strategy.sync_window)
            return self._skipped_record(round_index)

        # Refill: every idle available device starts a burst from its own
        # current parameters (decentralised — no dispatch payload).  The
        # burst runs its full E_k budget even across round cuts, stopping
        # early only if the device crashes.
        if idle:
            dispatch_epoch = self.coordinator.aggregation_epoch
            self.engine.launch(
                cluster,
                [
                    LocalTrainTask(
                        device_id=device_id,
                        deadline=cluster.failures.next_down_time(
                            device_id, t_start
                        ),
                        start_time=t_start,
                        max_steps=max(1, strategy.local_steps.get(device_id, 1)),
                    )
                    for device_id in idle
                ],
                meta={d: {"dispatch_epoch": dispatch_epoch} for d in idle},
            )

        bytes_before = self.volume.total_bytes
        arrivals = self.engine.collect(count=buffer_k)
        now = self.sim.now
        losses = [loss for a in arrivals for loss in a.losses]
        for arrival in arrivals:
            self.trace.record(
                arrival.time,
                "local_training_done",
                arrival.device_id,
                steps=arrival.steps,
            )

        # The buffer: completed arrivals whose device is still alive at
        # the cut.  Crash-truncated arrivals are observed (telemetry,
        # version bookkeeping) but never folded.
        completed = [
            a
            for a in arrivals
            if a.completed and cluster.failures.is_alive(a.device_id, now)
        ]
        staleness_map = self.coordinator.staleness(
            [a.device_id for a in completed],
            base_epoch={
                a.device_id: int(a.meta.get("dispatch_epoch", 0)) for a in completed
            },
        )
        fold_ids = list(staleness_map)
        # Staleness-discounted mixing through the uniform-mean ring:
        # pre-scaling each contribution by n·w_i makes the ring's mean
        # equal Σ w_i v_i.  Scaling copies the arena views, so the
        # aliasing contract (views consumed before any post-sync arena
        # write) holds by construction.  With uniform weights (all τ
        # equal) the scale is exactly 1 — the plain ring.
        scale = len(fold_ids) * staleness_weights(
            list(staleness_map.values()), params.staleness_exponent
        )
        counters, sync_failed = self._fold(
            fold_ids,
            {
                device_id: scale[i]
                * cluster.device_by_id(device_id).get_params_view()
                for i, device_id in enumerate(fold_ids)
            },
            # Broadcast only to idle devices: an in-flight device's
            # parameters already embody its running burst — touching
            # them would rewrite its simulated past.  It goes stale
            # instead and the resync machinery recovers it later.
            [
                d
                for d in self.device_ids
                if d not in staleness_map and not self.engine.is_in_flight(d)
            ],
        )
        # Async degradation is always "continue": a failed buffer's
        # devices keep their local parameters and re-enter the pool.
        return self._finish_round(
            round_index,
            eval_every,
            observed=[a.device_id for a in arrivals],
            losses=losses,
            selected=fold_ids,
            bytes_before=bytes_before,
            counters=counters,
            sync_failed=sync_failed,
            arrivals=arrivals,
            staleness=staleness_map.values(),
            dropped_arrivals=len(arrivals) - len(completed),
            in_flight=len(self.engine.in_flight),
        )

    # ------------------------------------------------------------------ #
    @property
    def global_params(self) -> np.ndarray:
        """The latest aggregated model (what the model manager backs up)."""
        return self._global_params
