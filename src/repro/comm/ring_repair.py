"""Fault-tolerant ring synchronisation (paper Sec. III-D).

The protocol, verbatim from the paper's example: *"device 2 falls
disconnected during work, causing its downstream device, device 3, cannot
receive parameters in model synchronization.  After the pre-specified
waiting time, device 3 sends a handshake message to device 2 to confirm
its status.  After confirmation, it issues a warning to device 1, the
upstream of device 2.  Then, device 1 will bypass device 2 and communicate
directly with device 3."*

Implementation: the first scatter step of the gossip ring is simulated
message-by-message on the discrete-event engine; receivers arm a
cancellable timeout (``wait_time``).  A timeout triggers the
handshake → warn-upstream → bypass walk (which keeps walking across runs
of consecutive dead devices).  Once the surviving ring is established, the
remaining scatter-gather runs on it and the aggregate is the mean of the
survivors' vectors.

Chaos semantics (all inert without a fault model):

* **Liveness is time-queried.**  ``alive(device, t)`` is consulted at
  message arrival and at every walk step, so a device dying *between*
  scatter events loses its in-flight message and gets bypassed
  mid-protocol — the round-start snapshot idealisation is gone.
* **Messages cross lossy links.**  Every simulated transfer (first-step
  segments and repair resends) goes through a
  :class:`~repro.sim.linkfaults.ReliableDelivery` envelope; dropped
  attempts are retried with exponential backoff and every attempt's bytes
  are charged.  A transfer that exhausts its retries marks the sender
  unreachable and the walk continues past it.
* **Control traffic is accounted.**  Handshake and warning messages
  accumulate into ``RingSyncResult.control_bytes`` even when the sync
  ends with zero survivors, so repair traffic always obeys the
  communication-volume invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm.gossip import gossip_ring_exchange
from repro.comm.wire import WireSpec, get_wire_format
from repro.sim.engine import Simulator
from repro.sim.linkfaults import LinkFaultModel, ReliableDelivery, RetryPolicy
from repro.sim.network import NetworkModel
from repro.sim.trace import TraceRecorder

# Control messages (handshake, warning) are tiny relative to parameters.
CONTROL_MESSAGE_BYTES = 64


@dataclass
class RingSyncResult:
    """Outcome of one fault-tolerant partial synchronisation."""

    survivors: List[int]
    aggregated: Optional[np.ndarray]
    start_time: float
    completion_time: float
    bytes_sent: int
    bypasses: List[Tuple[int, int, int]] = field(default_factory=list)
    """(upstream, dead, downstream) triples for every bypassed device."""
    max_cast_error: float = 0.0
    """Largest wire-cast error of any exchanged segment (0.0 lossless)."""
    control_bytes: int = 0
    """Handshake/warning bytes (included in ``bytes_sent``)."""
    retries: int = 0
    """Retransmissions beyond first attempts across all message transfers."""
    dropped_messages: int = 0
    """Messages lost on the wire (link drops + mid-transfer sender deaths)."""


class FaultTolerantRingSync:
    """Runs HADFL's partial sync over a directed ring with failure repair.

    Parameters
    ----------
    network:
        Cost model pricing every message.
    wait_time:
        The paper's "pre-specified waiting time" before a downstream
        device suspects its upstream.
    wire:
        Wire format (name or instance) every gossip segment crosses;
        ``None`` = the lossless fp64 default.
    link_faults:
        Optional :class:`~repro.sim.linkfaults.LinkFaultModel`; ``None``
        keeps every link perfectly reliable (bitwise identical to the
        pre-chaos protocol).
    retry_policy:
        Retry/backoff knobs for the delivery envelope.
    """

    def __init__(
        self,
        network: NetworkModel,
        wait_time: float = 0.05,
        wire: WireSpec = None,
        link_faults: Optional[LinkFaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if wait_time <= 0:
            raise ValueError(f"wait_time must be positive, got {wait_time}")
        self.network = network
        self.wait_time = wait_time
        self.wire = get_wire_format(wire)
        self.delivery = ReliableDelivery(network, link_faults, retry_policy)

    def run(
        self,
        sim: Simulator,
        ring_order: Sequence[int],
        vectors: Dict[int, np.ndarray],
        alive: Callable[[int, float], bool],
        payload_nbytes: int,
        trace: Optional[TraceRecorder] = None,
        reference: Optional[np.ndarray] = None,
    ) -> RingSyncResult:
        """Execute the sync starting at ``sim.now``.

        The protocol's messages run on a simulator of their own starting
        at ``sim.now``; ``sim`` is then run up to where the protocol
        ended, so events the caller has queued (stragglers' arrivals in
        buffered-async mode) that fall due by then fire in time order
        and later ones stay queued — the caller's clock never waits for
        them, and never moves backwards.

        ``vectors`` maps device id → flat parameter vector; ``alive`` is
        queried as ``alive(device_id, time)`` — at round start, at every
        message arrival, and at every repair-walk step.  Devices dead or
        unreachable are bypassed; the final survivors' vectors are
        averaged.  ``reference`` (a vector every participant holds — the
        last shared aggregate) enables delta shipping for sparsifying
        wire formats.
        """
        ring = [int(d) for d in ring_order]
        if len(set(ring)) != len(ring):
            raise ValueError(f"duplicate ids in ring: {ring}")
        missing = [d for d in ring if d not in vectors]
        if missing:
            raise ValueError(f"no parameter vector for devices {missing}")
        if trace is None:
            trace = TraceRecorder(enabled=False)
        caller, sim = sim, Simulator(start_time=sim.now)
        t0 = sim.now
        k = len(ring)
        if k == 0:
            raise ValueError("empty ring")

        alive_at_start = {d: alive(d, t0) for d in ring}
        survivors0 = [d for d in ring if alive_at_start[d]]
        if len(survivors0) == 0:
            # Nothing to aggregate; the coordinator will skip this round.
            return RingSyncResult(
                survivors=[], aggregated=None, start_time=t0,
                completion_time=t0, bytes_sent=0,
            )
        if len(survivors0) == 1:
            only = survivors0[0]
            trace.record(t0, "sync_degenerate", only)
            return RingSyncResult(
                survivors=[only],
                aggregated=np.array(vectors[only], dtype=np.float64, copy=True),
                start_time=t0,
                completion_time=t0,
                bytes_sent=0,
            )

        seg_bytes = int(np.ceil(payload_nbytes / len(survivors0)))
        downstream = {ring[i]: ring[(i + 1) % k] for i in range(k)}
        upstream = {ring[i]: ring[(i - 1) % k] for i in range(k)}

        received_first: Dict[int, bool] = {d: False for d in ring}
        timeout_handles: Dict[int, object] = {}
        repair_ready: Dict[int, float] = {d: t0 for d in survivors0}
        bypasses: List[Tuple[int, int, int]] = []
        excluded: Set[int] = set()  # alive but unreachable (link gave up)
        counters = {
            "control_bytes": 0,
            # Payload bytes beyond the one idealised copy the gossip
            # accounting already counts: first-step retransmissions and
            # every repair-resend attempt.
            "payload_extra_bytes": 0,
            "retries": 0,
            "dropped": 0,
        }

        def deliver_segment(src: int, dst: int) -> None:
            received_first[dst] = True
            handle = timeout_handles.get(dst)
            if handle is not None:
                handle.cancel()
            trace.record(sim.now, "segment_delivered", dst, src=src)

        def on_timeout(device: int) -> None:
            if received_first[device]:
                return
            if not alive(device, sim.now):
                return  # the suspecting device itself died meanwhile
            # Walk upstream past every dead (or unreachable) device,
            # paying a handshake RTT and a warning message per hop,
            # exactly the paper's sequence.
            delay = 0.0
            suspect = upstream[device]
            while True:
                if suspect == device:
                    # Walked the whole ring: no live upstream remains.
                    # The device keeps its own vector and re-enters at
                    # whatever membership survives.
                    received_first[device] = True
                    repair_ready[device] = sim.now + delay
                    trace.record(
                        repair_ready[device], "walk_wrapped", device
                    )
                    return
                if suspect in excluded or not alive(suspect, sim.now + delay):
                    handshake_rtt = 2 * self.network.p2p_time_between(
                        device, suspect, CONTROL_MESSAGE_BYTES
                    )
                    trace.record(
                        sim.now + delay, "handshake_no_reply", device,
                        suspect=suspect,
                    )
                    next_upstream = upstream[suspect]
                    warn_cost = self.network.p2p_time_between(
                        device, next_upstream, CONTROL_MESSAGE_BYTES
                    )
                    trace.record(
                        sim.now + delay + handshake_rtt,
                        "warning_sent",
                        device,
                        to=next_upstream,
                        bypassing=suspect,
                    )
                    bypasses.append((next_upstream, suspect, device))
                    counters["control_bytes"] += 2 * CONTROL_MESSAGE_BYTES
                    delay += handshake_rtt + warn_cost
                    suspect = next_upstream
                    continue
                # The first alive upstream re-sends its segment directly
                # (through the lossy-link envelope: retries are charged).
                outcome = self.delivery.send(
                    suspect, device, seg_bytes, sim.now + delay
                )
                counters["payload_extra_bytes"] += outcome.bytes_sent
                counters["retries"] += outcome.retries
                counters["dropped"] += outcome.drops
                arrival = sim.now + delay + outcome.elapsed
                if outcome.delivered and alive(suspect, arrival):
                    received_first[device] = True
                    repair_ready[device] = arrival
                    trace.record(
                        arrival, "bypass_established", device,
                        new_upstream=suspect,
                    )
                    return
                if outcome.delivered:
                    # Sender died mid-transfer: the message is lost.
                    counters["dropped"] += 1
                # Unreachable (or dead): warn its upstream and keep
                # walking.  Exclude it so later walks skip the retries.
                excluded.add(suspect)
                trace.record(
                    arrival, "resend_failed", device, suspect=suspect
                )
                next_upstream = upstream[suspect]
                warn_cost = self.network.p2p_time_between(
                    device, next_upstream, CONTROL_MESSAGE_BYTES
                )
                bypasses.append((next_upstream, suspect, device))
                counters["control_bytes"] += 2 * CONTROL_MESSAGE_BYTES
                delay += outcome.elapsed + warn_cost
                suspect = next_upstream

        # First scatter step, message by message.  Senders skip devices
        # the coordinator already knows are down (the round-start list);
        # everything else is attempted and may be lost in flight.
        for device in survivors0:
            dst = downstream[device]
            if alive_at_start.get(dst, False):
                outcome = self.delivery.send(device, dst, seg_bytes, t0)
                # One idealised copy of this segment is already counted
                # by the gossip accounting; only retransmissions are new.
                counters["payload_extra_bytes"] += (
                    outcome.bytes_sent - seg_bytes
                )
                counters["retries"] += outcome.retries
                counters["dropped"] += outcome.drops
                trace.record(t0, "segment_sent", device, dst=dst)
                arrival = t0 + outcome.elapsed
                if outcome.delivered:
                    if alive(device, arrival):
                        sim.schedule_at(arrival, deliver_segment, device, dst)
                    else:
                        counters["dropped"] += 1  # died mid-transfer
        # Every survivor arms a timeout: a delivered segment cancels it,
        # so fault-free runs never fire one.  Devices whose upstream is
        # already down at t0, or whose message is lost in flight, repair
        # through the walk.
        for device in survivors0:
            expected_hop = self.network.p2p_time_between(
                upstream[device], device, seg_bytes
            )
            timeout_handles[device] = sim.schedule_at(
                t0 + expected_hop + self.wait_time, on_timeout, device
            )

        sim.run()
        caller.run(until=sim.now)

        # Membership after repair: drop devices that became unreachable
        # or died before their link was re-established, then cut at the
        # restart time (the instant every remaining upstream link is
        # live — deaths after it belong to the next round).
        active = [
            d for d in survivors0
            if d not in excluded and alive(d, repair_ready[d])
        ]
        if not active:
            completion = max([sim.now] + list(repair_ready.values()))
            trace.record(completion, "sync_no_survivors")
            return RingSyncResult(
                survivors=[],
                aggregated=None,
                start_time=t0,
                completion_time=completion,
                bytes_sent=(
                    counters["payload_extra_bytes"] + counters["control_bytes"]
                ),
                bypasses=bypasses,
                control_bytes=counters["control_bytes"],
                retries=counters["retries"],
                dropped_messages=counters["dropped"],
            )
        restart_time = max(repair_ready[d] for d in active)
        survivors = [d for d in active if alive(d, restart_time)]
        if not survivors:
            survivors = active  # all died exactly at restart: degrade
        if len(survivors) == 1:
            only = survivors[0]
            trace.record(restart_time, "sync_degenerate", only)
            return RingSyncResult(
                survivors=[only],
                aggregated=np.array(vectors[only], dtype=np.float64, copy=True),
                start_time=t0,
                completion_time=restart_time,
                bytes_sent=(
                    counters["payload_extra_bytes"] + counters["control_bytes"]
                ),
                bypasses=bypasses,
                control_bytes=counters["control_bytes"],
                retries=counters["retries"],
                dropped_messages=counters["dropped"],
            )

        survivor_vectors = [vectors[d] for d in survivors]
        aggregated, stats = gossip_ring_exchange(
            survivor_vectors, wire=self.wire, reference=reference
        )
        gossip_time = self.network.ring_time_for(survivors, payload_nbytes)
        completion = restart_time + gossip_time
        if caller.now < completion:
            caller.run(until=completion)
        trace.record(completion, "sync_complete", detail_survivors=survivors)

        return RingSyncResult(
            survivors=survivors,
            aggregated=aggregated,
            start_time=t0,
            completion_time=completion,
            bytes_sent=(
                stats.total_bytes
                + counters["payload_extra_bytes"]
                + counters["control_bytes"]
            ),
            bypasses=bypasses,
            max_cast_error=stats.max_cast_error,
            control_bytes=counters["control_bytes"],
            retries=counters["retries"],
            dropped_messages=counters["dropped"],
        )
