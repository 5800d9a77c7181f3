"""Unit tests for the fault-tolerant ring synchronisation protocol."""

import numpy as np
import pytest

from repro.comm import CONTROL_MESSAGE_BYTES, FaultTolerantRingSync
from repro.sim import (
    FailureInjector,
    LinkFaultModel,
    NetworkModel,
    RetryPolicy,
    Simulator,
    TraceRecorder,
)

NET = NetworkModel(latency=1e-3, bandwidth=1e8)
PAYLOAD = 40_000  # bytes


def _vectors(ids):
    return {i: np.full(10, float(i)) for i in ids}


def _alive_fn(injector):
    return lambda device, time: injector.is_alive(device, time)


class TestHealthyRing:
    def test_aggregates_mean_of_all(self):
        sim = Simulator()
        sync = FaultTolerantRingSync(NET)
        ring = [0, 1, 2, 3]
        result = sync.run(
            sim, ring, _vectors(ring), lambda d, t: True, PAYLOAD
        )
        assert result.survivors == ring
        np.testing.assert_allclose(result.aggregated, np.full(10, 1.5))
        assert not result.bypasses

    def test_duration_matches_gossip_time(self):
        sim = Simulator()
        sync = FaultTolerantRingSync(NET)
        result = sync.run(sim, [0, 1, 2], _vectors([0, 1, 2]), lambda d, t: True, PAYLOAD)
        assert result.duration == pytest.approx(NET.gossip_ring_time(PAYLOAD, 3))

    def test_starts_at_sim_now(self):
        sim = Simulator(start_time=42.0)
        sync = FaultTolerantRingSync(NET)
        result = sync.run(sim, [0, 1], _vectors([0, 1]), lambda d, t: True, PAYLOAD)
        assert result.start_time == 42.0
        assert result.completion_time > 42.0

    def test_leaves_the_callers_events_queued(self):
        """The protocol runs on its own event queue: an event the caller
        queued beyond the ring is neither run nor waited for, and the
        caller's clock lands where the protocol ended."""
        sim = Simulator()
        fired = []
        sim.schedule_at(100.0, fired.append, "sentinel")
        result = FaultTolerantRingSync(NET).run(
            sim, [0, 1, 2], _vectors([0, 1, 2]), lambda d, t: True, PAYLOAD
        )
        assert fired == []
        assert sim.pending == 1
        assert sim.now == result.completion_time < 100.0

    def test_runs_the_callers_events_due_before_completion(self):
        """A caller event due while the ring runs fires at its own time
        once the protocol ends, so the caller's clock never passes a
        queued event (which would rewind it when stepped later)."""
        sim = Simulator()
        due = NET.gossip_ring_time(PAYLOAD, 3) / 2
        fired = []
        sim.schedule_at(due, lambda: fired.append(sim.now))
        result = FaultTolerantRingSync(NET).run(
            sim, [0, 1, 2], _vectors([0, 1, 2]), lambda d, t: True, PAYLOAD
        )
        assert fired == [due]
        assert sim.pending == 0
        assert sim.now == result.completion_time > due

    def test_bytes_accounted(self):
        sim = Simulator()
        sync = FaultTolerantRingSync(NET)
        result = sync.run(sim, [0, 1, 2, 3], _vectors(range(4)), lambda d, t: True, PAYLOAD)
        assert result.bytes_sent > 0


class TestSingleFailure:
    def test_paper_example_device2_bypassed(self):
        """The exact scenario of Fig. 2(b): device 2 dies; 3 detects,
        handshakes, warns 1; ring becomes 0→1→3→0."""
        injector = FailureInjector()
        injector.fail(2, down_at=0.0)
        sim = Simulator()
        trace = TraceRecorder()
        sync = FaultTolerantRingSync(NET, wait_time=0.05)
        result = sync.run(
            sim, [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD,
            trace=trace,
        )
        assert result.survivors == [0, 1, 3]
        np.testing.assert_allclose(result.aggregated, np.full(10, (0 + 1 + 3) / 3))
        assert result.bypasses == [(1, 2, 3)]
        assert len(trace.events("handshake_no_reply")) == 1
        assert len(trace.events("warning_sent")) == 1
        assert len(trace.events("bypass_established")) == 1

    def test_failure_adds_wait_time_to_duration(self):
        injector = FailureInjector()
        injector.fail(2, down_at=0.0)
        healthy = FaultTolerantRingSync(NET, wait_time=0.05).run(
            Simulator(), [0, 1, 3], _vectors([0, 1, 3]), lambda d, t: True, PAYLOAD
        )
        repaired = FaultTolerantRingSync(NET, wait_time=0.05).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD
        )
        assert repaired.duration > healthy.duration
        assert repaired.duration > 0.05  # at least the waiting time

    def test_recovered_device_participates_again(self):
        injector = FailureInjector()
        injector.fail(2, down_at=0.0, up_at=10.0)
        sim = Simulator(start_time=20.0)  # after recovery
        result = FaultTolerantRingSync(NET).run(
            sim, [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD
        )
        assert result.survivors == [0, 1, 2, 3]


class TestMultipleFailures:
    def test_consecutive_dead_devices_walked_past(self):
        injector = FailureInjector()
        injector.fail(1, down_at=0.0)
        injector.fail(2, down_at=0.0)
        trace = TraceRecorder()
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD,
            trace=trace,
        )
        assert result.survivors == [0, 3]
        # Device 3 walks past 2 then 1: two handshakes, two warnings.
        assert len(trace.events("handshake_no_reply")) == 2
        assert {b[1] for b in result.bypasses} == {1, 2}
        np.testing.assert_allclose(result.aggregated, np.full(10, 1.5))

    def test_nonadjacent_failures(self):
        injector = FailureInjector()
        injector.fail(1, down_at=0.0)
        injector.fail(3, down_at=0.0)
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD
        )
        assert result.survivors == [0, 2]
        assert len(result.bypasses) == 2

    def test_single_survivor_degenerate(self):
        injector = FailureInjector()
        for d in (0, 1, 2):
            injector.fail(d, down_at=0.0)
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD
        )
        assert result.survivors == [3]
        np.testing.assert_allclose(result.aggregated, np.full(10, 3.0))
        assert result.duration == 0.0

    def test_all_dead_returns_empty(self):
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1], _vectors([0, 1]), lambda d, t: False, PAYLOAD
        )
        assert result.survivors == []
        assert result.aggregated is None


class TestValidation:
    def test_duplicate_ring_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultTolerantRingSync(NET).run(
                Simulator(), [0, 0], _vectors([0]), lambda d, t: True, PAYLOAD
            )

    def test_missing_vector(self):
        with pytest.raises(ValueError, match="no parameter vector"):
            FaultTolerantRingSync(NET).run(
                Simulator(), [0, 1], _vectors([0]), lambda d, t: True, PAYLOAD
            )

    def test_empty_ring(self):
        with pytest.raises(ValueError, match="empty ring"):
            FaultTolerantRingSync(NET).run(
                Simulator(), [], {}, lambda d, t: True, PAYLOAD
            )

    def test_invalid_wait_time(self):
        with pytest.raises(ValueError):
            FaultTolerantRingSync(NET, wait_time=0.0)


class TestRingBoundaryWalks:
    def test_wraparound_bypass_across_ring_boundary(self):
        """Dead devices straddling the list boundary ({3, 0}) force the
        repair walk to wrap: device 1 walks past 0 then 3 to reach 2."""
        injector = FailureInjector()
        injector.fail(0, down_at=0.0)
        injector.fail(3, down_at=0.0)
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector), PAYLOAD
        )
        assert result.survivors == [1, 2]
        assert result.bypasses == [(3, 0, 1), (2, 3, 1)]
        np.testing.assert_allclose(result.aggregated, np.full(10, 1.5))

    def test_consecutive_dead_run_next_to_sole_surviving_pair(self):
        """K=6 with devices 2..5 dead: device 0 walks the whole dead run
        (four bypass hops) to find device 1, its only live upstream."""
        injector = FailureInjector()
        for d in (2, 3, 4, 5):
            injector.fail(d, down_at=0.0)
        trace = TraceRecorder()
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3, 4, 5], _vectors(range(6)),
            _alive_fn(injector), PAYLOAD, trace=trace,
        )
        assert result.survivors == [0, 1]
        assert len(result.bypasses) == 4
        assert {b[1] for b in result.bypasses} == {2, 3, 4, 5}
        assert len(trace.events("handshake_no_reply")) == 4
        np.testing.assert_allclose(result.aggregated, np.full(10, 0.5))


class TestMidSyncDeath:
    def test_device_dying_in_flight_loses_message_and_gets_bypassed(self):
        """Device 2 is alive at round start but dies while its segment is
        in flight: the message is lost, device 3 times out and repairs —
        the round-start liveness snapshot no longer freezes the protocol."""
        injector = FailureInjector()
        injector.fail(2, down_at=5e-4)  # mid-first-transfer
        trace = TraceRecorder()
        result = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2, 3], _vectors(range(4)), _alive_fn(injector),
            PAYLOAD, trace=trace,
        )
        assert result.survivors == [0, 1, 3]
        assert result.bypasses == [(1, 2, 3)]
        assert result.dropped_messages == 1
        assert len(trace.events("bypass_established")) == 1
        np.testing.assert_allclose(result.aggregated, np.full(10, (0 + 1 + 3) / 3))


class TestLossyLinks:
    def test_retry_recovers_and_charges_retransmission(self):
        """One flapped first attempt: the retry lands after backoff, the
        sync completes with everyone, and exactly one extra segment copy
        is charged on top of the clean-run figure."""
        faults = LinkFaultModel()
        faults.flap(0, 1, down_at=0.0, up_at=0.01, symmetric=False)
        clean = FaultTolerantRingSync(NET).run(
            Simulator(), [0, 1, 2], _vectors(range(3)), lambda d, t: True, PAYLOAD
        )
        lossy = FaultTolerantRingSync(NET, link_faults=faults).run(
            Simulator(), [0, 1, 2], _vectors(range(3)), lambda d, t: True, PAYLOAD
        )
        seg_bytes = int(np.ceil(PAYLOAD / 3))
        assert lossy.survivors == [0, 1, 2]
        assert lossy.retries == 1
        assert lossy.dropped_messages == 1
        # Two extra segment copies beyond the clean run: the first-step
        # retransmission, plus the repair resend (the receiver's timeout
        # fires before the backed-off retry can land, so it repairs
        # through its still-alive upstream directly).
        assert lossy.bytes_sent == clean.bytes_sent + 2 * seg_bytes
        np.testing.assert_allclose(lossy.aggregated, clean.aggregated)

    def test_totally_dark_links_report_attempted_bytes(self):
        """Every link dead: zero survivors, but the attempted payload and
        control traffic is still reported so the accountant can charge it."""
        faults = LinkFaultModel()
        faults.flap(0, 1, down_at=0.0)  # symmetric: both directions dark
        policy = RetryPolicy(max_attempts=2, base_timeout=0.01)
        result = FaultTolerantRingSync(
            NET, link_faults=faults, retry_policy=policy
        ).run(Simulator(), [0, 1], _vectors([0, 1]), lambda d, t: True, PAYLOAD)
        assert result.survivors == []
        assert result.aggregated is None
        seg_bytes = int(np.ceil(PAYLOAD / 2))
        # 1 retransmission per first-step send + 2 attempts per repair
        # resend = 6 segment copies beyond the (never-run) gossip, plus a
        # handshake+warning pair per exclusion.
        assert result.control_bytes == 2 * 2 * CONTROL_MESSAGE_BYTES
        assert result.bytes_sent == 6 * seg_bytes + result.control_bytes
        assert result.retries == 4
        assert result.dropped_messages == 8
