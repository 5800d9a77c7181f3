"""Unit tests for the discrete-event engine, network model, failures, trace.

Simulator tie-break, cancellation, ``max_events`` and ``run(until=...)``
semantics are pinned once, in ``tests/test_engine.py``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.sim import (
    FailureInjector,
    FailureWindow,
    NetworkModel,
    Simulator,
    TraceRecorder,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(sim.now + 3.0, log.append, "c")
        sim.schedule_at(sim.now + 1.0, log.append, "a")
        sim.schedule_at(sim.now + 2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule_at(sim.now + 1.0, chain, n + 1)

        sim.schedule_at(sim.now + 0.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(sim.now - 1.0, lambda: None)

    def test_run_refuses_a_past_horizon(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="backwards"):
            sim.run(until=2.0)
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule_at(sim.now + 1.0, lambda: None)
        sim.run()
        assert sim.processed == 4


class TestNetworkModel:
    def test_p2p_time(self):
        net = NetworkModel(latency=0.01, bandwidth=100.0)
        assert net.p2p_time(50) == pytest.approx(0.01 + 0.5)

    def test_ring_allreduce_formula(self):
        net = NetworkModel(latency=0.001, bandwidth=1e6)
        k, n = 4, 1e6
        expected = 2 * (k - 1) * (0.001 + (n / k) / 1e6)
        assert net.ring_allreduce_time(n, k) == pytest.approx(expected)

    def test_allreduce_single_node_free(self):
        assert NetworkModel().ring_allreduce_time(1e9, 1) == 0.0

    def test_gossip_equals_restricted_allreduce(self):
        net = NetworkModel()
        assert net.gossip_ring_time(1000, 2) == net.ring_allreduce_time(1000, 2)

    def test_broadcast_scales_with_receivers(self):
        net = NetworkModel(latency=0.01, bandwidth=1e3)
        assert net.sequential_sends_time(100, 3) == pytest.approx(
            3 * net.p2p_time(100)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.p2p_time(-5)
        with pytest.raises(ValueError):
            net.ring_allreduce_time(10, 0)


class TestFailureInjector:
    def test_window_covers(self):
        window = FailureWindow(0, down_at=2.0, up_at=5.0)
        assert not window.covers(1.9)
        assert window.covers(2.0)
        assert window.covers(4.999)
        assert not window.covers(5.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FailureWindow(0, down_at=5.0, up_at=5.0)
        with pytest.raises(ValueError):
            FailureWindow(0, down_at=-1.0)

    def test_is_alive(self):
        injector = FailureInjector()
        injector.fail(1, down_at=10.0, up_at=20.0)
        assert injector.is_alive(1, 5.0)
        assert not injector.is_alive(1, 15.0)
        assert injector.is_alive(1, 25.0)
        assert injector.is_alive(2, 15.0)  # unknown devices are alive

    def test_permanent_failure(self):
        injector = FailureInjector()
        injector.fail(0, down_at=1.0)
        assert not injector.is_alive(0, 1e12)

    def test_alive_devices(self):
        injector = FailureInjector()
        injector.fail(2, 0.0, 10.0)
        assert injector.alive_devices([0, 1, 2, 3], 5.0) == [0, 1, 3]

    def test_random_injector_reproducible(self):
        a = FailureInjector.random(
            [0, 1], horizon=100.0, failure_rate=0.1, mean_downtime=5.0,
            rng=np.random.default_rng(3),
        )
        b = FailureInjector.random(
            [0, 1], horizon=100.0, failure_rate=0.1, mean_downtime=5.0,
            rng=np.random.default_rng(3),
        )
        assert [w.down_at for w in a.windows_for(0)] == [
            w.down_at for w in b.windows_for(0)
        ]

    def test_random_zero_rate_no_failures(self):
        injector = FailureInjector.random(
            [0], horizon=100.0, failure_rate=0.0, mean_downtime=1.0
        )
        assert injector.windows_for(0) == []


class TestTraceRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(1.0, "send", device_id=0, dst=1)
        trace.record(2.0, "recv", device_id=1)
        trace.record(3.0, "send", device_id=1, dst=0)
        assert len(trace) == 3
        assert len(trace.events("send")) == 2
        assert Counter(e.kind for e in trace) == {"send": 2, "recv": 1}

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "send")
        assert len(trace) == 0

    def test_tail_and_clear(self):
        trace = TraceRecorder()
        for i in range(5):
            trace.record(float(i), "tick")
        assert [e.time for e in list(trace)[-2:]] == [3.0, 4.0]
        trace.clear()
        assert len(trace) == 0
