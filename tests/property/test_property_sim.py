"""Hypothesis property tests for the simulation layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FailureInjector, NetworkModel, Simulator
from repro.sim.network import HeterogeneousNetworkModel


class TestSimulatorProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule_at(sim.now + delay, lambda d=delay: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=30,
        ),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cancelled_events_never_run(self, delays, data):
        sim = Simulator()
        ran = []
        handles = [
            sim.schedule_at(sim.now + delay, lambda i=i: ran.append(i))
            for i, delay in enumerate(delays)
        ]
        to_cancel = data.draw(
            st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
        )
        for index in to_cancel:
            handles[index].cancel()
        sim.run()
        assert set(ran) == set(range(len(delays))) - to_cancel

    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_clock_never_moves_backwards(self, horizon):
        sim = Simulator()
        sim.schedule_at(sim.now + (horizon / 2 if horizon else 0.0), lambda: None)
        sim.run(until=horizon)
        assert sim.now <= max(horizon, horizon / 2) + 1e-9
        assert sim.now >= 0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("schedule", "step", "run", "past", "drain")),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_interleavings_never_rewind(self, operations):
        """``now`` never decreases over any interleaving of scheduling,
        stepping and running to a horizon, and a past horizon raises."""
        sim = Simulator()
        for operation, amount in operations:
            before = sim.now
            if operation == "schedule":
                sim.schedule_at(before + amount, lambda: None)
            elif operation == "step":
                sim.step()
            elif operation == "run":
                sim.run(until=before + amount)
            elif operation == "drain":
                sim.run()
            else:
                with pytest.raises(ValueError):
                    sim.run(until=before - amount - 1.0)
                assert sim.now == before
            assert sim.now >= before


class TestNetworkProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_time_monotone_in_nodes_for_latency_regimes(self, nbytes, k):
        """Adding a node to a ring never makes it faster when latency
        dominates, and the formula is always non-negative."""
        net = NetworkModel(latency=1e-2, bandwidth=1e12)
        smaller = net.ring_allreduce_time(nbytes, k)
        larger = net.ring_allreduce_time(nbytes, k + 1)
        assert larger >= smaller >= 0

    @given(
        st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_p2p_scales_linearly_in_bytes(self, nbytes, factor):
        net = NetworkModel(latency=0.0, bandwidth=1e6)
        assert net.p2p_time(nbytes * factor) == np.float64(
            nbytes * factor
        ) / 1e6

    @given(
        st.dictionaries(
            st.integers(0, 10),
            st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_ring_gated_by_slowest(self, bandwidths, nbytes):
        """A mixed ring is never faster than the same-size ring built
        entirely from its best link, and never slower than one built
        entirely from its worst link."""
        net = HeterogeneousNetworkModel(
            latency=1e-3, bandwidth=1e9, device_bandwidth=bandwidths
        )
        ids = sorted(bandwidths)
        full = net.ring_time_for(ids, nbytes)
        best = NetworkModel(latency=1e-3, bandwidth=max(bandwidths.values()))
        worst = NetworkModel(latency=1e-3, bandwidth=min(bandwidths.values()))
        assert full >= best.ring_allreduce_time(nbytes, len(ids)) - 1e-12
        assert full <= worst.ring_allreduce_time(nbytes, len(ids)) + 1e-12


class TestFailureInjectorProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            ),
            min_size=0,
            max_size=10,
        ),
        st.floats(min_value=0, max_value=2e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_alive_iff_no_window_covers(self, windows, probe):
        injector = FailureInjector()
        for down_at, duration in windows:
            injector.fail(0, down_at, down_at + duration)
        expected = not any(
            down <= probe < down + dur for down, dur in windows
        )
        assert injector.is_alive(0, probe) == expected

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0, max_value=2e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_next_down_time_is_correct_infimum(self, windows, from_time):
        injector = FailureInjector()
        for down_at, duration in windows:
            injector.fail(0, down_at, down_at + duration)
        result = injector.next_down_time(0, from_time)
        if not injector.is_alive(0, from_time):
            assert result == from_time
        else:
            future = [d for d, _ in windows if d >= from_time]
            expected = min(future) if future else float("inf")
            assert result == expected
