"""FailureInjector semantics, including window-boundary cases.

The windows are closed-open intervals ``[down_at, up_at)``; trainers rely
on :meth:`FailureInjector.next_down_time` to stop a device's compute at
the exact moment it disconnects, so the boundary behaviour is pinned
here: a query exactly at ``down_at`` is already dead, a query exactly at
``up_at`` has recovered, and queries between windows see the next one.
"""

import numpy as np
import pytest

from repro.sim.failures import (
    FailureInjector,
    FailureWindow,
    SlowdownDrift,
    SlowdownWindow,
)


class TestFailureWindow:
    def test_rejects_negative_down_at(self):
        with pytest.raises(ValueError):
            FailureWindow(0, down_at=-1.0, up_at=2.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            FailureWindow(0, down_at=2.0, up_at=2.0)

    def test_covers_is_closed_open(self):
        window = FailureWindow(0, down_at=1.0, up_at=2.0)
        assert not window.covers(0.999)
        assert window.covers(1.0)  # closed at down_at
        assert window.covers(1.5)
        assert not window.covers(2.0)  # open at up_at


class TestNextDownTime:
    def _injector(self):
        injector = FailureInjector()
        injector.fail(7, down_at=2.0, up_at=3.0)
        injector.fail(7, down_at=5.0, up_at=6.0)
        return injector

    def test_query_exactly_at_down_at(self):
        """At the instant the window opens the device is already dead:
        next_down_time is the query time itself."""
        injector = self._injector()
        assert injector.next_down_time(7, 2.0) == 2.0
        assert not injector.is_alive(7, 2.0)

    def test_query_exactly_at_up_at(self):
        """At up_at the device is back (closed-open window): the answer
        is the next window's down_at, not the elapsed one."""
        injector = self._injector()
        assert injector.next_down_time(7, 3.0) == 5.0
        assert injector.is_alive(7, 3.0)

    def test_query_between_windows(self):
        injector = self._injector()
        assert injector.next_down_time(7, 4.0) == 5.0
        assert injector.is_alive(7, 4.0)

    def test_query_inside_window_returns_query_time(self):
        injector = self._injector()
        assert injector.next_down_time(7, 2.5) == 2.5
        assert injector.next_down_time(7, 5.999) == 5.999

    def test_query_before_first_window(self):
        injector = self._injector()
        assert injector.next_down_time(7, 0.0) == 2.0

    def test_query_after_last_window(self):
        injector = self._injector()
        assert injector.next_down_time(7, 6.0) == float("inf")
        assert injector.next_down_time(7, 100.0) == float("inf")

    def test_unknown_device_never_fails(self):
        injector = self._injector()
        assert injector.next_down_time(99, 0.0) == float("inf")
        assert injector.is_alive(99, 1e9)

    def test_permanent_failure(self):
        injector = FailureInjector()
        injector.fail(1, down_at=4.0)  # up_at defaults to inf
        assert injector.next_down_time(1, 0.0) == 4.0
        assert injector.next_down_time(1, 4.0) == 4.0
        assert injector.next_down_time(1, 1e12) == 1e12  # still inside

    def test_overlapping_windows_earliest_wins(self):
        injector = FailureInjector()
        injector.fail(2, down_at=3.0, up_at=8.0)
        injector.fail(2, down_at=5.0, up_at=6.0)
        assert injector.next_down_time(2, 0.0) == 3.0
        # Inside either window the device is down right now.
        assert injector.next_down_time(2, 5.5) == 5.5

    def test_random_injector_respects_horizon(self):
        rng = np.random.default_rng(11)
        injector = FailureInjector.random(
            [0, 1, 2], horizon=50.0, failure_rate=0.1,
            mean_downtime=2.0, rng=rng,
        )
        for device in (0, 1, 2):
            for window in injector.windows_for(device):
                assert window.down_at < 50.0

    def test_failure_injector_unseeded_is_deterministic(self):
        """Without a generator the injector draws from a fixed fallback
        seed, never from OS entropy."""
        kwargs = dict(
            device_ids=range(4), horizon=50.0,
            failure_rate=0.1, mean_downtime=3.0,
        )
        a = FailureInjector.random(**kwargs)
        b = FailureInjector.random(**kwargs)
        for device in range(4):
            assert a.windows_for(device) == b.windows_for(device)


class TestBisectAliveLookup:
    def test_many_windows_match_linear_semantics(self):
        """The sort+bisect lookup agrees with a brute-force window scan."""
        rng = np.random.default_rng(5)
        injector = FailureInjector()
        starts = np.sort(rng.uniform(0.0, 1000.0, size=200))
        windows = [(float(s), float(s + rng.uniform(0.1, 5.0))) for s in starts]
        for down, up in windows:
            injector.fail(7, down_at=down, up_at=up)
        for time in rng.uniform(-1.0, 1010.0, size=500):
            brute = not any(down <= time < up for down, up in windows)
            assert injector.is_alive(7, float(time)) == brute

    def test_windows_added_after_query_are_seen(self):
        """``add_window`` invalidates the merged cache."""
        injector = FailureInjector()
        injector.fail(0, down_at=0.0, up_at=1.0)
        assert injector.is_alive(0, 5.0)
        injector.fail(0, down_at=4.0, up_at=6.0)
        assert not injector.is_alive(0, 5.0)


class TestSlowdowns:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SlowdownWindow(0, start=2.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            SlowdownWindow(0, start=0.0, end=1.0, factor=0.0)

    def test_factor_outside_window_is_unity(self):
        injector = FailureInjector()
        injector.slow(0, start=5.0, end=10.0, factor=4.0)
        assert injector.slowdown_factor(0, 4.9) == 1.0
        assert injector.slowdown_factor(0, 5.0) == 4.0
        assert injector.slowdown_factor(0, 10.0) == 1.0
        assert injector.slowdown_factor(1, 7.0) == 1.0

    def test_overlapping_windows_compound(self):
        injector = FailureInjector()
        injector.slow(0, start=0.0, end=10.0, factor=2.0)
        injector.slow(0, start=5.0, end=15.0, factor=3.0)
        assert injector.slowdown_factor(0, 7.0) == pytest.approx(6.0)

    def test_has_slowdowns(self):
        injector = FailureInjector()
        assert not injector.has_slowdowns()
        injector.fail(0, down_at=1.0)  # crashes are not slowdowns
        assert not injector.has_slowdowns()
        injector.slow(0, start=0.0, end=1.0, factor=2.0)
        assert injector.has_slowdowns()

    def test_slowdown_does_not_affect_liveness(self):
        injector = FailureInjector()
        injector.slow(0, start=0.0, end=100.0, factor=10.0)
        assert injector.is_alive(0, 50.0)


class TestSlowdownDrift:
    def test_inside_window_scales_rate_down(self):
        injector = FailureInjector()
        injector.slow(3, start=10.0, end=20.0, factor=4.0)
        drift = SlowdownDrift(injector, 3)
        assert drift(5.0) == 1.0
        assert drift(15.0) == pytest.approx(0.25)

    def test_composes_with_base_drift(self):
        injector = FailureInjector()
        injector.slow(1, start=0.0, end=10.0, factor=2.0)
        drift = SlowdownDrift(injector, 1, base_drift=lambda t: 0.5)
        assert drift(5.0) == pytest.approx(0.25)
        assert drift(20.0) == pytest.approx(0.5)

    def test_picklable_for_process_executor(self):
        import pickle

        injector = FailureInjector()
        injector.slow(0, start=0.0, end=5.0, factor=3.0)
        drift = pickle.loads(pickle.dumps(SlowdownDrift(injector, 0)))
        assert drift(1.0) == pytest.approx(1.0 / 3.0)


class TestRandomWithSlowdowns:
    def test_generates_both_fault_types(self):
        rng = np.random.default_rng(3)
        injector = FailureInjector.random(
            [0, 1, 2, 3], horizon=200.0, failure_rate=0.05,
            mean_downtime=2.0, rng=rng, slowdown_rate=0.05,
            mean_slowdown=3.0, slowdown_factor=4.0,
        )
        assert any(injector.windows_for(d) for d in range(4))
        assert injector.has_slowdowns()
        for device in range(4):
            for window in injector._slowdowns.get(device, ()):
                assert window.start < 200.0
                assert window.factor == 4.0

    def test_slowdown_validation(self):
        with pytest.raises(ValueError, match="slowdown"):
            FailureInjector.random(
                [0], horizon=10.0, failure_rate=0.0, mean_downtime=1.0,
                slowdown_rate=-1.0,
            )
