"""Event-engine contracts the arrival-ordered round loop relies on.

Pins the FIFO tie-break and cancellation semantics of
:class:`~repro.sim.engine.Simulator` — including the ``max_events``
safety valve counting cancelled head pops — and unit-tests
:class:`~repro.sim.rounds.RoundEngine` against a stub executor.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.rounds import (
    AGGREGATION_MODES,
    Arrival,
    RoundEngine,
    staleness_stats,
    staleness_weights,
)


class TestTieOrdering:
    def test_simultaneous_events_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in range(8):
            sim.schedule_at(1.0, log.append, tag)
        sim.run()
        assert log == list(range(8))

    def test_ties_preserved_across_interleaved_times(self):
        sim = Simulator()
        log = []
        sim.schedule_at(2.0, log.append, "b1")
        sim.schedule_at(1.0, log.append, "a1")
        sim.schedule_at(2.0, log.append, "b2")
        sim.schedule_at(1.0, log.append, "a2")
        sim.run()
        assert log == ["a1", "a2", "b1", "b2"]

    def test_rescheduled_tie_goes_last(self):
        sim = Simulator()
        log = []

        def reschedule():
            log.append("first")
            sim.schedule_at(sim.now, log.append, "nested")

        sim.schedule_at(1.0, reschedule)
        sim.schedule_at(1.0, log.append, "second")
        sim.run()
        assert log == ["first", "second", "nested"]


class TestCancellation:
    def test_cancelled_event_never_runs(self):
        sim = Simulator()
        log = []
        handle = sim.schedule_at(1.0, log.append, "x")
        sim.schedule_at(2.0, log.append, "y")
        handle.cancel()
        sim.run()
        assert log == ["y"]
        assert sim.processed == 1

    def test_cancelled_events_not_pending(self):
        sim = Simulator()
        keep = sim.schedule_at(1.0, lambda: None)
        drop = sim.schedule_at(1.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        keep.cancel()
        assert sim.pending == 0

    def test_cancel_from_inside_an_event(self):
        sim = Simulator()
        log = []
        victim = sim.schedule_at(2.0, log.append, "victim")
        sim.schedule_at(1.0, victim.cancel)
        sim.run()
        assert log == []

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        log = []
        head = sim.schedule_at(1.0, log.append, "head")
        sim.schedule_at(2.0, log.append, "tail")
        head.cancel()
        assert sim.step() is True
        assert log == ["tail"]
        assert sim.now == 2.0


class TestMaxEventsValve:
    def test_live_events_trip_the_valve(self):
        sim = Simulator()

        def rearm():
            sim.schedule_at(sim.now + 1.0, rearm)

        sim.schedule_at(sim.now + 1.0, rearm)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=50)

    def test_cancelled_head_pops_count_toward_the_valve(self):
        # A runaway schedule-then-cancel loop used to dodge max_events
        # entirely: cancelled heads were popped without being counted.
        sim = Simulator()
        for _ in range(100):
            sim.schedule_at(1.0, lambda: None).cancel()
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=50)

    def test_cancelled_pops_within_budget_still_drain(self):
        sim = Simulator()
        log = []
        for _ in range(10):
            sim.schedule_at(1.0, lambda: None).cancel()
        sim.schedule_at(2.0, log.append, "live")
        sim.run(max_events=50)
        assert log == ["live"]

    def test_run_until_leaves_clock_exactly_at_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, log.append, "in")
        sim.schedule_at(5.0, log.append, "out")
        horizon = 2.5
        assert sim.run(until=horizon) == horizon
        assert sim.now == horizon
        assert log == ["in"]
        assert sim.pending == 1
        sim.run()  # the event beyond the horizon was kept, not dropped
        assert log == ["in", "out"]


# --------------------------------------------------------------------- #
# RoundEngine against a stub executor
# --------------------------------------------------------------------- #
def _task(device_id, start_time, max_steps=None, deadline=float("inf")):
    # A truncated burst was cut by its deadline (the crash), so every
    # task carries one; inf is a device that never goes down.
    return SimpleNamespace(
        device_id=device_id,
        start_time=start_time,
        max_steps=max_steps,
        deadline=deadline,
    )


class StubExecutor:
    """Deterministic executor stand-in: elapsed = device_id + 1 seconds,
    steps = max_steps (or 3 when unbounded)."""

    def __init__(self, elapsed=None, steps=None):
        self.elapsed = elapsed or {}
        self.steps = steps or {}

    def run_tasks(self, host, tasks):
        bursts = {}
        for task in tasks:
            steps = self.steps.get(
                task.device_id,
                task.max_steps if task.max_steps is not None else 3,
            )
            bursts[task.device_id] = SimpleNamespace(
                steps=steps,
                losses=[0.1] * steps,
                elapsed=self.elapsed.get(task.device_id, task.device_id + 1.0),
            )
        return bursts


class TestRoundEngine:
    def test_collect_deadline_is_a_barrier(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(d, 0.0) for d in range(3)])
        arrivals = engine.collect(deadline=10.0)
        assert [a.device_id for a in arrivals] == [0, 1, 2]
        assert sim.now == 10.0
        assert engine.in_flight == set()

    def test_arrivals_beyond_deadline_stay_queued(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(d, 0.0) for d in range(3)])
        early = engine.collect(deadline=1.5)
        assert [a.device_id for a in early] == [0]
        assert engine.in_flight == {1, 2}
        late = engine.collect(deadline=4.0)
        assert [a.device_id for a in late] == [1, 2]

    def test_collect_count_cuts_at_kth_completion(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(d, 0.0, max_steps=3) for d in range(4)])
        arrivals = engine.collect(count=2)
        assert [a.device_id for a in arrivals] == [0, 1]
        assert sim.now == 2.0  # the cut arrival's completion time
        assert engine.in_flight == {2, 3}

    def test_truncated_arrivals_do_not_count_toward_buffer(self):
        sim = Simulator()
        # Device 0 delivers only 1 of its 5-step budget (truncated by its
        # crash at 1.5).
        executor = StubExecutor(steps={0: 1})
        engine = RoundEngine(sim, executor)
        engine.launch(
            None,
            [_task(0, 0.0, max_steps=5, deadline=1.5)]
            + [_task(d, 0.0, max_steps=5) for d in (1, 2)],
        )
        arrivals = engine.collect(count=2)
        # Truncated device 0 is returned but devices 1 and 2 fill the buffer.
        assert [a.device_id for a in arrivals] == [0, 1, 2]
        assert [a.completed for a in arrivals] == [False, True, True]

    def test_truncated_arrival_fires_at_the_crash(self):
        """A burst cut after no step has elapsed 0; it arrives at its
        deadline (the crash), so collecting it moves the clock."""
        sim = Simulator(start_time=1.25)
        executor = StubExecutor(steps={0: 0}, elapsed={0: 0.0})
        engine = RoundEngine(sim, executor)
        engine.launch(None, [_task(0, 1.25, max_steps=4, deadline=1.5)])
        [arrival] = engine.collect(count=1)
        assert not arrival.completed
        assert arrival.time == 1.5
        assert sim.now == 1.5

    def test_simultaneous_arrivals_keep_task_order(self):
        sim = Simulator()
        executor = StubExecutor(elapsed={0: 2.0, 1: 2.0, 2: 2.0})
        engine = RoundEngine(sim, executor)
        engine.launch(None, [_task(d, 0.0) for d in (2, 0, 1)])
        arrivals = engine.collect()
        assert [a.device_id for a in arrivals] == [2, 0, 1]

    def test_stragglers_carry_across_collects(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(d, 0.0, max_steps=3) for d in range(3)])
        first = engine.collect(count=1)
        assert [a.device_id for a in first] == [0]
        # A later round launches more work; the old stragglers still arrive
        # in global arrival order.
        engine.launch(None, [_task(3, sim.now, max_steps=3)])
        rest = engine.collect(count=3)
        assert [a.device_id for a in rest] == [1, 2, 3]

    def test_meta_rides_along(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(0, 0.0)], meta={0: {"dispatch_epoch": 7}})
        [arrival] = engine.collect()
        assert arrival.meta == {"dispatch_epoch": 7}

    def test_discard_in_flight(self):
        sim = Simulator()
        engine = RoundEngine(sim, StubExecutor())
        engine.launch(None, [_task(d, 0.0) for d in range(2)])
        engine.discard_in_flight([0, 1])
        assert engine.in_flight == set()
        assert not engine.is_in_flight(0)


class TestStalenessHelpers:
    def test_stats_empty(self):
        assert staleness_stats([]) == {
            "staleness_p50": 0.0,
            "staleness_p90": 0.0,
            "staleness_max": 0.0,
        }

    def test_stats_values(self):
        stats = staleness_stats([0.0, 1.0, 2.0, 3.0])
        assert stats["staleness_max"] == 3.0
        assert stats["staleness_p50"] == 1.5

    def test_weights_normalised_and_monotone(self):
        weights = staleness_weights([0.0, 1.0, 3.0], exponent=0.5)
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[2]

    def test_zero_exponent_is_uniform(self):
        weights = staleness_weights([0.0, 2.0, 9.0], exponent=0.0)
        np.testing.assert_allclose(weights, np.full(3, 1.0 / 3.0))

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            staleness_weights([-1.0], exponent=0.5)

    def test_mode_vocabulary(self):
        assert AGGREGATION_MODES == ("sync", "buffered_async")

    def test_arrival_repr(self):
        arrival = Arrival(3, 1.0, 2, [0.5, 0.4], 1.0, completed=False)
        assert "partial" in repr(arrival)
