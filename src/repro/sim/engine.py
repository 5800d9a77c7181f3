"""Event-queue core of the cluster simulator.

A tiny but complete discrete-event engine: callbacks are scheduled at
absolute or relative virtual times, executed in time order (FIFO among
ties), and may schedule further events.  Handles support cancellation,
which the fault-tolerant synchronisation protocol uses for its
"wait-then-handshake" timeouts (Sec. III-D).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"EventHandle(t={self.time:.6g}, {name}, {state})"


class Simulator:
    """Virtual-clock discrete-event simulator.

    Events scheduled for the same instant run in scheduling order, making
    runs fully deterministic — a property the reproduction tests rely on.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[EventHandle] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def processed(self) -> int:
        return self._processed

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        handle = EventHandle(float(time), next(self._sequence), callback, args)
        heapq.heappush(self._queue, handle)
        return handle

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        while self._queue:
            handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = handle.time
            handle.callback(*handle.args)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> float:
        """Run events until the queue drains (or the horizon is reached).

        Parameters
        ----------
        until:
            Optional virtual-time horizon, no earlier than ``now``; events
            after it stay queued and the clock advances exactly to
            ``until``.
        max_events:
            Safety valve against runaway self-scheduling loops.
        """
        if until is not None and until < self._now:
            raise ValueError(f"cannot move clock backwards to {until} from {self._now}")
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                # Cancelled events still count toward the safety valve:
                # a runaway schedule-then-cancel loop must not dodge it.
                if executed >= max_events:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; runaway loop?"
                    )
                heapq.heappop(self._queue)
                executed += 1
                continue
            if until is not None and head.time > until:
                self._now = until
                return self._now
            if executed >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events}; runaway loop?")
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now
