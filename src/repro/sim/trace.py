"""Structured event tracing for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event."""

    time: float
    kind: str
    device_id: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        dev = f" dev={self.device_id}" if self.device_id is not None else ""
        return f"[{self.time:10.4f}] {self.kind}{dev} {self.detail}"


class TraceRecorder:
    """Append-only event log with simple filtering.

    Tests use traces to assert protocol behaviour (e.g. that a ring
    repair emitted exactly one handshake and one bypass), and the
    examples print them to show what the framework is doing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    def record(
        self,
        time: float,
        kind: str,
        device_id: Optional[int] = None,
        **detail: Any,
    ) -> None:
        if self.enabled:
            self._events.append(TraceEvent(time, kind, device_id, detail))

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(self._events)
