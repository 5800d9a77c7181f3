"""Benchmark-side span tracer: layer attribution without touching ``src/``.

The tracer replaces a layer's public callable (a method on its class, or
a function in the namespace of the module that imported it by name) with
a wrapper that records one span per call — ``(name, start_ns, end_ns,
parent, pass)`` — in memory.  Every replacement is remembered and undone
by :meth:`Tracer.restore`, so an untraced pass after a traced one runs
the program's own attributes again.

A layer's time is its **self time**: a span's duration minus the part its
child spans cover.  Two wrapper options keep that attribution honest:

``exclusive``
    While a span of this name is open, nested calls to wrappers of the
    same name run unrecorded.  ``Module.__call__`` re-enters itself for
    every sub-layer; only the outermost call is a boundary crossing.
``leaf``
    While the span is open *no* span is recorded beneath it.  Evaluation
    is instrumentation: the forward passes under it count as evaluation
    time, not as training forward time.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout (a tuple, stored when the call returns).
NAME, START, END, PARENT, PASS = range(5)
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "pass")


class Tracer:
    """Records spans around patched callables; restores them on demand."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.pass_id = 0
        self._stack: List[int] = []
        self._muted = 0
        self._depth: Dict[str, List[int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        name: str,
        fn: Callable,
        exclusive: bool = False,
        leaf: bool = False,
    ) -> Callable:
        """A recording wrapper around ``fn`` (see the module docstring)."""
        tracer = self
        spans, stack, clock = self.spans, self._stack, perf_counter_ns
        depth = self._depth.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._muted or (exclusive and depth[0]):
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            pass_id = tracer.pass_id
            # The slot fixes the span's index (children name it as their
            # parent); the record itself is a tuple of atoms, which the
            # cyclic GC stops tracking — 10^5 live list records made
            # every collection slower and showed up as tracing overhead.
            spans.append(None)
            stack.append(index)
            depth[0] += 1
            if leaf:
                tracer._muted += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, pass_id)
                if leaf:
                    tracer._muted -= 1
                depth[0] -= 1
                stack.pop()

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **options: bool) -> None:
        """Replace ``owner.attr`` by a wrapper.  ``owner`` is a module (the
        namespace that imported a function by name) or a class; a class is
        patched together with every subclass that overrides ``attr`` — an
        override would otherwise bypass the base-class wrapper."""
        if isinstance(owner, type):
            for sub in owner.__subclasses__():
                self.patch(sub, attr, name, **options)
            if attr not in vars(owner):
                return  # inherited here; the defining class carries the wrapper
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, **options))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def document(self) -> Dict[str, Any]:
        """The spans as a compact JSON-ready document: names interned,
        clock readings relative to the first span's start."""
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][START] if self.spans else 0
        return {
            "fields": list(SPAN_FIELDS),
            "names": names,
            "spans": [
                [index[name], start - origin, end - origin, parent, pass_id]
                for name, start, end, parent, pass_id in self.spans
            ],
        }


def self_times_ns(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Per-span self time: duration minus the durations of direct children.

    Children never overlap (one thread, strictly nested calls), so the
    sum of their durations is exactly the part of the interval they cover.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def summarise(
    spans: Sequence[Sequence[Any]], pass_id: Optional[int] = None
) -> Dict[str, Tuple[float, int]]:
    """``{name: (self seconds, span count)}`` over one pass (or all)."""
    totals: Dict[str, List[float]] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        if pass_id is not None and span[PASS] != pass_id:
            continue
        entry = totals.setdefault(span[NAME], [0.0, 0])
        entry[0] += own * 1e-9
        entry[1] += 1
    return {name: (entry[0], int(entry[1])) for name, entry in totals.items()}
